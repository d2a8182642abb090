"""Recurrent regressor: forward semantics against a loop reference, BPTT
against central finite differences (small dimensions, 64-bit)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emgkin import lstm
from emgkin.lstm import (
    LstmParams,
    build_sequences,
    init_lstm_params,
    lstm_backward,
    lstm_forward_batch,
    lstm_step,
    stack_sequences,
)

EPS = 1e-6
TOL = 1e-4


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def small_params(seed=0, feature_dim=3, hidden=4, n_outputs=2) -> LstmParams:
    p = init_lstm_params(feature_dim=feature_dim, hidden=hidden,
                         n_outputs=n_outputs, seed=seed, dtype=np.float64)
    # nudge the forget bias off its saturating init so gradients are lively
    p.b_m[:] = 0.3
    return p


def reference_forward(p: LstmParams, seq: np.ndarray) -> np.ndarray:
    """Plain-loop reading of the update equations, kept independent of the
    vectorized implementation under test."""
    h = p.h0.copy()
    c = p.c0.copy()
    for f in seq:
        z = np.concatenate([h, f])
        i = sigmoid(p.W_i @ z + p.b_i)
        m = sigmoid(p.W_m @ z + p.b_m)
        o = sigmoid(p.W_o @ z + p.b_o)
        c = i * np.tanh(p.W_c @ z + p.b_c) + m * c
        h = o * np.tanh(c)
    return p.W_y @ h + p.b_y


def test_forward_matches_loop_reference():
    p = small_params()
    rng = np.random.default_rng(1)
    seqs = rng.standard_normal((5, 4, 3))
    y, _ = lstm_forward_batch(p, seqs)
    for b in range(5):
        np.testing.assert_allclose(y[b], reference_forward(p, seqs[b]), atol=1e-12)


def test_single_sequence_forward_matches_batch():
    p = small_params(seed=2)
    rng = np.random.default_rng(3)
    seqs = rng.standard_normal((3, 5, 3))
    y_batch, _ = lstm_forward_batch(p, seqs)
    for b in range(3):
        y_single, _ = lstm_forward_batch(p, seqs[b : b + 1])
        np.testing.assert_allclose(y_single[0], y_batch[b], atol=1e-12)


def test_step_gates_bounded_and_state_mixes():
    p = small_params(seed=4)
    state = lstm.LstmState(h=np.zeros(4), c=np.zeros(4))
    rng = np.random.default_rng(5)
    for _ in range(20):
        state, y = lstm_step(p, state, rng.standard_normal(3))
        # h = o * tanh(c) with o in (0,1): magnitude strictly below 1
        assert np.all(np.abs(state.h) < 1.0)
        assert np.all(np.isfinite(state.c))
        assert y.shape == (2,)


def test_initial_state_is_zero_and_untouched():
    p = small_params(seed=6)
    np.testing.assert_array_equal(p.h0, 0.0)
    np.testing.assert_array_equal(p.c0, 0.0)
    rng = np.random.default_rng(7)
    lstm_forward_batch(p, rng.standard_normal((2, 3, 3)))
    np.testing.assert_array_equal(p.h0, 0.0)
    np.testing.assert_array_equal(p.c0, 0.0)


def test_bptt_matches_finite_differences():
    """Every trainable tensor, every entry, k=4 steps."""
    p = small_params(seed=8)
    rng = np.random.default_rng(9)
    seqs = rng.standard_normal((3, 4, 3))
    r = rng.standard_normal((3, 2))

    def loss() -> float:
        y, _ = lstm_forward_batch(p, seqs)
        return float(np.sum(y * r))

    y, cache = lstm_forward_batch(p, seqs)
    grads = lstm_backward(p, cache, r)
    assert set(grads) == set(lstm.PARAM_NAMES)
    for name in lstm.PARAM_NAMES:
        param = p.parameters()[name]
        flat = param.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + EPS
            hi = loss()
            flat[i] = keep - EPS
            lo = loss()
            flat[i] = keep
            num[i] = (hi - lo) / (2 * EPS)
        ana = grads[name].ravel()
        denom = np.maximum(np.abs(num) + np.abs(ana), 1e-6)
        worst = np.max(np.abs(num - ana) / denom)
        assert worst < TOL, f"{name}: worst relative error {worst:.3e}"


def test_bptt_longer_sequence_k5_hidden6():
    p = init_lstm_params(feature_dim=2, hidden=6, n_outputs=1, seed=10,
                         dtype=np.float64)
    rng = np.random.default_rng(11)
    seqs = rng.standard_normal((2, 5, 2))
    r = rng.standard_normal((2, 1))

    def loss() -> float:
        y, _ = lstm_forward_batch(p, seqs)
        return float(np.sum(y * r))

    _, cache = lstm_forward_batch(p, seqs)
    grads = lstm_backward(p, cache, r)
    for name in ("W_i", "W_m", "W_c", "b_o", "W_y"):
        param = p.parameters()[name]
        flat = param.ravel()
        for i in range(0, flat.size, 3):  # stride through the larger tensors
            keep = flat[i]
            flat[i] = keep + EPS
            hi = loss()
            flat[i] = keep - EPS
            lo = loss()
            flat[i] = keep
            num = (hi - lo) / (2 * EPS)
            ana = grads[name].ravel()[i]
            err = abs(num - ana) / max(abs(num) + abs(ana), 1e-6)
            assert err < TOL, f"{name}[{i}]: {err:.3e}"


def test_init_shapes_and_forget_bias():
    p = init_lstm_params(feature_dim=20, hidden=50, n_outputs=3, seed=12)
    assert p.W_i.shape == p.W_m.shape == p.W_o.shape == p.W_c.shape == (50, 70)
    assert p.W_y.shape == (3, 50)
    np.testing.assert_array_equal(p.b_m, 1.0)  # remember-by-default at init
    np.testing.assert_array_equal(p.b_i, 0.0)
    bound = 1.0 / np.sqrt(70)
    for w in (p.W_i, p.W_m, p.W_o, p.W_c):
        assert np.all(np.abs(w) <= bound)
    assert np.all(np.abs(p.W_y) <= 1.0 / np.sqrt(50))


def test_init_deterministic_per_seed():
    a = init_lstm_params(seed=13)
    b = init_lstm_params(seed=13)
    c = init_lstm_params(seed=14)
    np.testing.assert_array_equal(a.W_i, b.W_i)
    assert not np.array_equal(a.W_i, c.W_i)


def test_train_mode_dropout_requires_rng_and_differs_from_eval():
    p = small_params(seed=15)
    seqs = np.random.default_rng(16).standard_normal((8, 4, 3))
    y_eval, _ = lstm_forward_batch(p, seqs)
    y_train, _ = lstm_forward_batch(
        p, seqs, mode="train", rng=np.random.default_rng(17), dropout_rate=0.5
    )
    assert not np.allclose(y_eval, y_train)
    with pytest.raises(ValueError):
        lstm_forward_batch(p, seqs, mode="train", rng=None, dropout_rate=0.5)


def test_build_sequences_counts_and_alignment():
    rng = np.random.default_rng(18)
    features = rng.standard_normal((30, 20))
    labels = rng.standard_normal((30, 2))
    seqs, targets = stack_sequences(features, labels, k=18)
    assert len(seqs) == len(targets) == 30 - 18 + 1
    # sequence j covers feature rows [j, j+k); its target is the last row's label
    np.testing.assert_array_equal(seqs[0], features[:18])
    np.testing.assert_array_equal(targets[0], labels[17])
    np.testing.assert_array_equal(seqs[-1], features[12:30])
    np.testing.assert_array_equal(targets[-1], labels[29])


def test_build_sequences_is_a_view_of_the_features():
    features = np.random.default_rng(21).standard_normal((40, 20)).astype(np.float32)
    seqs = build_sequences(features, k=18)
    assert seqs.shape == (40 - 18 + 1, 18, 20)
    assert np.shares_memory(seqs, features)
    assert not seqs.flags.writeable
    for i in range(len(seqs)):
        np.testing.assert_array_equal(seqs[i], features[i : i + 18])


def test_build_sequences_k_larger_than_data():
    from emgkin.errors import InsufficientDataError

    rng = np.random.default_rng(19)
    with pytest.raises(InsufficientDataError):
        build_sequences(rng.standard_normal((5, 20)), k=18)
    with pytest.raises(InsufficientDataError):
        stack_sequences(rng.standard_normal((5, 20)), rng.standard_normal((5, 1)), k=18)


def test_stack_sequences_shapes():
    from emgkin.errors import DimensionError

    rng = np.random.default_rng(20)
    features = rng.standard_normal((10, 3))
    labels = rng.standard_normal((10, 2))
    x, y = stack_sequences(features, labels, k=4)
    assert x.shape == (7, 4, 3)
    assert y.shape == (7, 2)
    with pytest.raises(DimensionError):
        stack_sequences(features, labels[:9], k=4)


def test_sigmoid_extreme_inputs_do_not_overflow():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    with np.errstate(over="raise"):
        y = lstm.sigmoid(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[2], 0.5)
    assert y[0] == 0.0 and y[-1] == 1.0


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=50))
def test_sigmoid_matches_reference(values):
    x = np.array(values)
    np.testing.assert_allclose(lstm.sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
def test_sigmoid_bounded_and_monotone(values):
    x = np.sort(np.array(values))
    y = lstm.sigmoid(x)
    assert np.all((y >= 0.0) & (y <= 1.0))
    assert np.all(np.diff(y) >= 0.0)
