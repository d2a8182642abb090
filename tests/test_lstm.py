"""Recurrent regressor: forward semantics against a loop reference, BPTT
against central finite differences (small dimensions, 64-bit)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from emgkin import lstm, nn, training
from emgkin.lstm import (
    LstmParams,
    build_sequences,
    init_lstm_params,
    lstm_backward,
    lstm_forward_batch,
    stack_sequences,
)

EPS = 1e-6
TOL = 1e-4


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gate_blocks(p: LstmParams):
    """[(W_g, b_g)] for the gates i, m, o, c: row views of the fused arrays."""
    return list(zip(np.split(p.W, 4), np.split(p.b, 4)))


def small_params(seed=0, feature_dim=3, hidden=4, n_outputs=2) -> LstmParams:
    p = init_lstm_params(feature_dim=feature_dim, hidden=hidden,
                         n_outputs=n_outputs, seed=seed, dtype=np.float64)
    # nudge the forget bias off its saturating init so gradients are lively
    p.b[hidden : 2 * hidden] = 0.3
    return p


def reference_forward(p: LstmParams, seq: np.ndarray) -> np.ndarray:
    """Plain-loop reading of the update equations, kept independent of the
    vectorized implementation under test; the state starts at zero."""
    (w_i, b_i), (w_m, b_m), (w_o, b_o), (w_c, b_c) = gate_blocks(p)
    h = np.zeros(p.hidden)
    c = np.zeros(p.hidden)
    for f in seq:
        z = np.concatenate([h, f])
        i = sigmoid(w_i @ z + b_i)
        m = sigmoid(w_m @ z + b_m)
        o = sigmoid(w_o @ z + b_o)
        c = i * np.tanh(w_c @ z + b_c) + m * c
        h = o * np.tanh(c)
    return p.W_y @ h + p.b_y


def test_forward_matches_loop_reference():
    p = small_params()
    rng = np.random.default_rng(1)
    seqs = rng.standard_normal((5, 4, 3))
    y, cache = lstm_forward_batch(p, seqs)
    for b in range(5):
        np.testing.assert_allclose(y[b], reference_forward(p, seqs[b]), atol=1e-12)
    # h = o * tanh(c) with o in (0,1): magnitude strictly below 1
    assert np.all(np.abs(cache.h_final) < 1.0)


def test_single_sequence_forward_matches_batch():
    p = small_params(seed=2)
    rng = np.random.default_rng(3)
    seqs = rng.standard_normal((3, 5, 3))
    y_batch, _ = lstm_forward_batch(p, seqs)
    for b in range(3):
        y_single, _ = lstm_forward_batch(p, seqs[b : b + 1])
        np.testing.assert_allclose(y_single[0], y_batch[b], atol=1e-12)


def test_initial_state_is_zero_and_untouched():
    """A one-step sequence sees h_0 = c_0 = 0: its output is a closed form of
    the input alone, and a second pass reproduces it."""
    p = small_params(seed=6)
    f = np.random.default_rng(7).standard_normal((2, 1, 3))
    (w_i, b_i), _, (w_o, b_o), (w_c, b_c) = gate_blocks(p)
    z = np.concatenate([np.zeros((2, p.hidden)), f[:, 0]], axis=1)
    c = sigmoid(z @ w_i.T + b_i) * np.tanh(z @ w_c.T + b_c)
    h = sigmoid(z @ w_o.T + b_o) * np.tanh(c)
    y, _ = lstm_forward_batch(p, f)
    np.testing.assert_allclose(y, h @ p.W_y.T + p.b_y, atol=1e-12)
    np.testing.assert_array_equal(lstm_forward_batch(p, f)[0], y)


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
    h = p.hidden
    blocks = {  # a gate's rows of the fused array and of its gradient
        "W_i": (p.W[:h], grads["W"][:h]),
        "W_m": (p.W[h : 2 * h], grads["W"][h : 2 * h]),
        "W_c": (p.W[3 * h :], grads["W"][3 * h :]),
        "b_o": (p.b[2 * h : 3 * h], grads["b"][2 * h : 3 * h]),
        "W_y": (p.W_y, grads["W_y"]),
    }
    for name, (param, grad) in blocks.items():
        flat = param.ravel()
        for i in range(0, flat.size, 3):  # stride through the larger tensors
            keep = flat[i]
            flat[i] = keep + EPS
            hi = loss()
            flat[i] = keep - EPS
            lo = loss()
            flat[i] = keep
            num = (hi - lo) / (2 * EPS)
            ana = grad.ravel()[i]
            err = abs(num - ana) / max(abs(num) + abs(ana), 1e-6)
            assert err < TOL, f"{name}[{i}]: {err:.3e}"


def test_init_shapes_and_forget_bias():
    p = init_lstm_params(feature_dim=20, hidden=50, n_outputs=3, seed=12)
    assert p.W.shape == (4 * 50, 70) and p.b.shape == (4 * 50,)
    assert p.W_y.shape == (3, 50)
    np.testing.assert_array_equal(p.b[50:100], 1.0)  # remember-by-default at init
    np.testing.assert_array_equal(p.b[:50], 0.0)
    assert np.all(np.abs(p.W) <= 1.0 / np.sqrt(70))
    assert set(p.parameters()) == {"W", "b", "W_y", "b_y"}
    assert np.all(np.abs(p.W_y) <= 1.0 / np.sqrt(50))


def test_init_equals_four_per_gate_draws():
    """One fused draw gives the bytes of the four per-gate draws i, m, o, c
    and the readout draw after them, so a seed trains the same model."""
    feature_dim, hidden, n_outputs, seed = 20, 50, 3, 12
    rng = np.random.default_rng(seed)
    z_dim = hidden + feature_dim
    gates = [
        rng.uniform(-1 / np.sqrt(z_dim), 1 / np.sqrt(z_dim), (hidden, z_dim)).astype(np.float32)
        for _ in "imoc"
    ]
    w_y = rng.uniform(-1 / np.sqrt(hidden), 1 / np.sqrt(hidden), (n_outputs, hidden))
    biases = [np.zeros(hidden), np.ones(hidden), np.zeros(hidden), np.zeros(hidden)]
    p = init_lstm_params(feature_dim, hidden, n_outputs, seed)
    assert p.W.tobytes() == np.concatenate(gates).tobytes()
    assert p.b.tobytes() == np.concatenate(biases).astype(np.float32).tobytes()
    assert p.W_y.tobytes() == w_y.astype(np.float32).tobytes()
    assert p.b_y.tobytes() == np.zeros(n_outputs, np.float32).tobytes()


@pytest.mark.parametrize(
    "field, shape",
    [("W", (12, 7)), ("W", (16,)), ("W", (16, 4)), ("b", (12,)), ("b", (16, 1)), ("b_y", (3,))],
)
def test_params_of_the_wrong_shape_are_refused(field, shape):
    """W must hold 4 gate blocks of H rows over H+F columns and b 4H values,
    with H from the readout; a W of 3H rows is not an LSTM."""
    from emgkin.errors import DimensionError

    arrays = init_lstm_params(feature_dim=3, hidden=4, n_outputs=2).parameters()
    arrays[field] = np.zeros(shape, np.float32)
    with pytest.raises(DimensionError):
        LstmParams(**arrays)


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 70), seed=st.integers(0, 2**16))
@example(batch=1, seed=0)
@example(batch=13, seed=1)  # the last batch at k = 58 on the P4 desk sweep
@example(batch=64, seed=2)  # training.LSTM_BATCH
def test_fused_forward_matches_per_gate_reference(batch, seed):
    """At the recipe's float32 gate shapes (H = 50, F = 20) and every batch
    size up to 70, where BLAS may pick another kernel for the fused GEMM than
    for one gate's, the fused forward equals the per-gate loop to float32
    rounding."""
    p = init_lstm_params(n_outputs=3, seed=seed)
    p.b[p.hidden : 2 * p.hidden] = 0.3
    seqs = np.random.default_rng(seed).standard_normal((batch, 3, nn.FEATURE_DIM))
    seqs = seqs.astype(np.float32)
    y, _ = lstm_forward_batch(p, seqs)
    assert y.dtype == np.float32
    for b in range(batch):
        np.testing.assert_allclose(y[b], reference_forward(p, seqs[b]), rtol=1e-5, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 70), seed=st.integers(0, 2**16))
@example(batch=1, seed=0)
@example(batch=64, seed=2)  # training.LSTM_BATCH
@example(batch=1159, seed=3)  # a 60 s recording's sequences at k = 18
def test_cache_free_forward_keeps_the_eval_bytes(batch, seed):
    """At the recipe's float32 shapes, the forward without a BPTT cache gives
    the cached eval forward's y byte for byte, and its None cache is refused
    by BPTT."""
    p = init_lstm_params(n_outputs=3, seed=seed)
    seqs = np.random.default_rng(seed).standard_normal((batch, 18, nn.FEATURE_DIM))
    seqs = seqs.astype(np.float32)
    y, cache = lstm_forward_batch(p, seqs, mode="eval")
    y_free, no_cache = lstm_forward_batch(p, seqs, mode="eval", keep_cache=False)
    assert len(cache.steps) == 18 and no_cache is None
    assert y_free.dtype == y.dtype and y_free.tobytes() == y.tobytes()
    with pytest.raises(ValueError, match="requires the cache"):
        lstm_backward(p, no_cache, np.ones_like(y))


def concatenating_forward(p: LstmParams, seqs: np.ndarray, mode="eval", rng=None,
                          keep_cache=False):
    """(y_k, cache) by the fused forward as it was before its steps wrote
    into arrays given to them: a new z, gate block, c_j and h_j at every
    step, each row-major [B x width]. With ``keep_cache`` the cache is
    ``reference_backward``'s, holding every step; otherwise it is None."""
    h = c = np.zeros((len(seqs), p.hidden), dtype=p.W.dtype)
    steps = []
    for j in range(seqs.shape[1]):
        z = np.concatenate([h, seqs[:, j, :]], axis=1)
        a = z @ p.W.T
        a += p.b
        sig = a[:, : 3 * p.hidden]
        sig *= 0.5
        np.tanh(a, out=a)
        sig *= 0.5
        sig += 0.5
        i, m, o, g = np.split(a, 4, axis=1)
        c_new = i * g + m * c
        tanh_c = np.tanh(c_new)
        if keep_cache:
            steps.append((z, a, c, tanh_c))
        h = o * tanh_c
        c = c_new
    dropout = nn.Dropout(nn.DEFAULT_DROPOUT, rng)
    h = dropout.forward(h, mode)
    cache = lstm.LstmCache(steps=steps, h_final=h, dropout=dropout) if keep_cache else None
    return h @ p.W_y.T + p.b_y, cache


def reference_backward(p: LstmParams, cache, dy: np.ndarray) -> dict[str, np.ndarray]:
    """BPTT as it was before the gate-major layout, over the row-major steps
    of ``concatenating_forward``: per-gate [B x H] derivatives joined by
    ``np.concatenate`` at every step."""
    grads = {name: np.zeros_like(arr) for name, arr in p.parameters().items()}
    grads["W_y"] = dy.T @ cache.h_final
    grads["b_y"] = dy.sum(axis=0)
    dh = cache.dropout.backward(dy @ p.W_y)
    w_h = p.W[:, : p.hidden]
    dc = np.zeros_like(dh)
    for z, a, c_prev, tanh_c in reversed(cache.steps):
        i, m, o, g = np.split(a, 4, axis=1)
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_ai = (dc * g) * i * (1.0 - i)
        d_am = (dc * c_prev) * m * (1.0 - m)
        d_ao = do * o * (1.0 - o)
        d_ag = (dc * i) * (1.0 - g * g)
        d_a = np.concatenate([d_ai, d_am, d_ao, d_ag], axis=1)
        grads["W"] += d_a.T @ z
        grads["b"] += d_a.sum(axis=0)
        dh = d_a @ w_h
        dc = dc * m
    return grads


@pytest.mark.parametrize("k, seed", [(1, 0), (18, 1), (98, 2)])
def test_forward_keeps_the_concatenating_bytes(k, seed):
    """y_k has the bytes of the forward that made new arrays at every step:
    without the cache at the 6,005 - k + 1 sequences of a 300 s recording,
    with it at 512 (its k-step cache at 6,005 sequences and k = 98 is
    0.86 GB), and in train mode, whose cache holds the reference's bytes
    too: z row-major as there, and the gate-major a, c_{j-1} and tanh c_j
    as the transposes of its row-major arrays."""
    p = init_lstm_params(n_outputs=3, seed=seed)
    features = np.random.default_rng(seed + 40).standard_normal((6005, nn.FEATURE_DIM))
    seqs = build_sequences(features.astype(np.float32), k)
    for batch, keep_cache in ((seqs, False), (seqs[:512], True)):
        y, _ = lstm_forward_batch(p, batch, mode="eval", keep_cache=keep_cache)
        y_ref, _ = concatenating_forward(p, batch)
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
    batch = seqs[: training.LSTM_BATCH]
    y_ref, ref = concatenating_forward(p, batch, "train", np.random.default_rng(seed), True)
    y, cache = lstm_forward_batch(p, batch, mode="train", rng=np.random.default_rng(seed))
    assert y.tobytes() == y_ref.tobytes()
    for (z, a, c_prev, tanh_c), step_ref in zip(cache.steps, ref.steps, strict=True):
        assert z.shape == step_ref[0].shape and a.shape == step_ref[1].shape[::-1]
        got = [z.tobytes(), a.T.tobytes(), c_prev.T.tobytes(), tanh_c.T.tobytes()]
        assert got == [x.tobytes() for x in step_ref]


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 70),
    k=st.sampled_from((1, 2, 18, 98)),
    seed=st.integers(0, 2**16),
)
@example(batch=64, k=18, seed=0)  # training.LSTM_BATCH
# the P4 desk sweep's last batches: 902 training windows, S = 903 - k sequences
@example(batch=63, k=8, seed=1)
@example(batch=53, k=18, seed=2)
@example(batch=13, k=58, seed=3)
@example(batch=37, k=98, seed=4)
def test_bptt_keeps_the_concatenating_bytes(batch, k, seed):
    """At the recipe's float32 shapes, BPTT through the gate-major cache
    gives every gradient the bytes of the per-gate, concatenating BPTT over
    the row-major cache, after the same train-mode forward."""
    p = init_lstm_params(n_outputs=3, seed=seed)
    rng = np.random.default_rng(seed)
    seqs = rng.standard_normal((batch, k, nn.FEATURE_DIM)).astype(np.float32)
    dy = rng.standard_normal((batch, 3)).astype(np.float32)
    _, ref = concatenating_forward(p, seqs, "train", np.random.default_rng(seed), True)
    _, cache = lstm_forward_batch(p, seqs, mode="train", rng=np.random.default_rng(seed))
    grads, grads_ref = lstm_backward(p, cache, dy), reference_backward(p, ref, dy)
    for name in lstm.PARAM_NAMES:
        assert grads[name].dtype == grads_ref[name].dtype == np.float32, name
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


def test_cache_free_forward_peak_memory_is_one_step():
    """At 6,005 sequences and k = 18 the forward without a cache holds z,
    the gate block, c and one temporary, written over at every step; a new
    set per step peaked at 14.3 MB."""
    p = init_lstm_params(seed=3)
    features = np.random.default_rng(41).standard_normal((6005 + 17, nn.FEATURE_DIM))
    seqs = build_sequences(features.astype(np.float32), 18)
    z_dim = p.hidden + nn.FEATURE_DIM
    step_bytes = len(seqs) * (z_dim + 4 * p.hidden + 2 * p.hidden) * p.W.itemsize
    _, peak = traced_peak(lstm_forward_batch, p, seqs, "eval", None, False)
    assert peak <= step_bytes + (256 << 10), (peak, step_bytes)


def test_init_deterministic_per_seed():
    a = init_lstm_params(seed=13)
    b = init_lstm_params(seed=13)
    c = init_lstm_params(seed=14)
    np.testing.assert_array_equal(a.W, b.W)
    assert not np.array_equal(a.W, c.W)


def test_train_mode_dropout_requires_rng_and_differs_from_eval():
    p = small_params(seed=15)
    seqs = np.random.default_rng(16).standard_normal((8, 4, 3))
    y_eval, _ = lstm_forward_batch(p, seqs)
    y_train, cache = lstm_forward_batch(p, seqs, mode="train", rng=np.random.default_rng(17))
    assert not np.allclose(y_eval, y_train)
    # inverted dropout at the recipe's rate: kept units scale by 1/(1 - rate)
    grad = cache.dropout.backward(np.ones_like(cache.h_final))
    assert set(np.unique(grad)) == {0.0, 1.0 / (1.0 - nn.DEFAULT_DROPOUT)}
    with pytest.raises(ValueError):
        lstm_forward_batch(p, seqs, mode="train", rng=None)


def test_only_train_mode_drops_out():
    """Like every CNN layer, the LSTM's dropout reads any mode but "train"
    as eval, whatever rng it is given."""
    p = small_params(seed=15)
    seqs = np.random.default_rng(16).standard_normal((8, 4, 3))
    y_eval, _ = lstm_forward_batch(p, seqs)
    y_other, _ = lstm_forward_batch(p, seqs, mode="Eval", rng=np.random.default_rng(17))
    np.testing.assert_array_equal(y_other, y_eval)


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
