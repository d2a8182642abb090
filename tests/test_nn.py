"""Finite-difference verification of every layer's backward pass.

All checks run in 64-bit where central differences resolve ~1e-10 of
structure; the asserted tolerance is 1e-4 relative on the worst entry.
"""

import numpy as np
import pytest

from emgkin import nn

EPS = 1e-6
TOL = 1e-4


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def numeric_grad(f, arr: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f()
        flat[i] = keep - eps
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def layer_loss(layer, x, r, mode="train"):
    return lambda: float(np.sum(layer.forward(x, mode) * r))


def check_layer_input_grad(layer, x, mode="train"):
    rng = np.random.default_rng(99)
    r = rng.standard_normal(layer.forward(x, mode).shape)
    layer.forward(x, mode)
    dx = layer.backward(r)
    dx_num = numeric_grad(layer_loss(layer, x, r, mode), x)
    assert rel_err(dx, dx_num) < TOL


def test_conv1d_gradients():
    rng = np.random.default_rng(0)
    layer = nn.Conv1d(3, 4, rng=np.random.default_rng(1), slope=0.1, dtype=np.float64)
    x = rng.standard_normal((2, 12, 3))
    r = rng.standard_normal((2, 12, 4))
    loss = layer_loss(layer, x, r)
    layer.forward(x, "train")
    dx = layer.backward(r)
    assert rel_err(dx, numeric_grad(loss, x)) < TOL
    assert rel_err(layer.dW, numeric_grad(loss, layer.W)) < TOL
    assert rel_err(layer.db, numeric_grad(loss, layer.b)) < TOL


def test_conv1d_preserves_length():
    # kernel 3, stride 1, zero pad 1: output length equals input length
    layer = nn.Conv1d(2, 5, rng=np.random.default_rng(2), slope=0.1, dtype=np.float64)
    out = layer.forward(np.random.default_rng(3).standard_normal((4, 17, 2)), "eval")
    assert out.shape == (4, 17, 5)


def test_batchnorm_gradients():
    rng = np.random.default_rng(4)
    layer = nn.BatchNorm(3, dtype=np.float64)
    x = rng.standard_normal((5, 7, 3))
    r = rng.standard_normal((5, 7, 3))
    loss = layer_loss(layer, x, r)
    layer.forward(x, "train")
    dx = layer.backward(r)
    assert rel_err(dx, numeric_grad(loss, x)) < TOL
    assert rel_err(layer.dgamma, numeric_grad(loss, layer.gamma)) < TOL
    assert rel_err(layer.dbeta, numeric_grad(loss, layer.beta)) < TOL


def test_batchnorm_train_output_standardized():
    rng = np.random.default_rng(5)
    layer = nn.BatchNorm(4, dtype=np.float64)
    x = rng.standard_normal((8, 20, 4)) * 3.0 + 2.0
    out = layer.forward(x, "train")
    np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-3)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(6)
    layer = nn.BatchNorm(2, dtype=np.float64)
    x = rng.standard_normal((16, 10, 2)) * 2.0 + 1.0
    for _ in range(200):
        layer.forward(x, "train")
    out = layer.forward(x, "eval")
    # converged running stats reproduce the batch standardization
    np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-2)
    np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=2e-2)


def test_leaky_relu_gradient_off_kink():
    rng = np.random.default_rng(7)
    layer = nn.LeakyRelu(slope=0.1)
    x = rng.standard_normal((3, 4, 9))
    x[np.abs(x) < 0.05] = 0.1  # keep finite differences away from the kink
    check_layer_input_grad(layer, x)


def test_leaky_relu_values():
    layer = nn.LeakyRelu(slope=0.1)
    x = np.array([[-2.0, 0.0, 3.0]])
    np.testing.assert_allclose(layer.forward(x, "eval"), [[-0.2, 0.0, 3.0]])


def test_maxpool_gradient_off_ties():
    rng = np.random.default_rng(8)
    layer = nn.MaxPool1d()
    # distinct values so eps-perturbation cannot flip a winner
    x = rng.permutation(np.arange(2 * 11 * 3)).astype(np.float64).reshape(2, 11, 3)
    check_layer_input_grad(layer, x)


def test_maxpool_window3_stride1_semantics():
    layer = nn.MaxPool1d()
    x = np.array([1.0, 5.0, 2.0, 4.0, 3.0]).reshape(1, 5, 1)
    out = layer.forward(x, "eval")
    np.testing.assert_allclose(out.ravel(), [5.0, 5.0, 4.0])


def test_dropout_eval_is_identity_with_unit_gradient():
    layer = nn.Dropout(0.3, rng=np.random.default_rng(9))
    x = np.random.default_rng(10).standard_normal((4, 6))
    out = layer.forward(x, "eval")
    np.testing.assert_array_equal(out, x)
    dout = np.random.default_rng(11).standard_normal((4, 6))
    np.testing.assert_array_equal(layer.backward(dout), dout)


def test_dropout_rate_zero_gradient():
    layer = nn.Dropout(0.0, rng=np.random.default_rng(12))
    x = np.random.default_rng(13).standard_normal((3, 5))
    check_layer_input_grad(layer, x, mode="train")


def test_dropout_train_masks_and_rescales():
    layer = nn.Dropout(0.3, rng=np.random.default_rng(14))
    x = np.ones((200, 50))
    out = layer.forward(x, "train")
    dropped = np.mean(out == 0.0)
    assert dropped == pytest.approx(0.3, abs=0.02)
    kept = out[out != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)


def test_dense_gradients():
    rng = np.random.default_rng(15)
    layer = nn.Dense(7, 4, rng=np.random.default_rng(16), dtype=np.float64)
    x = rng.standard_normal((5, 7))
    r = rng.standard_normal((5, 4))
    loss = layer_loss(layer, x, r)
    layer.forward(x, "train")
    dx = layer.backward(r)
    assert rel_err(dx, numeric_grad(loss, x)) < TOL
    assert rel_err(layer.dW, numeric_grad(loss, layer.W)) < TOL
    assert rel_err(layer.db, numeric_grad(loss, layer.b)) < TOL


def test_mse_loss_value_and_gradient():
    rng = np.random.default_rng(17)
    pred = rng.standard_normal((6, 3))
    target = rng.standard_normal((6, 3))
    loss, grad = nn.mse_loss(pred, target)
    assert loss == pytest.approx(np.mean((pred - target) ** 2))

    def f():
        return nn.mse_loss(pred, target)[0]

    assert rel_err(grad, numeric_grad(f, pred)) < TOL


def test_full_model_parameter_gradients_sampled():
    """End-to-end backprop through the whole stack vs finite differences.

    Dropout is disabled so the train-mode forward is deterministic; 20
    randomly chosen entries of every parameter tensor are checked.
    """
    model = nn.CnnModel(
        input_len=12, in_channels=3, n_outputs=2, seed=3, dropout_rate=0.0,
        dtype=np.float64,
    )
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 12, 3))
    target = rng.standard_normal((4, 2))

    def loss_fn() -> float:
        return nn.mse_loss(model.forward(x, "train"), target)[0]

    pred = model.forward(x, "train")
    _, dpred = nn.mse_loss(pred, target)
    model.backward(dpred)
    grads = model.gradients()
    worst = 0.0
    for name, param in model.parameters().items():
        flat = param.ravel()
        picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + EPS
            hi = loss_fn()
            flat[i] = keep - EPS
            lo = loss_fn()
            flat[i] = keep
            num = (hi - lo) / (2 * EPS)
            ana = grads[name].ravel()[i]
            if abs(num) < 1e-7 and abs(ana) < 1e-7:
                # dead parameter (conv bias feeding a batchnorm): the true
                # gradient is 0 and the central difference is pure noise
                continue
            denom = abs(num) + abs(ana)
            worst = max(worst, abs(num - ana) / denom)
    assert worst < TOL, f"worst sampled relative error {worst:.3e}"


def test_full_model_gradients_all_finite_and_live():
    model = nn.CnnModel(
        input_len=10, in_channels=2, n_outputs=1, seed=4, dropout_rate=0.0,
        dtype=np.float64,
    )
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 10, 2))
    target = rng.standard_normal((2, 1))
    pred = model.forward(x, "train")
    _, dpred = nn.mse_loss(pred, target)
    model.backward(dpred)
    for name, g in model.gradients().items():
        assert np.all(np.isfinite(g)), name
        # every weight tensor should receive some signal from a dense target
        if name.endswith(".W"):
            assert np.any(g != 0.0), name


def test_feature_head_shapes():
    model = nn.CnnModel(input_len=101, in_channels=6, n_outputs=3, seed=5)
    x = np.random.default_rng(20).standard_normal((4, 101, 6)).astype(np.float32)
    assert model.block_lengths() == [101, 99, 97, 95, 93]
    feats = model.extract(x)
    assert feats.shape == (4, 20)
    pred = model.forward(x, "eval")
    assert pred.shape == (4, 3)
    # flattened conv output entering the first dense layer: 93 * 32
    assert model.parameters()["fc1.W"].shape[0] == 93 * 32 == 2976


def test_forward_is_deterministic_in_eval():
    model = nn.CnnModel(input_len=20, in_channels=6, n_outputs=1, seed=6)
    x = np.random.default_rng(21).standard_normal((3, 20, 6)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x, "eval"), model.forward(x, "eval"))


def test_same_seed_same_init():
    a = nn.CnnModel(input_len=20, in_channels=6, n_outputs=1, seed=7)
    b = nn.CnnModel(input_len=20, in_channels=6, n_outputs=1, seed=7)
    for k, v in a.parameters().items():
        np.testing.assert_array_equal(v, b.parameters()[k])
    c = nn.CnnModel(input_len=20, in_channels=6, n_outputs=1, seed=8)
    assert any(
        not np.array_equal(v, c.parameters()[k]) for k, v in a.parameters().items()
    )
