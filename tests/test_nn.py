"""Finite-difference verification of every layer's backward pass.

All checks run in 64-bit where central differences resolve ~1e-10 of
structure; the asserted tolerance is 1e-4 relative on the worst entry.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emgkin import dsp, nn
from conftest import traced_peak

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

    Every forward first restores the model's generator, so each pass draws
    the same dropout masks and the train-mode forward is deterministic; 20
    randomly chosen entries of every parameter tensor are checked.
    """
    model = nn.CnnModel(input_len=12, in_channels=3, n_outputs=2, seed=3, dtype=np.float64)
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 12, 3))
    target = rng.standard_normal((4, 2))
    dropout_state = model.rng.bit_generator.state

    def train_forward() -> np.ndarray:
        model.rng.bit_generator.state = dropout_state
        return model.forward(x, "train")

    def loss_fn() -> float:
        return nn.mse_loss(train_forward(), target)[0]

    pred = train_forward()
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
    model = nn.CnnModel(input_len=10, in_channels=2, n_outputs=1, seed=4, dtype=np.float64)
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


def reference_pool_forward(x):
    """The argmax pool this layer replaced: stack the taps, argmax, max."""
    out_len = x.shape[1] - (nn.MaxPool1d.SIZE - 1)
    windows = np.stack(
        [x[:, i : i + out_len, :] for i in range(nn.MaxPool1d.SIZE)], axis=2
    )
    return windows.max(axis=2), windows.argmax(axis=2)


def reference_pool_backward(argmax, dout, in_shape):
    dx = np.zeros(in_shape, dtype=dout.dtype)
    b_idx, l_idx, c_idx = np.indices(dout.shape)
    np.add.at(dx, (b_idx, l_idx + argmax, c_idx), dout)
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("inputs", ["small_ints", "all_equal", "signed_zeros", "normal"])
def test_maxpool_matches_argmax_reference_bytes(dtype, inputs):
    rng = np.random.default_rng(22)
    shape = (6, 30, 4)
    x = {
        "small_ints": lambda: rng.integers(-2, 3, shape),
        "all_equal": lambda: np.full(shape, 1.5),
        "signed_zeros": lambda: rng.choice([-0.0, 0.0, 1.0], shape),
        "normal": lambda: rng.standard_normal(shape),
    }[inputs]().astype(dtype)
    dout = rng.standard_normal((6, 28, 4)).astype(dtype)
    layer = nn.MaxPool1d()
    out = layer.forward(x, "train")
    dx = layer.backward(dout)
    ref_out, argmax = reference_pool_forward(x)
    ref_dx = reference_pool_backward(argmax, dout, x.shape)
    assert out.dtype == ref_out.dtype and dx.dtype == ref_dx.dtype
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()


def reference_conv_forward(layer, x):
    """The conv forward this layer replaced: a padded copy of x, the three
    taps stacked into im2col, and a bias add into a second output array."""
    batch, length, in_ch = x.shape
    padded = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    cols = np.stack([padded[:, i : i + length, :] for i in range(3)], axis=-1)
    cols = cols.reshape(batch, length, in_ch * 3)
    w_mat = layer.W.transpose(1, 2, 0).reshape(in_ch * 3, -1)
    return cols @ w_mat + layer.b, cols


def reference_conv_backward(layer, cols, dout):
    """The conv backward this layer replaced: the weight gradient as an
    einsum, which runs no BLAS when cols and dout differ in dtype."""
    batch, length, _ = dout.shape
    out_ch, in_ch, _ = layer.W.shape
    d_wmat = np.einsum("blk,blo->ko", cols, dout)
    dW = d_wmat.reshape(in_ch, 3, out_ch).transpose(2, 0, 1)
    w_mat = layer.W.transpose(1, 2, 0).reshape(in_ch * 3, out_ch)
    dcols = (dout @ w_mat.T).reshape(batch, length, in_ch, 3)
    dpadded = np.zeros((batch, length + 2, in_ch), dtype=dout.dtype)
    for tap in range(3):
        dpadded[:, tap : tap + length, :] += dcols[:, :, :, tap]
    return dpadded[:, 1 : 1 + length, :], dW


# (batch, in channels, out channels, length) of conv1..conv4 in training on
# the desk recipe's 6-channel, 101-bin spectral matrices.
REAL_CONV_SHAPES = [(128, 6, 16, 101), (128, 16, 16, 99), (128, 16, 32, 97), (128, 32, 32, 95)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", REAL_CONV_SHAPES + [(3, 2, 4, 1), (3, 2, 4, 2)])
def test_conv_forward_matches_pad_stack_reference_bytes(shape, dtype, mode):
    batch, in_ch, out_ch, length = shape
    rng = np.random.default_rng(26)
    layer = nn.Conv1d(in_ch, out_ch, rng, 0.1, dtype)
    layer.b = rng.standard_normal(out_ch).astype(dtype)
    x = rng.choice([-0.0, 0.0, 1.0], (batch, length, in_ch)) * rng.standard_normal(
        (batch, length, in_ch)
    )
    x = x.astype(dtype)
    out = layer.forward(x, mode)
    ref, _ = reference_conv_forward(layer, x)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "shape, grad_dtype",
    [pytest.param(s, np.float64, id=f"shape{i}") for i, s in enumerate(REAL_CONV_SHAPES)]
    + [pytest.param(s, np.float32, id=f"shape{i}-f32-grad") for i, s in enumerate(REAL_CONV_SHAPES)],
)
def test_conv_backward_matches_einsum_reference(shape, grad_dtype):
    """float32 layer under a float64 output gradient, and under a float32
    one as in stage-1 training. The input gradient keeps its bytes; the
    weight gradient is one GEMM in the gradient's dtype instead of the
    einsum, the same products summed in another order."""
    batch, in_ch, out_ch, length = shape
    rng = np.random.default_rng(27)
    layer = nn.Conv1d(in_ch, out_ch, rng, 0.1, np.float32)
    x = rng.standard_normal((batch, length, in_ch)).astype(np.float32)
    dout = rng.standard_normal((batch, length, out_ch)).astype(grad_dtype)
    layer.forward(x, "train")
    dx = layer.backward(dout)
    _, cols = reference_conv_forward(layer, x)
    ref_dx, ref_dW = reference_conv_backward(layer, cols, dout)
    assert dx.dtype == ref_dx.dtype and dx.tobytes() == ref_dx.tobytes()
    assert layer.dW.dtype == ref_dW.dtype == grad_dtype
    if grad_dtype == np.float64:
        assert np.max(np.abs(layer.dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))
    else:
        # float32 rounding: against the exact (float64) sums, each entry
        # within 16 ulps of float32 of the sum of its products' magnitudes
        _, exact = reference_conv_backward(layer, cols.astype(np.float64), dout.astype(np.float64))
        _, bound = reference_conv_backward(
            layer, np.abs(cols.astype(np.float64)), np.abs(dout.astype(np.float64))
        )
        tol = 16 * np.finfo(np.float32).eps * bound
        assert np.all(np.abs(layer.dW - exact) <= tol)
        assert np.all(np.abs(ref_dW - exact) <= tol)


def test_conv_eval_forward_peak_memory():
    """An eval forward holds only the im2col buffer and the output: no padded
    copy of the input and no second output array for the bias add."""
    batch, in_ch, out_ch, length = 512, 32, 32, 95
    layer = nn.Conv1d(in_ch, out_ch, np.random.default_rng(28), 0.1, np.float32)
    x = np.random.default_rng(29).standard_normal((batch, length, in_ch)).astype(np.float32)
    cols_bytes = batch * length * in_ch * 3 * 4
    out_bytes = batch * length * out_ch * 4
    slack = 1 << 20
    out, peak = traced_peak(layer.forward, x, "eval")
    assert out.nbytes == out_bytes
    assert peak <= cols_bytes + out_bytes + slack, (peak, cols_bytes, out_bytes)


def test_conv_backward_peak_memory():
    """A backward holds the rebuilt im2col matrix and the input gradient's
    im2col matrix, each the same size, one at a time: dcols and the padded
    input gradient, never the rebuilt matrix beside them."""
    batch, in_ch, out_ch, length = REAL_CONV_SHAPES[-1]
    layer = nn.Conv1d(in_ch, out_ch, np.random.default_rng(30), 0.1, np.float32)
    x = np.random.default_rng(31).standard_normal((batch, length, in_ch)).astype(np.float32)
    dout = np.random.default_rng(32).standard_normal((batch, length, out_ch)).astype(np.float32)
    layer.forward(x, "train")
    cols_bytes = batch * length * in_ch * 3 * 4
    dx_bytes = batch * (length + 2) * in_ch * 4
    slack = 256 << 10
    _, peak = traced_peak(layer.backward, dout)
    assert peak <= cols_bytes + dx_bytes + slack, (peak, cols_bytes, dx_bytes)


def _batch_arrays(obj, batch):
    """Names of the arrays reachable from a layer whose leading axis is batch."""
    found = []
    for name, value in vars(obj).items():
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, np.ndarray) and item.ndim and item.shape[0] == batch:
                found.append(name)
    return found


def test_eval_forward_leaves_no_batch_state():
    model = nn.CnnModel(input_len=12, in_channels=3, n_outputs=2, seed=9)
    batch = 7  # no parameter has a leading axis of 7
    x = np.random.default_rng(23).standard_normal((batch, 12, 3)).astype(np.float32)
    layers = [layer for _, layer in model._feature_layers] + [model.head]
    model.forward(x, "train")
    assert any(_batch_arrays(layer, batch) for layer in layers)
    model.forward(x, "eval")
    for layer in layers:
        assert _batch_arrays(layer, batch) == [], type(layer).__name__


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda: nn.Conv1d(3, 4, np.random.default_rng(1), 0.1, np.float64), (2, 8, 3)),
        (lambda: nn.BatchNorm(3, dtype=np.float64), (4, 8, 3)),
        (lambda: nn.LeakyRelu(), (2, 8, 3)),
        (lambda: nn.MaxPool1d(), (2, 8, 3)),
        (lambda: nn.Dense(5, 4, np.random.default_rng(2), np.float64), (3, 5)),
        (lambda: nn.Flatten(), (2, 8, 3)),
    ],
    ids=["conv", "batchnorm", "leaky_relu", "maxpool", "dense", "flatten"],
)
def test_backward_after_eval_forward_raises(make, shape):
    layer = make()
    x = np.random.default_rng(24).standard_normal(shape)
    out = layer.forward(x, "train")
    layer.backward(np.ones_like(out))
    layer.forward(x, "eval")
    with pytest.raises(RuntimeError, match="train-mode forward"):
        layer.backward(np.ones_like(out))


def test_model_backward_after_eval_forward_raises():
    model = nn.CnnModel(input_len=12, in_channels=3, n_outputs=2, seed=10)
    x = np.random.default_rng(25).standard_normal((4, 12, 3)).astype(np.float32)
    model.forward(x, "train")
    pred = model.forward(x, "eval")
    with pytest.raises(RuntimeError, match="train-mode forward"):
        model.backward(np.ones_like(pred))


def test_model_backward_keeps_every_parameter_gradient():
    """``CnnModel.backward`` runs every layer's own backward, conv1's
    included; every parameter gradient keeps the bytes of that walk done
    by hand, layer by layer."""
    model = nn.CnnModel(input_len=101, in_channels=6, n_outputs=2, seed=11)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((64, 101, 6)).astype(np.float32)
    _, dpred = nn.mse_loss(model.forward(x, "train"), rng.standard_normal((64, 2)))
    grad = model.head.backward(dpred)
    for _, layer in reversed(model._feature_layers):
        grad = layer.backward(grad)
    full = {name: g.copy() for name, g in model.gradients().items()}
    model.backward(dpred)
    for name, g in model.gradients().items():
        assert g.dtype == full[name].dtype and g.tobytes() == full[name].tobytes(), name


def whole_batch_features(model, x):
    """Every feature layer's own eval forward over the whole batch at once:
    batch norm after the conv or dense GEMM, and dropout as the identity."""
    out = x
    for _, layer in model._feature_layers:
        out = layer.forward(out, "eval")
    return out


# Input length of each matrix mode at 1024 Hz: rfft bins, window samples.
MODE_LENGTHS = {"spectral": dsp.N_FFT // 2 + 1, "temporal": dsp.WINDOW_SAMPLES}


def eval_model(input_len):
    """A model whose batch norms hold running statistics other than 0 and 1."""
    model = nn.CnnModel(input_len=input_len, in_channels=6, n_outputs=3, seed=12)
    rng = np.random.default_rng(31)
    for _ in range(3):
        model.forward(rng.standard_normal((16, input_len, 6)).astype(np.float32), "train")
    return model


@settings(max_examples=12, deadline=None)
@given(
    windows=st.integers(1, 3 * nn.EVAL_CHUNK + 7),
    mode=st.sampled_from(sorted(MODE_LENGTHS)),
)
@example(windows=0, mode="spectral")
@example(windows=1, mode="spectral")
@example(windows=nn.EVAL_CHUNK - 1, mode="spectral")
@example(windows=nn.EVAL_CHUNK + 1, mode="temporal")
@example(windows=2 * nn.EVAL_CHUNK, mode="temporal")
@example(windows=3 * nn.EVAL_CHUNK + 7, mode="spectral")
# a short last chunk: fc1 over 1-3 rows takes another GEMM kernel
@example(windows=nn.EVAL_CHUNK + 1, mode="spectral")
@example(windows=nn.EVAL_CHUNK + 3, mode="spectral")
@example(windows=2 * nn.EVAL_CHUNK + 1, mode="temporal")
def test_chunked_eval_matches_whole_batch_bytes(windows, mode):
    """The chunked eval pass equals one pass of the same folded code over the
    whole batch, byte for byte; test_folded_eval_matches_layer_by_layer
    compares the fold with every layer's own eval forward."""
    model = eval_model(MODE_LENGTHS[mode])
    x = np.random.default_rng(windows).standard_normal((windows, MODE_LENGTHS[mode], 6))
    x = np.abs(x).astype(np.float32)
    feats = model.extract(x)
    pred = model.forward(x, "eval")
    with mock.patch.object(nn, "EVAL_CHUNK", windows + 1):
        ref = model.extract(x)
        ref_pred = model.forward(x, "eval")
    assert feats.dtype == ref.dtype and feats.tobytes() == ref.tobytes()
    assert pred.dtype == ref_pred.dtype and pred.tobytes() == ref_pred.tobytes()


def with_signed_batch_norms(model, seed):
    """Give every batch norm of ``model`` gammas of both signs and magnitudes
    other than 1, and betas other than 0."""
    rng = np.random.default_rng(seed)
    for _, layer in model._feature_layers:
        if isinstance(layer, nn.BatchNorm):
            size = layer.gamma.shape
            sign = np.where(np.arange(size[0]) % 2 == 0, -1.0, 1.0)
            layer.gamma = (sign * rng.uniform(0.5, 2.0, size)).astype(np.float32)
            layer.beta = rng.normal(0.0, 0.5, size).astype(np.float32)
    return model


def float64_copy(model):
    """``model`` with every stored array cast to float64."""
    copy = nn.CnnModel(model.input_len, model.in_channels, model.n_outputs, dtype=np.float64)
    layers = dict(copy._array_layers())
    for key, value in model.state_arrays().items():
        name, attr = key.split(".")
        setattr(layers[name], attr, value.astype(np.float64))
    return copy


@pytest.mark.parametrize("mode", sorted(MODE_LENGTHS))
def test_folded_eval_matches_layer_by_layer(mode):
    """Eval mode folds each batch norm into the GEMM before it. In float64
    the fold equals every layer's own eval forward to 1e-10; in float32 it
    moves rounding only, so its largest error against the float64 pass is at
    most twice that of the float32 layer-by-layer pass."""
    model = with_signed_batch_norms(eval_model(MODE_LENGTHS[mode]), seed=34)
    exact = float64_copy(model)
    x = np.random.default_rng(35).standard_normal((300, MODE_LENGTHS[mode], 6))
    x = np.abs(x).astype(np.float32)
    truth = whole_batch_features(exact, x)
    np.testing.assert_allclose(exact.extract(x), truth, rtol=1e-10, atol=1e-10)
    ref = whole_batch_features(model, x)
    feats = model.extract(x)
    assert feats.dtype == ref.dtype == np.float32
    assert np.abs(feats - truth).max() <= 2 * np.abs(ref - truth).max()
    truth_pred = exact.head.forward(truth, "eval")
    pred, ref_pred = model.forward(x, "eval"), model.head.forward(ref, "eval")
    assert np.abs(pred - truth_pred).max() <= 2 * np.abs(ref_pred - truth_pred).max()


def test_eval_pass_calls_no_batch_norm_or_dropout(monkeypatch):
    """The folds stand in for every batch norm in eval mode, and dropout is
    skipped; train mode still runs both, six of each."""
    calls = Counter()
    for cls in (nn.BatchNorm, nn.Dropout):

        def counted(self, x, mode, forward=cls.forward, name=cls.__name__):
            calls[name, mode] += 1
            return forward(self, x, mode)

        monkeypatch.setattr(cls, "forward", counted)
    model = eval_model(MODE_LENGTHS["spectral"])
    x = np.random.default_rng(36).standard_normal((2 * nn.EVAL_CHUNK + 3, 101, 6))
    x = x.astype(np.float32)
    calls.clear()
    model.extract(x)
    model.forward(x, "eval")
    assert calls == Counter()
    model.forward(x[:16], "train")
    assert calls == {("BatchNorm", "train"): 6, ("Dropout", "train"): 6}


def test_extract_peak_memory_is_one_chunk_over_the_fc1_buffer():
    """Eval mode runs the conv trunk and fc block 1 about EVAL_CHUNK windows
    at a time, so the peak is the [M x 100] fc1 buffer plus one chunk's
    largest conv: conv4's im2col buffer, input and output."""
    model = nn.CnnModel(input_len=101, in_channels=6, n_outputs=1, seed=13)
    windows = 2000
    x = np.random.default_rng(32).standard_normal((windows, 101, 6)).astype(np.float32)
    fc1_bytes = windows * nn.FC_SIZES[0] * 4
    length, channels = model.block_lengths()[3], nn.CONV_CHANNELS[3]
    chunk_bytes = nn.EVAL_CHUNK * length * channels * (3 + 1 + 1) * 4
    slack = 2 << 20
    feats, peak = traced_peak(model.extract, x)
    assert feats.shape == (windows, nn.FEATURE_DIM)
    assert peak <= fc1_bytes + chunk_bytes + slack, (peak, fc1_bytes, chunk_bytes)


@pytest.mark.parametrize("shape", [(4, 2), (2, 2, 2)])
def test_batchnorm_running_stats_follow_momentum_one_tenth(shape):
    """One train-mode forward moves each running statistic a tenth of the way
    to the batch's: per channel, mean [2, 4] and population variance [1, 4]
    over every axis but the last."""
    x = np.array([[1.0, 2.0], [3.0, 6.0], [3.0, 6.0], [1.0, 2.0]]).reshape(shape)
    layer = nn.BatchNorm(2, np.float64)
    layer.running_mean = np.array([10.0, -10.0])
    layer.running_var = np.array([2.0, 3.0])
    layer.forward(x, "train")
    np.testing.assert_allclose(
        layer.running_mean, [0.9 * 10.0 + 0.1 * 2.0, 0.9 * -10.0 + 0.1 * 4.0], rtol=1e-12
    )
    np.testing.assert_allclose(
        layer.running_var, [0.9 * 2.0 + 0.1 * 1.0, 0.9 * 3.0 + 0.1 * 4.0], rtol=1e-12
    )


class ReferenceBatchNorm(nn.BatchNorm):
    """The batch norm this layer replaced: reductions over every axis but the
    last, ``x.var`` for the variance, and one expression per output."""

    def forward(self, x, mode):
        axes = tuple(range(x.ndim - 1))
        if mode == "train":
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1.0 - nn.BN_MOMENTUM) * self.running_mean + nn.BN_MOMENTUM * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                (1.0 - nn.BN_MOMENTUM) * self.running_var + nn.BN_MOMENTUM * var
            ).astype(self.running_var.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, axes) if mode == "train" else None
        return self.gamma * xhat + self.beta

    def backward(self, dout):
        xhat, inv_std, axes = self._cache
        self.dgamma = (dout * xhat).sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        dxhat = dout * self.gamma
        m = np.prod([dout.shape[a] for a in axes])
        return (
            inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes))
        )


def reference_leaky_forward(x, slope):
    """The leaky ReLU this layer replaced: a select on x >= 0."""
    positive = x >= 0
    return np.where(positive, x, slope * x), positive


def reference_leaky_backward(positive, dout, slope):
    return np.where(positive, dout, slope * dout)


# Element-wise layer inputs in training: the conv outputs of
# REAL_CONV_SHAPES as [B x L x C], then fc1's and fc2's outputs.
ELEMENTWISE_SHAPES = [(b, length, out_ch) for b, _, out_ch, length in REAL_CONV_SHAPES] + [
    (128, 100),
    (128, 20),
]
# (layer and input dtype, upstream gradient dtype): training's float32
# layers under a float64 loss gradient, and a float64 layer.
LAYER_GRAD_DTYPES = [(np.float32, np.float64), (np.float64, np.float64)]


def zeros_and_ties(rng, shape, dtype):
    """Values with many ±0 entries and repeats, from a few levels."""
    levels = np.array([-0.0, 0.0, 0.5, -1.25, 3.0])
    x = rng.choice(levels, shape) * rng.choice([1.0, 1.0, 2.0], shape)
    return np.where(rng.random(shape) < 0.5, x, rng.standard_normal(shape)).astype(dtype)


def assert_same_bytes(got, ref, name):
    assert got.dtype == ref.dtype and got.shape == ref.shape, name
    assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("dtypes", LAYER_GRAD_DTYPES, ids=["f32-layer-f64-grad", "f64"])
@pytest.mark.parametrize("shape", ELEMENTWISE_SHAPES)
def test_batchnorm_matches_reference_bytes(shape, dtypes):
    dtype, grad_dtype = dtypes
    rng = np.random.default_rng(40)
    channels = shape[-1]
    layer, ref = nn.BatchNorm(channels, dtype), ReferenceBatchNorm(channels, dtype)
    for attr in ("gamma", "beta", "running_mean"):
        value = rng.standard_normal(channels).astype(dtype)
        setattr(layer, attr, value.copy())
        setattr(ref, attr, value.copy())
    layer.running_var = ref.running_var = rng.uniform(0.5, 2.0, channels).astype(dtype)
    x = zeros_and_ties(rng, shape, dtype)
    dout = zeros_and_ties(rng, shape, grad_dtype)

    assert_same_bytes(layer.forward(x, "eval"), ref.forward(x, "eval"), "eval out")
    assert_same_bytes(layer.forward(x, "train"), ref.forward(x, "train"), "train out")
    for name in ("running_mean", "running_var"):
        assert_same_bytes(getattr(layer, name), getattr(ref, name), name)
    assert_same_bytes(layer.backward(dout), ref.backward(dout), "dx")
    for name in ("dgamma", "dbeta"):
        assert_same_bytes(getattr(layer, name), getattr(ref, name), name)


@pytest.mark.parametrize("slope", [0.1, 0.3, 0.01])
@pytest.mark.parametrize("dtypes", LAYER_GRAD_DTYPES, ids=["f32-layer-f64-grad", "f64"])
@pytest.mark.parametrize("shape", ELEMENTWISE_SHAPES)
def test_leaky_relu_matches_where_reference_bytes(shape, dtypes, slope):
    dtype, grad_dtype = dtypes
    rng = np.random.default_rng(41)
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45])
    x = zeros_and_ties(rng, shape, dtype)
    x.ravel()[: len(specials)] = specials
    dout = zeros_and_ties(rng, shape, grad_dtype)
    dout.ravel()[-len(specials) :] = specials
    layer = nn.LeakyRelu(slope)
    ref_out, positive = reference_leaky_forward(x, slope)
    assert_same_bytes(layer.forward(x, "eval"), ref_out, "eval out")
    assert_same_bytes(layer.forward(x, "train"), ref_out, "train out")
    assert_same_bytes(layer.backward(dout), reference_leaky_backward(positive, dout, slope), "dx")


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(0.0, 1.0),
    dtype=st.sampled_from([np.float32, np.float64]),
)
@example(slope=0.0, dtype=np.float32)
@example(slope=1.0, dtype=np.float64)
@example(slope=2.0**-30, dtype=np.float32)
def test_leaky_relu_backward_factor_is_exact_for_any_slope(slope, dtype):
    x = np.array([-2.0, -0.0, 0.0, 1.0, np.nan, -np.inf], dtype=dtype)
    dout = np.random.default_rng(42).standard_normal(x.shape).astype(dtype)
    layer = nn.LeakyRelu(slope)
    with np.errstate(invalid="ignore"):  # slope 0 times -inf
        ref_out, positive = reference_leaky_forward(x, slope)
        assert_same_bytes(layer.forward(x, "train"), ref_out, "out")
    assert_same_bytes(layer.backward(dout), reference_leaky_backward(positive, dout, slope), "dx")


@pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
def test_leaky_relu_refuses_a_slope_outside_unit_interval(slope):
    with pytest.raises(ValueError, match="slope"):
        nn.LeakyRelu(slope)


@pytest.mark.parametrize("grad_dtype", [np.float64, np.float32])
def test_elementwise_layers_peak_memory(grad_dtype):
    """Batch norm's backward holds two full-size buffers in the gradient's
    dtype, one of them the returned gradient; the eval forwards of batch norm
    and leaky ReLU hold only their output."""
    shape = (128, 97, 32)
    rng = np.random.default_rng(43)
    x = rng.standard_normal(shape).astype(np.float32)
    dout = rng.standard_normal(shape).astype(grad_dtype)
    slack = 256 << 10
    bn, act = nn.BatchNorm(shape[-1], np.float32), nn.LeakyRelu()
    bn.forward(x, "train")
    for name, run, budget in [
        ("bn backward", lambda: bn.backward(dout), 2 * dout.nbytes),
        ("bn eval", lambda: bn.forward(x, "eval"), x.nbytes),
        ("leaky eval", lambda: act.forward(x, "eval"), x.nbytes),
    ]:
        _, peak = traced_peak(run)
        assert peak <= budget + slack, (name, peak, budget)


def _cached_arrays(layer):
    cache = layer._cache
    items = cache if isinstance(cache, tuple) else (cache,)
    return [item for item in items if isinstance(item, np.ndarray) and item.ndim]


def test_train_forward_caches_only_what_backward_needs():
    """After a train-mode forward at the recipe's batch, the layers hold each
    conv's input (not its im2col matrix), batch norm's x-hat, one byte per
    element for every leaky ReLU, pool and dropout, and each dense input.
    No two caches share a buffer, so their bytes add up."""
    batch, input_len, in_ch = 128, 101, 6
    model = nn.CnnModel(input_len, in_ch, n_outputs=1, seed=14)
    x = np.random.default_rng(33).standard_normal((batch, input_len, in_ch)).astype(np.float32)
    model.forward(x, "train")
    itemsize = x.itemsize
    budget = 0
    for length, prev_ch, out_ch in zip(
        model.block_lengths(), (in_ch, *nn.CONV_CHANNELS), nn.CONV_CHANNELS
    ):
        conv_out = batch * length * out_ch
        pooled = batch * (length - (nn.MaxPool1d.SIZE - 1)) * out_ch
        budget += batch * length * prev_ch * itemsize  # conv input
        budget += conv_out * itemsize  # batch norm x-hat
        budget += conv_out + 2 * pooled  # leaky ReLU, pool and dropout bytes
    for in_dim, width in zip((model.flat_dim, *nn.FC_SIZES), nn.FC_SIZES):
        budget += batch * in_dim * itemsize  # dense input
        budget += batch * width * itemsize  # batch norm x-hat
        budget += 2 * batch * width  # leaky ReLU and dropout bytes
    budget += batch * nn.FEATURE_DIM * itemsize  # head input
    slack = 4 << 10  # batch norm's inv_std vectors
    layers = [layer for _, layer in model._feature_layers] + [model.head]
    held = sum(a.nbytes for layer in layers for a in _cached_arrays(layer))
    assert held <= budget + slack, (held, budget)


class ReferenceConv1d(nn.Conv1d):
    """The conv this layer replaced in training: its train forward cached
    the im2col matrix that backward reads."""

    def forward(self, x, mode, weights=None):
        batch, length, in_ch = x.shape
        cols = np.empty((batch, length, in_ch, 3), dtype=x.dtype)
        cols[:, 0, :, 0] = 0
        cols[:, 1:, :, 0] = x[:, :-1, :]
        cols[:, :, :, 1] = x
        cols[:, :-1, :, 2] = x[:, 1:, :]
        cols[:, -1, :, 2] = 0
        cols = cols.reshape(batch, length, in_ch * 3)
        self._cache = cols if mode == "train" else None
        w_mat, b = weights or (self.w_mat, self.b)
        out = cols @ w_mat
        out += b
        return out

    def backward(self, dout):
        cols = self._cache
        batch, length, out_ch = dout.shape
        in_ch = self.W.shape[1]
        d_wmat = cols.reshape(-1, in_ch * 3).T @ dout.reshape(-1, out_ch)
        self.dW = d_wmat.reshape(in_ch, 3, out_ch).transpose(2, 0, 1)
        self.db = dout.sum(axis=(0, 1))
        dcols = (dout @ self.w_mat.T).reshape(batch, length, in_ch, 3)
        dpadded = np.zeros((batch, length + 2, in_ch), dtype=dout.dtype)
        for tap in range(3):
            dpadded[:, tap : tap + length, :] += dcols[:, :, :, tap]
        return dpadded[:, 1 : 1 + length, :]


class ReferenceMaxPool1d(nn.MaxPool1d):
    """The pool this layer replaced in training: one first-max mask per tap."""

    def forward(self, x, mode):
        out_len = x.shape[1] - (self.SIZE - 1)
        a, b, c = (x[:, i : i + out_len, :] for i in range(self.SIZE))
        out = np.maximum(np.maximum(a, b), c)
        m0 = a == out
        m1 = (b == out) & ~m0
        self._cache = (m0, m1, ~(m0 | m1)) if mode == "train" else None
        return out

    def backward(self, dout):
        masks = self._cache
        batch, out_len, channels = dout.shape
        dx = np.zeros((batch, out_len + self.SIZE - 1, channels), dtype=dout.dtype)
        for tap in reversed(range(self.SIZE)):
            dx[:, tap : tap + out_len, :] += dout * masks[tap]
        return dx


class ReferenceDropout(nn.Dropout):
    """The dropout this layer replaced: a float mask of 0 and 1/(1-rate) in
    the input's dtype."""

    def forward(self, x, mode):
        if mode != "train" or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        self._cache = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._cache

    def backward(self, dout):
        return dout if self._cache is None else dout * self._cache


REFERENCE_LAYERS = {
    nn.Conv1d: ReferenceConv1d,
    nn.MaxPool1d: ReferenceMaxPool1d,
    nn.Dropout: ReferenceDropout,
}


def model_arrays(model):
    """Every parameter, gradient and running statistic of every layer."""
    names = ("W", "b", "gamma", "beta", "running_mean", "running_var")
    names += tuple("d" + n for n in names[:4])
    return {
        f"{layer_name}.{name}": getattr(layer, name)
        for layer_name, layer in [*model._feature_layers, ("head", model.head)]
        for name in names
        if hasattr(layer, name)
    }


@pytest.mark.parametrize("n_outputs", [1, 3], ids=["P1", "P4"])
def test_train_step_matches_reference_layer_bytes(n_outputs):
    """Two train steps (train forward, mse_loss, backward) at the recipe's
    shapes give the outputs, gradients and running statistics of the same
    model built from the layers that cached im2col matrices, float dropout
    masks and three pool masks, byte for byte. The inputs hold ±0 and ties."""
    models = [nn.CnnModel(101, 6, n_outputs, seed=15) for _ in range(2)]
    for _, layer in models[1]._feature_layers:
        if type(layer) in REFERENCE_LAYERS:
            layer.__class__ = REFERENCE_LAYERS[type(layer)]
    for step in range(2):
        rng = np.random.default_rng(34 + step)
        x = zeros_and_ties(rng, (128, 101, 6), np.float32)
        target = rng.standard_normal((128, n_outputs)).astype(np.float32)
        preds = []
        for model in models:
            pred = model.forward(x, "train")
            model.backward(nn.mse_loss(pred, target)[1])
            preds.append(pred)
        assert_same_bytes(*preds, f"step {step} pred")
        got, ref = (model_arrays(model) for model in models)
        assert got.keys() == ref.keys()
        for name in ref:
            assert_same_bytes(got[name], ref[name], f"step {step} {name}")


@pytest.mark.parametrize(
    "dtypes", [*LAYER_GRAD_DTYPES, (np.float32, np.float32), (np.float64, np.float32)]
)
def test_dropout_matches_float_mask_reference_bytes(dtypes):
    """The boolean mask and scale give the float mask's bytes in both passes
    and its dtype promotion, at ±0, NaN, ±inf and a value that the scale
    overflows."""
    dtype, grad_dtype = dtypes
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    x = np.random.default_rng(35).standard_normal((64, 40)).astype(dtype)
    x[:, : len(specials)] = specials
    x[:, len(specials)] = -np.finfo(dtype).max
    dout = np.random.default_rng(36).standard_normal(x.shape).astype(grad_dtype)
    dout[:, -len(specials) :] = specials
    layer = nn.Dropout(0.3, np.random.default_rng(37))
    ref = ReferenceDropout(0.3, np.random.default_rng(37))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bytes(layer.forward(x, "train"), ref.forward(x, "train"), "out")
        assert_same_bytes(layer.backward(dout), ref.backward(dout), "dx")
