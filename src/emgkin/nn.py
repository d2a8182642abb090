"""Layers and the deep-feature CNN, with hand-written backward passes.

No autodiff: a train-mode forward caches what the layer's backward pass
needs in the layer's ``_cache``, and every analytic gradient is checked
against central finite differences in the test suite. An eval-mode forward
caches nothing and clears what an earlier train-mode forward left (the
model's eval pass clears every layer's), so inference holds no per-batch
state. A backward pass needs a train-mode forward first, or it raises
RuntimeError; only ``Dropout``'s is the identity after an eval-mode forward,
as the LSTM's eval-mode BPTT needs. Data layout is channels-last: conv
stages see [B x L x C], fully connected stages see [B x F].

A train-mode cache holds what backward cannot rebuild cheaply (Chen et al.,
arXiv:1604.06174): conv and dense keep their input, and conv's backward
rebuilds the im2col matrix, three times the input's size, with the
forward's ``_im2col``; batch norm keeps x-hat; leaky ReLU keeps the boolean
x >= 0, pool one ``int8`` first-max tap per output, and dropout its boolean
keep mask and scale. After a train forward of 128 [101 x 6] matrices the
caches hold 13.5 MB, against 26.3 MB when conv kept its im2col matrix,
dropout a float32 mask and pool three boolean masks, and the backward
that follows peaks at 22.2 MB under ``tracemalloc``, against 35.4 MB.
Every output and gradient keeps its bytes.

The CNN is four conv blocks (conv k3/pad1/stride1 -> batch norm -> leaky
ReLU -> max pool 3/stride1 -> dropout) with channel plan in->16->16->32->32
(``CONV_CHANNELS``), then two FC blocks (``FC_SIZES``: 100 then 20 units,
each fc -> batch norm -> leaky ReLU -> dropout), then a linear regression
head. The last FC block's output is the ``FEATURE_DIM`` = ``FC_SIZES[-1]``
= 20 deep feature handed to the sequence regressor. These, the pool size
``MaxPool1d.SIZE`` = 3, the leaky slope ``DEFAULT_LEAKY_SLOPE`` = 0.1 and the
dropout rate ``DEFAULT_DROPOUT`` = 0.3 are the reproduced architecture's.
``CnnModel`` builds every layer from these constants and takes none of them
as an argument; only the layer classes take a slope or rate, so a test can
build one layer on its own. Batch norm's ``BN_MOMENTUM`` = 0.1 (running-stat
update weight) and ``BN_EPS`` = 1e-5 (variance guard) are the customary
values; the paper gives neither.

Eval-mode batch norm is a per-channel affine map, so the model's eval pass
folds each one into the conv or dense GEMM before it (Jacob et al.,
arXiv:1712.05877): per channel, scale = gamma / sqrt(running_var + BN_EPS),
the weights become W * scale and the bias (b - running_mean) * scale + beta.
The folds are computed at every eval pass from the current parameters, so
none can go stale. A conv block is then im2col -> GEMM -> bias -> leaky
ReLU -> pool; no batch norm or dropout runs. The fold reorders float32
rounding only: in float64 it equals the layer-by-layer pass to about 1e-14.

Eval mode runs the four conv blocks, the flatten and the first FC block
(fc1 with its fold, leaky ReLU and the dropout identity) over chunks of
about ``EVAL_CHUNK`` = 128 windows, into one [M x 100] buffer, so the
im2col and flat buffers grow with the chunk, not with the recording:
conv4's im2col buffer, the largest, is 4.7 MB at the spectral length. The
conv GEMMs run per window ([L x 3*Cin] @ [3*Cin x Cout]), so their bytes do
not depend on the chunk. fc1's GEMM against its [flat_dim x 100] weights
kept each row's bytes at every batch of rows tried except 1, 2 and 3, where
OpenBLAS takes another kernel, so the chunks are balanced
(``eval_chunk_bounds``): max(1, round(M / EVAL_CHUNK)) chunks whose sizes
differ by at most one row, so none is under EVAL_CHUNK // 2 rows unless it
is the whole batch; plain steps of EVAL_CHUNK rows left a 1-row last chunk
at M = EVAL_CHUNK + 1. ``CnnModel.extract_chunks`` is the one chunk loop:
it takes the chunks' inputs in order, so ``training.predict_heads`` makes
each chunk's matrices only when the loop reaches it, and ``extract(x)``
passes slices of x. The tests compare the chunked output with one
whole-batch pass of the same code byte for byte.
fc2 and the head then run once over the whole buffer, because fc2's
[M x 100] @ [100 x 20] product changed bytes with M at every M tried from 1
to 390, so chunking it would change the outputs. Train mode runs every
layer over the whole batch, as batch norm's batch statistics need.

The element-wise layers make few full-size passes and temporaries. Batch
norm works on an [N x C] view of its input (``x.reshape(-1, C)``, N = B*L
for a conv map): one mean, and a centred copy that gives the variance and
is then scaled in place into x-hat. The backward works in two full-size
buffers. Its column sums, dgamma = sum(dout * x-hat) and dbeta = sum(dout),
are products with a ones vector (GEMVs: ``sum(axis=0)`` over [12,928 x 16]
took ten times an elementwise pass), and gamma is factored out so that
dx = gamma * inv_std / m * (m * dout - dbeta - x-hat * dgamma) reuses them.
That reorders float32 rounding, so the backward is held to its float64 twin
(``tests/test_kernel_accuracy.py``), where it is as accurate as the
textbook order it replaced; the forward keeps its bytes. Leaky ReLU is
``max(x, slope * x)``, and its backward scales the gradient by a factor that
is exactly 1 or slope. Neither layer calls ``np.where``; leaky ReLU and
batch norm's forward keep the bytes of the forms they replaced, which the
tests hold as references.

Dtypes in training: parameters, caches, optimizer state and gradients are
all float32. ``training.LabelScaler`` returns float64 targets, and
``training._fit``, the epoch loop of both stages, casts them once to the
parameters' dtype, so ``mse_loss`` returns a float32 gradient
and the backward passes of this CNN and of the LSTM run in float32 from the
loss down to conv1 and through every BPTT step. Each layer's backward keeps
the upstream gradient's dtype (batch norm holds its count in that dtype), so
the finite-difference tests still run the same code in float64.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Literal

import numpy as np

from .errors import DegenerateBatchError, DimensionError

CONV_CHANNELS = (16, 16, 32, 32)
FC_SIZES = (100, 20)
FEATURE_DIM = FC_SIZES[-1]
DEFAULT_LEAKY_SLOPE = 0.1
DEFAULT_DROPOUT = 0.3
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
EVAL_CHUNK = 128

Mode = Literal["train", "eval"]


def eval_chunk_bounds(n: int) -> list[tuple[int, int]]:
    """The eval pass's [start, stop) chunks of a batch of ``n`` rows:
    max(1, round(n / EVAL_CHUNK)) chunks whose sizes differ by at most one
    row, so none is under EVAL_CHUNK // 2 rows unless it is the whole batch
    (a GEMM of 1-3 rows changes fc1's bytes), and none for an empty batch,
    as flatten cannot reshape an empty chunk."""
    n_chunks = max(1, round(n / EVAL_CHUNK)) if n else 0
    bounds = np.linspace(0, n, n_chunks + 1, dtype=int).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def he_leaky_std(fan_in: int, slope: float) -> float:
    """Scaled-normal init std for layers feeding a leaky ReLU."""
    return float(np.sqrt(2.0 / (fan_in * (1.0 + slope * slope))))


def _train_cache(cache):
    """What the last train-mode forward saved for backward; eval saves None."""
    if cache is None:
        raise RuntimeError("backward needs a train-mode forward first")
    return cache


def _im2col(x: np.ndarray) -> np.ndarray:
    """The [B x L x 3*Cin] im2col matrix of a kernel-3, pad-1 conv input
    [B x L x Cin], built straight from x: tap i of position l reads
    x[l + i - 1], and the two zeroed edge strips stand in for the padding
    at both ends."""
    batch, length, in_ch = x.shape
    cols = np.empty((batch, length, in_ch, 3), dtype=x.dtype)
    cols[:, 0, :, 0] = 0
    cols[:, 1:, :, 0] = x[:, :-1, :]
    cols[:, :, :, 1] = x
    cols[:, :-1, :, 2] = x[:, 1:, :]
    cols[:, -1, :, 2] = 0
    return cols.reshape(batch, length, in_ch * 3)


class Conv1d:
    """1-D convolution along the length axis, kernel 3, pad 1, stride 1.

    Train mode caches the input, as ``Dense`` does, not its im2col matrix,
    which is three times its size: backward rebuilds the matrix with the
    forward's ``_im2col``, so the weight gradient keeps its bytes.
    """

    def __init__(self, in_channels, out_channels, rng, slope, dtype):
        std = he_leaky_std(in_channels * 3, slope)
        self.W = rng.normal(0.0, std, (out_channels, in_channels, 3)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dW = None
        self.db = None
        self._cache = None

    @property
    def w_mat(self) -> np.ndarray:
        """W as the [3*Cin x Cout] matrix that multiplies an im2col row."""
        out_ch, in_ch, _ = self.W.shape
        return self.W.transpose(1, 2, 0).reshape(in_ch * 3, out_ch)

    def forward(self, x: np.ndarray, mode: Mode, weights=None) -> np.ndarray:
        """``weights``, a (w_mat, b) pair, stands in for the layer's own in
        eval mode: ``CnnModel`` passes them with a batch norm folded in."""
        if x.shape[2] != self.W.shape[1]:
            raise DimensionError(
                f"conv expects {self.W.shape[1]} input channels, got {x.shape[2]}"
            )
        self._cache = x if mode == "train" else None
        # One GEMM per window. One 2-D GEMM over all windows gives the same
        # bytes and made inference about 8 % faster, but OpenBLAS runs it on
        # two threads, and every benchmark workload's peak RSS rose 2-10 MB.
        w_mat, b = weights or (self.w_mat, self.b)
        out = _im2col(x) @ w_mat
        out += b
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        batch, length, out_ch = dout.shape
        in_ch = self.W.shape[1]
        # the rebuilt im2col matrix is a temporary: it is freed before
        # dcols, a matrix of its size, is made
        d_wmat = (
            _im2col(_train_cache(self._cache)).reshape(-1, in_ch * 3).T
            @ dout.reshape(-1, out_ch)
        )
        self.dW = d_wmat.reshape(in_ch, 3, out_ch).transpose(2, 0, 1)
        self.db = dout.sum(axis=(0, 1))
        # per window, as in the forward; one flat GEMM would also change a
        # float64 gradient's bytes at conv1's 18 im2col columns
        dcols = (dout @ self.w_mat.T).reshape(batch, length, in_ch, 3)
        dpadded = np.zeros((batch, length + 2, in_ch), dtype=dout.dtype)
        for tap in range(3):
            dpadded[:, tap : tap + length, :] += dcols[:, :, :, tap]
        return dpadded[:, 1 : 1 + length, :]


class BatchNorm:
    """Per-channel batch normalization over all axes but the last.

    Train mode normalizes with batch statistics (population variance) and
    updates running stats; eval mode uses the running stats. Train-mode
    batches of one sample are rejected.
    """

    def __init__(self, channels, dtype):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma = None
        self.dbeta = None
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        shape = x.shape
        x = x.reshape(-1, shape[-1])
        if mode == "train":
            if shape[0] == 1:
                raise DegenerateBatchError(
                    "batch of 1 has undefined train-mode batch statistics"
                )
            mean = x.mean(axis=0)
            xhat = x - mean
            var = (xhat * xhat).sum(axis=0) / len(x)
            self.running_mean = (
                (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
            ).astype(self.running_var.dtype)
        else:
            xhat = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std) if mode == "train" else None
        # eval mode keeps no x-hat, so the output takes its buffer
        out = self.gamma * xhat if mode == "train" else np.multiply(xhat, self.gamma, out=xhat)
        out += self.beta
        return out.reshape(shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std = _train_cache(self._cache)
        shape = dout.shape
        dout = dout.reshape(xhat.shape)
        # The count in the gradient's dtype: a Python int would leave a
        # float32 inv_std / m in float32 under a float64 gradient, and an
        # integer scalar would turn a float32 gradient into float64.
        m = dout.dtype.type(len(dout))
        buf = dout * xhat
        # column sums as products with a ones vector: a GEMV, where
        # sum(axis=0) over [12,928 x 16] took ten times an elementwise pass
        ones = np.ones(len(dout), dtype=dout.dtype)
        self.dgamma = ones @ buf
        self.dbeta = ones @ dout
        # gamma factored out of the sums, which are dgamma and dbeta:
        # gamma * inv_std / m * (m * dout - dbeta - xhat * dgamma)
        np.multiply(xhat, self.dgamma, out=buf)
        dx = dout * m
        dx -= self.dbeta
        dx -= buf
        dx *= self.gamma * (inv_std / m)
        return dx.reshape(shape)


class LeakyRelu:
    """x where x >= 0, else slope * x, computed as max(x, slope * x).

    For 0 <= slope <= 1 the two are the same value for every input: slope * x
    is at most x above zero and at least x below it, ±0 and ±inf keep their
    sign, and ``maximum`` returns a NaN input as it is. Other slopes are
    refused.
    """

    def __init__(self, slope=DEFAULT_LEAKY_SLOPE):
        if not 0.0 <= slope <= 1.0:
            raise ValueError(f"leaky slope must lie in [0, 1], got {slope}")
        self.slope = slope
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        self._cache = x >= 0 if mode == "train" else None
        out = self.slope * x
        return np.maximum(x, out, out=out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        positive = _train_cache(self._cache)
        # The factor is exactly 1 or slope, in dout's dtype: fl(1 - s) is
        # within half an ulp of 1 - s, so fl(fl(1 - s) + s) rounds to 1.
        slope = dout.dtype.type(self.slope)
        factor = positive * (1 - slope)
        factor += slope
        factor *= dout
        return factor


class MaxPool1d:
    """Max pooling along the length axis, size 3, stride 1, no padding.

    Backward routes each output gradient to the argmax position; ties break
    to the first index. Train mode keeps one ``int8`` per output: the tap,
    0, 1 or 2, of its first maximum (2 where the window holds a NaN, as
    ``maximum`` returns the NaN and no tap equals it).
    """

    SIZE = 3

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        length = x.shape[1]
        out_len = length - (self.SIZE - 1)
        if out_len < 1:
            raise DimensionError(f"pool input length {length} too short")
        a, b, c = (x[:, i : i + out_len, :] for i in range(self.SIZE))
        out = np.maximum(a, b)
        if mode == "train":
            # a second array: in place, training's peak RSS rose by 1-2 MB
            # when train mode kept three boolean masks, probably because they
            # no longer reused the first one's memory
            out = np.maximum(out, c)
            # the first max's tap: 1 where a is not the max, plus 1 where b
            # is not either
            not_a = a != out
            tap = (not_a & (b != out)).view(np.int8)
            tap += not_a
            self._cache = tap
        else:
            np.maximum(out, c, out=out)
            self._cache = None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        taps = _train_cache(self._cache)
        batch, out_len, channels = dout.shape
        dx = np.zeros((batch, out_len + self.SIZE - 1, channels), dtype=dout.dtype)
        # Tap 2, then 1, then 0: an input position sums the windows that
        # start at or before it in ascending order, as a scatter-add over the
        # outputs would, so every gradient keeps its exact bytes.
        for tap in reversed(range(self.SIZE)):
            dx[:, tap : tap + out_len, :] += dout * (taps == tap)
        return dx


class Dropout:
    """Inverted dropout: eval mode is the identity; surviving activations
    are scaled by 1/(1-rate) so expectations match.

    Train mode caches the boolean keep mask and the scale, 1/(1-rate)
    rounded in the input's dtype, and both passes compute
    ``(a * mask) * scale``: a product by 1 or 0 is exact and keeps the
    sign of a zero, so every value, -0.0, NaN and an overflow to inf
    included, is that of ``a`` times a float mask of 0 and scale.
    """

    def __init__(self, rate, rng):
        self.rate = rate
        self.rng = rng
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        if mode != "train" or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        scale = x.dtype.type(1) / x.dtype.type(keep)
        self._cache = (self.rng.random(x.shape) < keep, scale)
        return self._apply(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return dout
        return self._apply(dout)

    def _apply(self, a: np.ndarray) -> np.ndarray:
        mask, scale = self._cache
        # the product takes a's dtype promoted with the scale's, as a
        # product with a float mask in the scale's dtype would
        out = np.multiply(a, mask, dtype=np.result_type(a, scale))
        out *= scale
        return out


class Dense:
    def __init__(self, in_dim, out_dim, rng, dtype, slope=None):
        if slope is None:
            std = float(np.sqrt(1.0 / in_dim))
        else:
            std = he_leaky_std(in_dim, slope)
        self.W = rng.normal(0.0, std, (in_dim, out_dim)).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.dW = None
        self.db = None
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode, weights=None) -> np.ndarray:
        """``weights``, a (W, b) pair, stands in for the layer's own in eval
        mode, as in ``Conv1d.forward``."""
        if x.shape[1] != self.W.shape[0]:
            raise DimensionError(
                f"dense expects {self.W.shape[0]} inputs, got {x.shape[1]}"
            )
        self._cache = x if mode == "train" else None
        w, b = weights or (self.W, self.b)
        return x @ w + b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.dW = _train_cache(self._cache).T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.W.T


class Flatten:
    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        self._cache = x.shape if mode == "train" else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(_train_cache(self._cache))


# Per parameterized layer type: its trainable arrays (the gradient of ``p``
# is ``layer.d<p>``), then the running statistics a checkpoint also carries.
_LAYER_ARRAYS = {
    Conv1d: (("W", "b"), ()),
    BatchNorm: (("gamma", "beta"), ("running_mean", "running_var")),
    Dense: (("W", "b"), ()),
}


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over batch and outputs, with its gradient."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DimensionError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


def block_lengths(input_len: int) -> list[int]:
    """The conv feature map's length before each block and after the last:
    each of the ``CONV_CHANNELS`` blocks' pools takes ``MaxPool1d.SIZE - 1``
    off the length."""
    return [input_len - i * (MaxPool1d.SIZE - 1) for i in range(len(CONV_CHANNELS) + 1)]


def flat_dim(input_len: int) -> int:
    """fc1's input width for ``input_len``-long matrices: the last block's
    length times its ``CONV_CHANNELS[-1]`` channels."""
    return block_lengths(input_len)[-1] * CONV_CHANNELS[-1]


class CnnModel:
    """The deep-feature CNN plus its regression head.

    ``forward`` yields angle predictions [B x D]; ``extract`` yields the
    20-dim deep features (always in eval mode: dropout off, running batch
    norm statistics).
    """

    def __init__(
        self,
        input_len: int,
        in_channels: int,
        n_outputs: int,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.input_len = input_len
        self.in_channels = in_channels
        self.n_outputs = n_outputs
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)

        self._feature_layers: list[tuple[str, object]] = []
        prev_ch = in_channels
        for i, out_ch in enumerate(CONV_CHANNELS, start=1):
            self._feature_layers += [
                (f"conv{i}", Conv1d(prev_ch, out_ch, self.rng, DEFAULT_LEAKY_SLOPE, dtype)),
                (f"bn{i}", BatchNorm(out_ch, dtype)),
                (f"act{i}", LeakyRelu(DEFAULT_LEAKY_SLOPE)),
                (f"pool{i}", MaxPool1d()),
                (f"drop{i}", Dropout(DEFAULT_DROPOUT, self.rng)),
            ]
            prev_ch = out_ch
        self.flat_dim = flat_dim(input_len)
        if self.flat_dim < 1:
            raise DimensionError(f"input length {input_len} leaves nothing after the pools")
        self._feature_layers.append(("flatten", Flatten()))
        prev = self.flat_dim
        for i, width in enumerate(FC_SIZES, start=1):
            self._feature_layers += [
                (f"fc{i}", Dense(prev, width, self.rng, dtype, slope=DEFAULT_LEAKY_SLOPE)),
                (f"fcbn{i}", BatchNorm(width, dtype)),
                (f"fcact{i}", LeakyRelu(DEFAULT_LEAKY_SLOPE)),
                (f"fcdrop{i}", Dropout(DEFAULT_DROPOUT, self.rng)),
            ]
            if i == 1:  # the eval pass chunks every layer up to here
                self._n_chunked = len(self._feature_layers)
            prev = width
        self.head = Dense(FEATURE_DIM, n_outputs, self.rng, dtype)

    def block_lengths(self) -> list[int]:
        """``block_lengths`` of this model's input length."""
        return block_lengths(self.input_len)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1] != self.input_len or x.shape[2] != self.in_channels:
            raise DimensionError(
                f"expected input [B x {self.input_len} x {self.in_channels}], "
                f"got {tuple(x.shape)}"
            )

    def extract_chunks(self, chunks: Iterable[np.ndarray], n: int) -> np.ndarray:
        """Deep features [n x 20] of a batch of ``n`` inputs given as
        ``chunks``: the inputs of its ``eval_chunk_bounds(n)`` chunks, in
        order, so a caller can make each chunk only when the pass reaches it.
        Deterministic (eval mode), and the bytes do not depend on how the
        chunks were made."""
        # the eval pass below calls no batch norm or dropout, so it clears
        # every layer's train-mode state here
        for _, layer in self._feature_layers:
            layer._cache = None
        folds = self._folds()
        trunk = self._feature_layers[: self._n_chunked]
        fc1_out = np.empty((0, FC_SIZES[0]), dtype=self.dtype)  # an empty batch's
        for (start, stop), chunk in zip(eval_chunk_bounds(n), chunks, strict=True):
            self._check_input(chunk)
            out = self._run_eval(trunk, chunk, folds)
            if start == 0:  # the buffer takes the pass's dtype
                fc1_out = np.empty((n, FC_SIZES[0]), dtype=out.dtype)
            fc1_out[start:stop] = out
        return self._run_eval(self._feature_layers[self._n_chunked :], fc1_out, folds)

    def _folds(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per conv and dense layer, the GEMM weights and bias that give the
        eval-mode output of the batch norm after it: per channel,
        scale = gamma / sqrt(running_var + BN_EPS), W * scale and
        (b - running_mean) * scale + beta."""
        folds = {}
        for (name, layer), (_, bn) in zip(self._feature_layers, self._feature_layers[1:]):
            if isinstance(bn, BatchNorm):
                scale = bn.gamma / np.sqrt(bn.running_var + BN_EPS)
                w_mat = layer.w_mat if isinstance(layer, Conv1d) else layer.W
                folds[name] = (w_mat * scale, (layer.b - bn.running_mean) * scale + bn.beta)
        return folds

    @staticmethod
    def _run_eval(layers, x: np.ndarray, folds) -> np.ndarray:
        """``layers`` in eval mode, each conv and dense layer with its fold:
        the batch norms are in the folds, and dropout is the identity."""
        for name, layer in layers:
            if name in folds:
                x = layer.forward(x, "eval", folds[name])
            elif not isinstance(layer, BatchNorm | Dropout):
                x = layer.forward(x, "eval")
        return x

    def forward(self, x: np.ndarray, mode: Mode = "eval") -> np.ndarray:
        if mode != "train":
            return self.head.forward(self.extract(x), mode)
        self._check_input(x)
        for _, layer in [*self._feature_layers, ("head", self.head)]:
            x = layer.forward(x, mode)
        return x

    def extract(self, x: np.ndarray) -> np.ndarray:
        """Deep features [B x 20]; deterministic (eval mode)."""
        self._check_input(x)
        chunks = (x[start:stop] for start, stop in eval_chunk_bounds(len(x)))
        return self.extract_chunks(chunks, len(x))

    def backward(self, dpred: np.ndarray) -> dict[str, np.ndarray]:
        """Backpropagate a gradient on predictions through the head and every
        feature layer, conv1 included, each by its own ``backward`` (conv1's
        input gradient is dropped), and return ``gradients()``."""
        grad = dpred
        for _, layer in reversed([*self._feature_layers, ("head", self.head)]):
            grad = layer.backward(grad)
        return self.gradients()

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable arrays in declared (checkpoint) order."""
        return self._arrays(0)

    def gradients(self) -> dict[str, np.ndarray]:
        return self._arrays(0, prefix="d")

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters + running stats."""
        return {**self._arrays(0), **self._arrays(1)}

    def _arrays(self, column: int, prefix: str = "") -> dict[str, np.ndarray]:
        """``layer.<prefix><attr>`` keyed ``<layer name>.<attr>`` for the attrs
        in one ``_LAYER_ARRAYS`` column, in checkpoint order."""
        return {
            f"{name}.{attr}": getattr(layer, prefix + attr)
            for name, layer in self._array_layers()
            for attr in _LAYER_ARRAYS[type(layer)][column]
        }

    def _array_layers(self):
        for name, layer in [*self._feature_layers, ("head", self.head)]:
            if type(layer) in _LAYER_ARRAYS:
                yield name, layer
