"""Layers and the deep-feature CNN, with hand-written backward passes.

No autodiff: every layer caches what its backward pass needs, and every
analytic gradient is checked against central finite differences in the test
suite. Data layout is channels-last: conv stages see [B x L x C], fully
connected stages see [B x F].

The CNN is four conv blocks (conv k3/pad1/stride1 -> batch norm -> leaky
ReLU -> max pool 3/stride1 -> dropout) with channel plan in->16->16->32->32,
then two FC blocks (100 then 20 units, each fc -> batch norm -> leaky ReLU
-> dropout), then a linear regression head. The 20-unit block's output is
the deep feature handed to the sequence regressor.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import DegenerateBatchError, DimensionError

CONV_CHANNELS = (16, 16, 32, 32)
FC_SIZES = (100, 20)
FEATURE_DIM = 20
DEFAULT_LEAKY_SLOPE = 0.1
DEFAULT_DROPOUT = 0.3

Mode = Literal["train", "eval"]


def he_leaky_std(fan_in: int, slope: float) -> float:
    """Scaled-normal init std for layers feeding a leaky ReLU."""
    return float(np.sqrt(2.0 / (fan_in * (1.0 + slope * slope))))


class Conv1d:
    """1-D convolution along the length axis, kernel 3, pad 1, stride 1."""

    def __init__(self, in_channels, out_channels, rng, slope, dtype):
        std = he_leaky_std(in_channels * 3, slope)
        self.W = rng.normal(0.0, std, (out_channels, in_channels, 3)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dW = None
        self.db = None
        self._cols = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        if x.shape[2] != self.W.shape[1]:
            raise DimensionError(
                f"conv expects {self.W.shape[1]} input channels, got {x.shape[2]}"
            )
        batch, length, in_ch = x.shape
        padded = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        cols = np.stack([padded[:, i : i + length, :] for i in range(3)], axis=-1)
        cols = cols.reshape(batch, length, in_ch * 3)
        self._cols = cols
        w_mat = self.W.transpose(1, 2, 0).reshape(in_ch * 3, -1)
        return cols @ w_mat + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cols = self._cols
        batch, length, _ = dout.shape
        out_ch, in_ch, _ = self.W.shape
        d_wmat = np.einsum("blk,blo->ko", cols, dout)
        self.dW = d_wmat.reshape(in_ch, 3, out_ch).transpose(2, 0, 1)
        self.db = dout.sum(axis=(0, 1))
        w_mat = self.W.transpose(1, 2, 0).reshape(in_ch * 3, out_ch)
        dcols = (dout @ w_mat.T).reshape(batch, length, in_ch, 3)
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

    def __init__(self, channels, dtype, momentum=0.1, eps=1e-5):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps
        self.dgamma = None
        self.dbeta = None
        self._cache = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        axes = tuple(range(x.ndim - 1))
        if mode == "train":
            if x.shape[0] == 1:
                raise DegenerateBatchError(
                    "batch of 1 has undefined train-mode batch statistics"
                )
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                (1.0 - self.momentum) * self.running_var + self.momentum * var
            ).astype(self.running_var.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, axes, mode)
        return self.gamma * xhat + self.beta

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std, axes, mode = self._cache
        self.dgamma = (dout * xhat).sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        dxhat = dout * self.gamma
        if mode == "eval":
            return dxhat * inv_std
        m = np.prod([dout.shape[a] for a in axes])
        return (
            inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=axes) - xhat * (dxhat * xhat).sum(axis=axes))
        )


class LeakyRelu:
    def __init__(self, slope=DEFAULT_LEAKY_SLOPE):
        self.slope = slope
        self._positive = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        self._positive = x >= 0
        return np.where(self._positive, x, self.slope * x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.where(self._positive, dout, self.slope * dout)


class MaxPool1d:
    """Max pooling along the length axis, size 3, stride 1, no padding.

    Backward routes each output gradient to the argmax position; ties break
    to the first index.
    """

    SIZE = 3

    def __init__(self):
        self._argmax = None
        self._in_shape = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        batch, length, channels = x.shape
        out_len = length - (self.SIZE - 1)
        if out_len < 1:
            raise DimensionError(f"pool input length {length} too short")
        windows = np.stack(
            [x[:, i : i + out_len, :] for i in range(self.SIZE)], axis=2
        )  # [B, out_len, 3, C]
        self._argmax = windows.argmax(axis=2)
        self._in_shape = x.shape
        return windows.max(axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._in_shape, dtype=dout.dtype)
        batch, out_len, channels = dout.shape
        b_idx, l_idx, c_idx = np.indices((batch, out_len, channels))
        np.add.at(dx, (b_idx, l_idx + self._argmax, c_idx), dout)
        return dx


class Dropout:
    """Inverted dropout: eval mode is the identity; surviving activations
    are scaled by 1/(1-rate) so expectations match."""

    def __init__(self, rate, rng):
        self.rate = rate
        self.rng = rng
        self._mask = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        if mode == "eval" or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


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
        self._x = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        if x.shape[1] != self.W.shape[0]:
            raise DimensionError(
                f"dense expects {self.W.shape[0]} inputs, got {x.shape[1]}"
            )
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.dW = self._x.T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.W.T


class Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._shape)


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
        leaky_slope: float = DEFAULT_LEAKY_SLOPE,
        dropout_rate: float = DEFAULT_DROPOUT,
        dtype=np.float32,
    ):
        self.input_len = input_len
        self.in_channels = in_channels
        self.n_outputs = n_outputs
        self.leaky_slope = leaky_slope
        self.dropout_rate = dropout_rate
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)

        self._feature_layers: list[tuple[str, object]] = []
        length = input_len
        prev_ch = in_channels
        for i, out_ch in enumerate(CONV_CHANNELS, start=1):
            self._feature_layers += [
                (f"conv{i}", Conv1d(prev_ch, out_ch, self.rng, leaky_slope, dtype)),
                (f"bn{i}", BatchNorm(out_ch, dtype)),
                (f"act{i}", LeakyRelu(leaky_slope)),
                (f"pool{i}", MaxPool1d()),
                (f"drop{i}", Dropout(dropout_rate, self.rng)),
            ]
            prev_ch = out_ch
            length -= MaxPool1d.SIZE - 1
        self.flat_dim = length * prev_ch
        self._feature_layers.append(("flatten", Flatten()))
        prev = self.flat_dim
        for i, width in enumerate(FC_SIZES, start=1):
            self._feature_layers += [
                (f"fc{i}", Dense(prev, width, self.rng, dtype, slope=leaky_slope)),
                (f"fcbn{i}", BatchNorm(width, dtype)),
                (f"fcact{i}", LeakyRelu(leaky_slope)),
                (f"fcdrop{i}", Dropout(dropout_rate, self.rng)),
            ]
            prev = width
        self.head = Dense(FEATURE_DIM, n_outputs, self.rng, dtype)

    def block_lengths(self) -> list[int]:
        """Length of the conv feature map before each block and after the last."""
        lengths = [self.input_len]
        for _ in CONV_CHANNELS:
            lengths.append(lengths[-1] - (MaxPool1d.SIZE - 1))
        return lengths

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1] != self.input_len or x.shape[2] != self.in_channels:
            raise DimensionError(
                f"expected input [B x {self.input_len} x {self.in_channels}], "
                f"got {tuple(x.shape)}"
            )

    def _features(self, x: np.ndarray, mode: Mode) -> np.ndarray:
        out = x
        for _, layer in self._feature_layers:
            out = layer.forward(out, mode)
        return out

    def forward(self, x: np.ndarray, mode: Mode = "eval") -> np.ndarray:
        self._check_input(x)
        return self.head.forward(self._features(x, mode), mode)

    def extract(self, x: np.ndarray) -> np.ndarray:
        """Deep features [B x 20]; deterministic (eval mode)."""
        self._check_input(x)
        return self._features(x, "eval")

    def backward(self, dpred: np.ndarray) -> None:
        """Backpropagate a gradient on predictions through every layer."""
        grad = self.head.backward(dpred)
        for _, layer in reversed(self._feature_layers):
            grad = layer.backward(grad)

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable arrays in declared (checkpoint) order."""
        params: dict[str, np.ndarray] = {}
        for name, layer in self._named_param_layers():
            if isinstance(layer, (Conv1d, Dense)):
                params[f"{name}.W"] = layer.W
                params[f"{name}.b"] = layer.b
            elif isinstance(layer, BatchNorm):
                params[f"{name}.gamma"] = layer.gamma
                params[f"{name}.beta"] = layer.beta
        return params

    def gradients(self) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        for name, layer in self._named_param_layers():
            if isinstance(layer, (Conv1d, Dense)):
                grads[f"{name}.W"] = layer.dW
                grads[f"{name}.b"] = layer.db
            elif isinstance(layer, BatchNorm):
                grads[f"{name}.gamma"] = layer.dgamma
                grads[f"{name}.beta"] = layer.dbeta
        return grads

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters + running stats."""
        state = dict(self.parameters())
        for name, layer in self._named_param_layers():
            if isinstance(layer, BatchNorm):
                state[f"{name}.running_mean"] = layer.running_mean
                state[f"{name}.running_var"] = layer.running_var
        return state

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, layer in self._named_param_layers():
            if isinstance(layer, (Conv1d, Dense)):
                layer.W = state[f"{name}.W"].reshape(layer.W.shape).astype(self.dtype)
                layer.b = state[f"{name}.b"].reshape(layer.b.shape).astype(self.dtype)
            elif isinstance(layer, BatchNorm):
                layer.gamma = state[f"{name}.gamma"].reshape(layer.gamma.shape).astype(self.dtype)
                layer.beta = state[f"{name}.beta"].reshape(layer.beta.shape).astype(self.dtype)
                layer.running_mean = state[f"{name}.running_mean"].reshape(
                    layer.running_mean.shape
                ).astype(self.dtype)
                layer.running_var = state[f"{name}.running_var"].reshape(
                    layer.running_var.shape
                ).astype(self.dtype)

    def _named_param_layers(self):
        for name, layer in self._feature_layers:
            if isinstance(layer, (Conv1d, Dense, BatchNorm)):
                yield name, layer
        yield "head", self.head

