"""LSTM sequence regression over deep-feature sequences.

One LSTM layer (50 hidden units by default) is unrolled over k time-steps.
Gate updates at step j, with z = [h_{j-1}, f_j] (hidden state first):

    i = sigmoid(W_i z + b_i)          input gate
    m = sigmoid(W_m z + b_m)          forget gate
    o = sigmoid(W_o z + b_o)          output gate
    c_j = i * tanh(W_c z + b_c) + m * c_{j-1}
    h_j = o * tanh(c_j)
    y_j = W_y h_j + b_y

Only the last output y_k is read out (and supervised). Every sequence starts
from a zero initial state (h_0 = c_0 = 0), which is neither stored nor
trained. Training applies ``nn.DEFAULT_DROPOUT`` (30%) inverted dropout to
h_k before the readout. The feature width defaults to the CNN's
``nn.FEATURE_DIM``. Backpropagation through time is hand-written and
finite-difference checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .errors import DimensionError, InsufficientDataError

HIDDEN_UNITS = 50

PARAM_NAMES = ("W_i", "W_m", "W_o", "W_c", "b_i", "b_m", "b_o", "b_c", "W_y", "b_y")


@dataclass
class LstmParams:
    W_i: np.ndarray  # [H x (H+F)]
    W_m: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    b_i: np.ndarray  # [H]
    b_m: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray
    W_y: np.ndarray  # [D x H]
    b_y: np.ndarray  # [D]

    @property
    def hidden(self) -> int:
        return self.W_i.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.W_i.shape[1] - self.W_i.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.W_y.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-x)), overflow-safe in both branches.

    ``exp`` only ever sees -|x|; ``minimum(x, -x)`` rather than ``-abs(x)``
    keeps a NaN input's sign bit, as evaluating each branch on its own did.
    """
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(x.dtype if x.dtype.kind == "f" else np.float32, copy=False)


def init_lstm_params(
    feature_dim: int = nn.FEATURE_DIM,
    hidden: int = HIDDEN_UNITS,
    n_outputs: int = 1,
    seed: int = 0,
    dtype=np.float32,
) -> LstmParams:
    """Uniform fan-in init; forget-gate bias starts at 1 to keep memory open."""
    rng = np.random.default_rng(seed)
    z_dim = hidden + feature_dim

    def gate_w():
        limit = 1.0 / np.sqrt(z_dim)
        return rng.uniform(-limit, limit, (hidden, z_dim)).astype(dtype)

    limit_y = 1.0 / np.sqrt(hidden)
    return LstmParams(
        W_i=gate_w(),
        W_m=gate_w(),
        W_o=gate_w(),
        W_c=gate_w(),
        b_i=np.zeros(hidden, dtype=dtype),
        b_m=np.ones(hidden, dtype=dtype),
        b_o=np.zeros(hidden, dtype=dtype),
        b_c=np.zeros(hidden, dtype=dtype),
        W_y=rng.uniform(-limit_y, limit_y, (n_outputs, hidden)).astype(dtype),
        b_y=np.zeros(n_outputs, dtype=dtype),
    )


@dataclass
class LstmCache:
    """Forward-pass intermediates required by backpropagation through time."""

    steps: list  # per step: (z, i, m, o, g, c_prev, tanh_c)
    h_final: np.ndarray
    dropout_mask: np.ndarray | None


def lstm_forward_batch(
    params: LstmParams,
    seqs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LstmCache]:
    """Roll the LSTM over a batch of sequences [B x k x F]; returns (y_k, cache).

    Every sequence starts from the zero state, so evaluation order over
    sequences cannot matter. Train mode drops ``nn.DEFAULT_DROPOUT`` of h_k.
    """
    seqs = np.asarray(seqs)
    if seqs.ndim != 3:
        raise DimensionError(f"expected [B x k x F] sequences, got {seqs.shape}")
    batch, k, feat = seqs.shape
    if k < 1:
        raise InsufficientDataError("empty sequence")
    if feat != params.feature_dim:
        raise DimensionError(
            f"LSTM expects feature dim {params.feature_dim}, got {feat}"
        )
    h = np.zeros((batch, params.hidden), dtype=params.W_i.dtype)
    c = np.zeros((batch, params.hidden), dtype=params.W_i.dtype)
    steps = []
    for j in range(k):
        z = np.concatenate([h, seqs[:, j, :]], axis=1)
        i = sigmoid(z @ params.W_i.T + params.b_i)
        m = sigmoid(z @ params.W_m.T + params.b_m)
        o = sigmoid(z @ params.W_o.T + params.b_o)
        g = np.tanh(z @ params.W_c.T + params.b_c)
        c_new = i * g + m * c
        tanh_c = np.tanh(c_new)
        steps.append((z, i, m, o, g, c, tanh_c))
        h = o * tanh_c
        c = c_new
    mask = None
    h_out = h
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode dropout requires an rng")
        keep = 1.0 - nn.DEFAULT_DROPOUT
        mask = (rng.random(h.shape) < keep).astype(h.dtype) / keep
        h_out = h * mask
    y = h_out @ params.W_y.T + params.b_y
    return y, LstmCache(steps=steps, h_final=h_out, dropout_mask=mask)


def lstm_backward(
    params: LstmParams, cache: LstmCache, dy: np.ndarray
) -> dict[str, np.ndarray]:
    """BPTT for a batch: gradient of the readout loss w.r.t. every parameter.

    ``dy`` is the upstream gradient on y_k, shape [B x D]. The zero initial
    state is a constant and receives no gradient.
    """
    if cache is None:
        raise ValueError("lstm_backward requires the cache from a forward pass")
    dy = np.asarray(dy)
    grads = {name: np.zeros_like(arr) for name, arr in params.parameters().items()}
    grads["W_y"] = dy.T @ cache.h_final
    grads["b_y"] = dy.sum(axis=0)
    dh = dy @ params.W_y
    if cache.dropout_mask is not None:
        dh = dh * cache.dropout_mask
    hidden = params.hidden
    dc = np.zeros_like(dh)
    for z, i, m, o, g, c_prev, tanh_c in reversed(cache.steps):
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_ai = (dc * g) * i * (1.0 - i)
        d_am = (dc * c_prev) * m * (1.0 - m)
        d_ao = do * o * (1.0 - o)
        d_ag = (dc * i) * (1.0 - g * g)
        grads["W_i"] += d_ai.T @ z
        grads["W_m"] += d_am.T @ z
        grads["W_o"] += d_ao.T @ z
        grads["W_c"] += d_ag.T @ z
        grads["b_i"] += d_ai.sum(axis=0)
        grads["b_m"] += d_am.sum(axis=0)
        grads["b_o"] += d_ao.sum(axis=0)
        grads["b_c"] += d_ag.sum(axis=0)
        dz = d_ai @ params.W_i + d_am @ params.W_m + d_ao @ params.W_o + d_ag @ params.W_c
        dh = dz[:, :hidden]
        dc = dc * m
    return grads


def build_sequences(features: np.ndarray, k: int) -> np.ndarray:
    """All stride-1 runs of k consecutive features, as a read-only view
    [S x k x F] with S = M - k + 1; row i is ``features[i : i + k]``."""
    features = np.asarray(features)
    m = features.shape[0]
    if m < k:
        raise InsufficientDataError(f"need at least k={k} windows, got {m}")
    return sliding_window_view(features, k, axis=0).swapaxes(1, 2)


def stack_sequences(
    features: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(X [S x k x F], Y [S x D]): every k-run of features, each targeting the
    label of its last window."""
    labels = np.asarray(labels)
    if len(labels) != len(features):
        raise DimensionError("features and labels must align")
    return build_sequences(features, k), labels[k - 1 :]
