"""LSTM sequence regression over deep-feature sequences.

One LSTM layer (50 hidden units by default) is unrolled over k time-steps.
Gate updates at step j, with z = [h_{j-1}, f_j] (hidden state first):

    i = sigmoid(W_i z + b_i)          input gate
    m = sigmoid(W_m z + b_m)          forget gate
    o = sigmoid(W_o z + b_o)          output gate
    c_j = i * tanh(W_c z + b_c) + m * c_{j-1}
    h_j = o * tanh(c_j)
    y_j = W_y h_j + b_y

Only the last output y_k is read out (and supervised); the initial state is
fixed at zero and never trained. Training applies 30% inverted dropout to
h_k before the readout. Backpropagation through time is hand-written and
finite-difference checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InsufficientDataError

HIDDEN_UNITS = 50
FEATURE_DIM = 20
DEFAULT_TIMESTEPS = 18

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
    h0: np.ndarray = field(default=None)  # fixed at zero, not trained
    c0: np.ndarray = field(default=None)

    def __post_init__(self):
        hidden = self.W_i.shape[0]
        if self.h0 is None:
            self.h0 = np.zeros(hidden, dtype=self.W_i.dtype)
        if self.c0 is None:
            self.c0 = np.zeros(hidden, dtype=self.W_i.dtype)

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

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = self.parameters()
        state["h0"] = self.h0
        state["c0"] = self.c0
        return state


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-x)), overflow-safe in both branches."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def init_lstm_params(
    feature_dim: int = FEATURE_DIM,
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
    dropout_rate: float = 0.3,
) -> tuple[np.ndarray, LstmCache]:
    """Roll the LSTM over a batch of sequences [B x k x F]; returns (y_k, cache).

    State resets to (h0, c0) at every sequence start: evaluation order over
    sequences cannot matter.
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
    h = np.broadcast_to(params.h0, (batch, params.hidden)).copy()
    c = np.broadcast_to(params.c0, (batch, params.hidden)).copy()
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
    if mode == "train" and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout requires an rng")
        keep = 1.0 - dropout_rate
        mask = (rng.random(h.shape) < keep).astype(h.dtype) / keep
        h_out = h * mask
    y = h_out @ params.W_y.T + params.b_y
    return y, LstmCache(steps=steps, h_final=h_out, dropout_mask=mask)


def lstm_backward(
    params: LstmParams, cache: LstmCache, dy: np.ndarray
) -> dict[str, np.ndarray]:
    """BPTT for a batch: gradient of the readout loss w.r.t. every parameter.

    ``dy`` is the upstream gradient on y_k, shape [B x D]. (h0, c0) receive
    no gradient by contract.
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


def lstm_step(
    params: LstmParams, state: LstmState, f: np.ndarray
) -> tuple[LstmState, np.ndarray]:
    """Single Eq.-style update: (state, feature) -> (new state, y)."""
    f = np.asarray(f)
    if f.shape != (params.feature_dim,):
        raise DimensionError(
            f"feature must have shape ({params.feature_dim},), got {f.shape}"
        )
    if state.h.shape != (params.hidden,) or state.c.shape != (params.hidden,):
        raise DimensionError("state shape does not match hidden size")
    z = np.concatenate([state.h, f])
    i = sigmoid(params.W_i @ z + params.b_i)
    m = sigmoid(params.W_m @ z + params.b_m)
    o = sigmoid(params.W_o @ z + params.b_o)
    g = np.tanh(params.W_c @ z + params.b_c)
    c = i * g + m * state.c
    h = o * np.tanh(c)
    y = params.W_y @ h + params.b_y
    return LstmState(h=h, c=c), y


def build_sequences(features: np.ndarray, k: int = DEFAULT_TIMESTEPS) -> np.ndarray:
    """All stride-1 runs of k consecutive features, as a read-only view
    [S x k x F] with S = M - k + 1; row i is ``features[i : i + k]``."""
    features = np.asarray(features)
    m = features.shape[0]
    if m < k:
        raise InsufficientDataError(f"need at least k={k} windows, got {m}")
    return sliding_window_view(features, k, axis=0).swapaxes(1, 2)


def stack_sequences(
    features: np.ndarray, labels: np.ndarray, k: int = DEFAULT_TIMESTEPS
) -> tuple[np.ndarray, np.ndarray]:
    """(X [S x k x F], Y [S x D]): every k-run of features, each targeting the
    label of its last window."""
    labels = np.asarray(labels)
    if len(labels) != len(features):
        raise DimensionError("features and labels must align")
    return build_sequences(features, k), labels[k - 1 :]
