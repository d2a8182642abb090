"""LSTM sequence regression over deep-feature sequences.

One LSTM layer (50 hidden units by default) is unrolled over k time-steps.
Gate updates at step j, with z = [h_{j-1}, f_j] (hidden state first):

    i = sigmoid(W_i z + b_i)          input gate
    m = sigmoid(W_m z + b_m)          forget gate
    o = sigmoid(W_o z + b_o)          output gate
    c_j = i * tanh(W_c z + b_c) + m * c_{j-1}
    h_j = o * tanh(c_j)
    y_j = W_y h_j + b_y

The four gates are stored fused: ``W`` [4H x (H+F)] and ``b`` [4H] hold the
row blocks W_i, W_m, W_o, W_c and b_i, b_m, b_o, b_c in that order, so each
step runs one GEMM for all four (Appleyard et al., arXiv:1604.01946).

Each step activates the gate block in place with one ``tanh`` over all 4H
rows, using sigmoid(x) = (1 + tanh(x / 2)) / 2: the i, m and o rows are
halved first, then mapped by * 0.5 + 0.5. In float32 this is within one
ulp of 1 (1.2e-7) of the logistic function, and train and eval mode share
it. BPTT is unchanged: the cache holds the activated i, m, o and g.

Only the last output y_k is read out (and supervised). Every sequence starts
from a zero initial state (h_0 = c_0 = 0), which is neither stored nor
trained. h_k reaches the readout through an ``nn.Dropout`` at
``nn.DEFAULT_DROPOUT`` (30%), which drops in train mode only; after an
eval-mode forward it is the identity in BPTT too. The feature width
defaults to the CNN's ``nn.FEATURE_DIM``. Backpropagation through time is
hand-written and finite-difference checked.

One step body, ``_step``, writes each step into arrays it is given, laid
out gate-major after Appleyard et al.: z = [h_{j-1}; f_j] is [(H+F) x B],
the gate block a = [4H x B] is ``np.matmul(W, z, out=a)`` plus b as a
column, so i, m, o and g are contiguous row blocks, and c_j and tanh c_j
(which holds i * g first) are [H x B]. h_j goes into z_{j+1}'s first H
rows, and the readout takes h_k through its [B x H] transposed view.
``W @ z`` is another BLAS call than the row-major ``z @ W.T`` the layer
ran before, and in float32 its bytes differ at some batches (20 and 37
rows, for two) and not at others (64, 512 and 6,005 rows in eval mode).
Like every reordered kernel it is held to its float64 twin instead
(``tests/test_kernel_accuracy.py``): at batch 64 and k = 98, over 20
seeds, y_k reads a median relative error of 1.6e-7 and BPTT's weight
gradient 4.3e-7, where the row-major layer read 1.6e-7 and 4.4e-7.

The forward keeps each step's (z, a, c_{j-1}, tanh c_j) for BPTT, in eval
mode too, since the gradient checks run BPTT after an eval-mode forward.
With the cache, the k steps' z, a, c and tanh c are one preallocated block
each, z's feature rows filled once from the sequences. Inference has no
backward, so ``training.predict_heads`` passes ``keep_cache=False``: the
same body then rewrites one z, one gate block, c and one temporary at
every step, with f_j copied into z's feature rows and h_j written into its
first H rows, and y_k keeps its bytes. At 6,005 sequences and k = 18 that
is 8.9 MB, where the k-step cache is 164 MB. The forward is not chunked
over sequences: with three outputs, y_k changed bytes (by up to 7.5e-8)
at six of eight chunk sizes tried, from 1 to 1,500 sequences.

BPTT runs gate-major too, in buffers made once per call: dh and dc are
[H x B], each gate's derivative is written with ``out=`` into its row
block of one [4H x B] d_a, the weight gradient adds ``d_a @ z_j.T`` at
each step, dh for the step before is ``W_h.T @ d_a``, and the bias
gradient is one running [4H x B] sum, reduced over the batch once at the
end. No step transposes or allocates an array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .errors import DimensionError, InsufficientDataError

HIDDEN_UNITS = 50

PARAM_NAMES = ("W", "b", "W_y", "b_y")


@dataclass
class LstmParams:
    W: np.ndarray  # [4H x (H+F)]: gate blocks i, m, o, c
    b: np.ndarray  # [4H]
    W_y: np.ndarray  # [D x H]
    b_y: np.ndarray  # [D]

    def __post_init__(self):
        hidden, width = self.W_y.shape[-1], self.W.shape[-1]
        got = (self.W.shape, self.b.shape, self.b_y.shape, self.W_y.ndim)
        if got != ((4 * hidden, width), (4 * hidden,), self.W_y.shape[:1], 2) or width <= hidden:
            raise DimensionError(f"LSTM arrays {got[:3]} do not fit W_y {self.W_y.shape}")

    @property
    def hidden(self) -> int:
        return self.W_y.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.W.shape[1] - self.hidden

    @property
    def n_outputs(self) -> int:
        return self.W_y.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_lstm_params(
    feature_dim: int = nn.FEATURE_DIM,
    hidden: int = HIDDEN_UNITS,
    n_outputs: int = 1,
    seed: int = 0,
    dtype=np.float32,
) -> LstmParams:
    """Uniform fan-in init, gates i, m, o, c in one draw; forget bias 1 keeps memory open."""
    rng = np.random.default_rng(seed)
    z_dim = hidden + feature_dim
    limit = 1.0 / np.sqrt(z_dim)
    limit_y = 1.0 / np.sqrt(hidden)
    return LstmParams(
        W=rng.uniform(-limit, limit, (4 * hidden, z_dim)).astype(dtype),
        b=np.repeat(np.array([0.0, 1.0, 0.0, 0.0], dtype=dtype), hidden),
        W_y=rng.uniform(-limit_y, limit_y, (n_outputs, hidden)).astype(dtype),
        b_y=np.zeros(n_outputs, dtype=dtype),
    )


@dataclass
class LstmCache:
    """Forward-pass intermediates required by backpropagation through time.

    ``steps`` holds one (z, a, c_{j-1}, tanh c_j) tuple per step, each a
    gate-major view of the forward's blocks: z = [h_{j-1}; f_j] as
    [(H+F) x B], the activated gate block a as [4H x B] with row blocks i,
    m, o, g, and c_{j-1} and tanh c_j as [H x B]. ``h_final`` is h_k after
    dropout, [B x H], a transposed view of z's rows in eval mode.
    """

    steps: list  # per step: gate-major views (z, a, c_prev, tanh_c)
    h_final: np.ndarray  # h_k after dropout, as the readout saw it
    dropout: nn.Dropout


def lstm_forward_batch(
    params: LstmParams,
    seqs: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, LstmCache | None]:
    """Roll the LSTM over a batch of sequences [B x k x F]; returns (y_k, cache).

    Every sequence starts from the zero state, so evaluation order over
    sequences cannot matter. Train mode drops ``nn.DEFAULT_DROPOUT`` of h_k.
    Either mode keeps the BPTT cache by default; with ``keep_cache=False``
    every step is written over the one before, y_k keeps its bytes, and the
    cache returned is None, which ``lstm_backward`` refuses.
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
    if mode == "train" and rng is None:
        raise ValueError("train-mode dropout requires an rng")
    hidden, dtype = params.hidden, params.W.dtype
    # z [h_{j-1}; f_j], a, c and tanh c gate-major, [rows x B]
    held = k if keep_cache else 1  # the cache-free forward rewrites one step
    states = k + 1 if keep_cache else 1  # z and c: also the state after step k
    z = np.empty((states, hidden + feat, batch), dtype=dtype)
    a = np.empty((held, 4 * hidden, batch), dtype=dtype)
    c = np.empty((states, hidden, batch), dtype=dtype)
    tanh_c = np.empty((held, hidden, batch), dtype=dtype)
    z[0, :hidden] = 0.0  # h_0
    c[0] = 0.0  # c_0
    if keep_cache:
        z[:k, hidden:] = seqs.transpose(1, 2, 0)
    # the i, m and o rows of W and b halved once for the sigmoids' x / 2,
    # which is exact in binary floating point, so the gates keep the bytes
    # of halving them at every step
    half = np.repeat(np.array([0.5, 0.5, 0.5, 1.0], dtype=dtype), hidden)[:, None]
    w, b = params.W * half, params.b[:, None] * half
    for j in range(k):
        if keep_cache:  # step j reads state j and writes state j + 1
            s, t = j, j + 1
        else:
            s = t = 0
            z[0, hidden:] = seqs[:, j, :].T
        _step(w, b, z[s], a[s], c[s], c[t], tanh_c[s], z[t, :hidden])
    dropout = nn.Dropout(nn.DEFAULT_DROPOUT, rng)
    h = dropout.forward(z[-1, :hidden].T, mode)  # [B x H]
    y = h @ params.W_y.T + params.b_y
    if not keep_cache:
        return y, None
    steps = [(z[j], a[j], c[j], tanh_c[j]) for j in range(k)]
    return y, LstmCache(steps=steps, h_final=h, dropout=dropout)


def _step(w, b, z, a, c_prev, c, tanh_c, h) -> None:
    """One step from z = [h_{j-1}; f_j] [(H+F) x B] and c_{j-1} (``c_prev``),
    with ``w`` and the column ``b`` the gate weights and bias whose i, m and
    o rows are halved, written into the gate-major arrays given: the
    activated gates i, m, o, g into the row blocks of ``a`` [4H x B], c_j
    into ``c``, tanh c_j into ``tanh_c`` and h_j into ``h``, all [H x B].
    ``c`` may be ``c_prev`` and ``h`` may be ``z[:H]``; ``tanh_c`` holds
    i * g first."""
    # activated in place, one tanh over all four gates: sigmoid(x) is
    # (1 + tanh(x / 2)) / 2 on the i, m, o block
    hidden = len(c)
    np.matmul(w, z, out=a)
    a += b
    np.tanh(a, out=a)
    sig = a[: 3 * hidden]
    sig *= 0.5
    sig += 0.5
    i, m, o, g = a[:hidden], a[hidden : 2 * hidden], a[2 * hidden : 3 * hidden], a[3 * hidden :]
    np.multiply(i, g, out=tanh_c)
    np.multiply(m, c_prev, out=c)
    c += tanh_c  # c_j = i * g + m * c_{j-1}
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


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
    hidden, batch = params.hidden, dy.shape[0]
    w_h_t = params.W[:, :hidden].T  # [H x 4H]: the gates' weights on h_{j-1}
    dtype = np.result_type(dy, cache.steps[0][1])
    # gate-major [rows x B], as the forward's blocks; written in place
    dh = np.empty((hidden, batch), dtype=dtype)
    dh[...] = cache.dropout.backward(dy @ params.W_y).T
    dc = np.zeros((hidden, batch), dtype=dtype)
    d_gates = np.empty((4 * hidden, batch), dtype=dtype)
    d_sig, d_ag = d_gates[: 3 * hidden], d_gates[3 * hidden :]  # i, m, o; g
    d_ai, d_am, d_ao = np.split(d_sig, 3)
    d_b = np.zeros((4 * hidden, batch), dtype=dtype)  # summed over B at the end
    d_w = np.empty_like(grads["W"])
    tmp = np.empty((3 * hidden, batch), dtype=dtype)
    tmp_h = tmp[:hidden]
    for j in reversed(range(len(cache.steps))):
        z, a, c_prev, tanh_c = cache.steps[j]
        sig, g = a[: 3 * hidden], a[3 * hidden :]
        i, m, o = sig[:hidden], sig[hidden : 2 * hidden], sig[2 * hidden :]
        # dc + dh * o * (1 - tanh c_j^2)
        np.multiply(tanh_c, tanh_c, out=tmp_h)
        np.subtract(1.0, tmp_h, out=tmp_h)
        tmp_h *= o
        tmp_h *= dh
        dc += tmp_h
        # a sigmoid gate's derivative: (upstream * its factor) * gate * (1 - gate)
        np.multiply(dc, g, out=d_ai)
        np.multiply(dc, c_prev, out=d_am)
        np.multiply(dh, tanh_c, out=d_ao)
        d_sig *= sig
        np.subtract(1.0, sig, out=tmp)
        d_sig *= tmp
        np.multiply(g, g, out=tmp_h)
        np.subtract(1.0, tmp_h, out=tmp_h)
        np.multiply(dc, i, out=d_ag)
        d_ag *= tmp_h
        np.matmul(d_gates, z.T, out=d_w)
        grads["W"] += d_w
        d_b += d_gates
        if j:  # dh and dc into step j - 1; nothing reads them after step 0
            np.matmul(w_h_t, d_gates, out=dh)
            dc *= m
    grads["b"] += d_b.sum(axis=1)
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
