"""Kernel work computed from call shapes, not measured.

Each counter receives a traced call's (args, kwargs, result) and returns the
floating-point operations of its matrix products, in GFLOP, or the bytes a
stacking step copies. Elementwise work is left out. The counts depend only
on the shapes a workload produces, so they repeat exactly from run to run
and can back a count claim where a timing is too noisy.
"""

from __future__ import annotations


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def conv_forward(args, kwargs, result) -> dict[str, float]:
    """cols [B, L, 3*Cin] @ W [3*Cin, Cout]."""
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    batch, length, in_ch = x.shape
    out_ch = layer.W.shape[0]
    return {"gflop": 2.0 * batch * length * 3 * in_ch * out_ch / 1e9}


def conv_backward(args, kwargs, result) -> dict[str, float]:
    """Weight gradient cols^T @ dout plus input gradient dout @ W^T."""
    layer, dout = args[0], _arg(args, kwargs, 1, "dout")
    batch, length, out_ch = dout.shape
    in_ch = layer.W.shape[1]
    return {"gflop": 2 * 2.0 * batch * length * 3 * in_ch * out_ch / 1e9}


def lstm_backward(args, kwargs, result) -> dict[str, float]:
    """Per step, four gate weight gradients and four input-gradient products
    of size [B x H] by [H x (H+F)]; plus the readout's two products."""
    params = _arg(args, kwargs, 0, "params")
    cache = _arg(args, kwargs, 1, "cache")
    dy = _arg(args, kwargs, 2, "dy")
    batch, hidden = dy.shape[0], params.hidden
    width = hidden + params.feature_dim
    steps = len(cache.steps)
    flop = steps * 8 * 2.0 * batch * hidden * width
    flop += 2 * 2.0 * batch * params.n_outputs * hidden
    return {"gflop": flop / 1e9}


def krr_fit(args, kwargs, result) -> dict[str, float]:
    """Kernel Gram product, LU factorization and the triangular solves."""
    n, features = result.support.shape
    outputs = result.coefficients.shape[1] if result.coefficients.ndim == 2 else 1
    flop = 2.0 * n * n * features + (2.0 / 3.0) * n**3 + 2.0 * n * n * outputs
    return {"gflop": flop / 1e9}


def stacked_bytes(args, kwargs, result) -> dict[str, float]:
    """Bytes of the stacked (X, Y) arrays, each a fresh copy."""
    x, y = result
    return {"bytes": float(x.nbytes + y.nbytes)}


COUNT_UNITS = ("gflop", "bytes")
COUNTERS = {
    "nn.Conv1d.forward": conv_forward,
    "nn.Conv1d.backward": conv_backward,
    "lstm.lstm_backward": lstm_backward,
    "krr.fit": krr_fit,
    "lstm.stack_sequences": stacked_bytes,
    "dsp.stack_matrices": stacked_bytes,
}
