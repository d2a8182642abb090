"""Float32 kernels held to the answers of their float64 twins, and to their
own bytes from one call to the next.

A kernel whose float32 arithmetic is reordered cannot keep its bytes, so it
is held to its accuracy instead. Every layer and the LSTM run in either
dtype, so the same code in float64, on the same float32 inputs and
parameters, is the reference. For one seeded input an output's error is
normwise, max |out32 - out64| / max |out64| (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., ch. 3). Over ``N_SEEDS`` seeds
the median and the largest error of every output may not exceed its bound
in ``BOUNDS`` times ``ERROR_FACTOR``.

``BOUNDS`` are the errors of the kernels as they stood before batch norm's
backward factored gamma out of its sums and the LSTM went gate-major, each
rounded up in its third digit, measured on a 2-core Haswell-class host
with scipy-openblas 0.3.31. The float32 runs are training's: parameters,
inputs and upstream gradients all float32. Pool's forward is a max, which
is exact, so its bound is 0.

Batch norm's column sums and every LSTM product run in BLAS, which may
split them over threads; a second call with equal inputs must still give
the first call's bytes, in either dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import REAL_CONV_SHAPES
from emgkin import lstm, nn

N_SEEDS = 20
# How much larger than its recorded bound a kernel's median or largest
# error may be. Batch norm and the LSTM as recorded, over five other sets of
# 20 seeds, read 0.65-1.36 times their median bounds and 0.41-1.70 times
# their largest: a reordered kernel within 1.5 times is as accurate.
ERROR_FACTOR = 1.5

# (batch, k) of the LSTM: training's batch at the sweep's two ends, and
# the P4 desk sweep's last batch at k = 58.
LSTM_SHAPES = [(64, 18), (64, 98), (37, 58)]


def _draw(rng, shape, dtype):
    """Standard normal values rounded to float32, then given ``dtype``, so
    the float64 twin sees the float32 run's inputs exactly."""
    return rng.standard_normal(shape).astype(np.float32).astype(dtype)


def _conv_output_shape(shape):
    batch, _, out_ch, length = shape
    return batch, length, out_ch


def batchnorm(shape, seed, dtype):
    """Train forward and backward of batch norm on a conv's output map."""
    rng = np.random.default_rng(seed)
    shape = _conv_output_shape(shape)
    channels = shape[-1]
    layer = nn.BatchNorm(channels, dtype)
    layer.gamma = _draw(rng, channels, dtype)
    layer.beta = _draw(rng, channels, dtype)
    x = _draw(rng, shape, dtype) + _draw(rng, channels, dtype)
    out = layer.forward(x, "train")
    dx = layer.backward(_draw(rng, shape, dtype))
    return {"out": out, "dx": dx, "dgamma": layer.dgamma, "dbeta": layer.dbeta}


def conv(shape, seed, dtype):
    rng = np.random.default_rng(seed)
    batch, in_ch, out_ch, length = shape
    layer = nn.Conv1d(in_ch, out_ch, rng, nn.DEFAULT_LEAKY_SLOPE, np.float32)
    layer.W = layer.W.astype(dtype)
    layer.b = _draw(rng, out_ch, dtype)
    out = layer.forward(_draw(rng, (batch, length, in_ch), dtype), "train")
    dx = layer.backward(_draw(rng, out.shape, dtype))
    return {"out": out, "dx": dx, "dW": layer.dW, "db": layer.db}


def pool(shape, seed, dtype):
    rng = np.random.default_rng(seed)
    layer = nn.MaxPool1d()
    out = layer.forward(_draw(rng, _conv_output_shape(shape), dtype), "train")
    return {"out": out, "dx": layer.backward(_draw(rng, out.shape, dtype))}


def lstm_step(shape, seed, dtype):
    """A train-mode forward of the recipe's LSTM (H = 50, F = 20, three
    outputs) and the BPTT that follows it."""
    batch, k = shape
    params = lstm.init_lstm_params(n_outputs=3, seed=seed)
    params = lstm.LstmParams(**{n: a.astype(dtype) for n, a in params.parameters().items()})
    rng = np.random.default_rng(seed)
    seqs = _draw(rng, (batch, k, nn.FEATURE_DIM), dtype)
    y, cache = lstm.lstm_forward_batch(params, seqs, "train", np.random.default_rng(seed))
    grads = lstm.lstm_backward(params, cache, _draw(rng, y.shape, dtype))
    return {"y": y, **{f"d{name}": grads[name] for name in lstm.PARAM_NAMES}}


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| / max |ref|, in float64."""
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(got.astype(np.float64) - ref))) / scale


def float64_errors(kernel, shape, seeds=range(N_SEEDS)) -> dict[str, tuple[float, float]]:
    """{output: (median, largest)} of the float32 kernel's errors against
    its float64 twin over the seeds."""
    errors: dict[str, list[float]] = {}
    for seed in seeds:
        got, ref = kernel(shape, seed, np.float32), kernel(shape, seed, np.float64)
        for name, ref_out in ref.items():
            assert got[name].dtype == np.float32 and ref_out.dtype == np.float64, name
            errors.setdefault(name, []).append(relative_error(got[name], ref_out))
    return {name: (float(np.median(e)), max(e)) for name, e in errors.items()}


BOUNDS = {
    ("batchnorm", (128, 6, 16, 101)): {
        "out": (1.51e-6, 2.49e-6), "dx": (1.13e-6, 2.30e-6),
        "dgamma": (3.01e-6, 1.12e-5), "dbeta": (2.22e-6, 3.29e-6),
    },
    ("batchnorm", (128, 16, 16, 99)): {
        "out": (1.05e-6, 2.06e-6), "dx": (1.03e-6, 1.83e-6),
        "dgamma": (2.68e-6, 5.95e-6), "dbeta": (1.98e-6, 3.34e-6),
    },
    ("batchnorm", (128, 16, 32, 97)): {
        "out": (1.36e-6, 2.60e-6), "dx": (1.19e-6, 2.26e-6),
        "dgamma": (3.04e-6, 7.34e-6), "dbeta": (2.67e-6, 5.49e-6),
    },
    ("batchnorm", (128, 32, 32, 95)): {
        "out": (1.57e-6, 3.00e-6), "dx": (1.09e-6, 2.94e-6),
        "dgamma": (3.06e-6, 1.23e-5), "dbeta": (2.38e-6, 3.58e-6),
    },
    ("conv", (128, 6, 16, 101)): {
        "out": (1.68e-7, 2.07e-7), "dx": (1.35e-7, 1.72e-7),
        "dW": (4.00e-7, 5.40e-7), "db": (2.42e-6, 4.07e-6),
    },
    ("conv", (128, 16, 16, 99)): {
        "out": (2.55e-7, 3.14e-7), "dx": (1.39e-7, 1.64e-7),
        "dW": (4.25e-7, 5.35e-7), "db": (2.02e-6, 4.52e-6),
    },
    ("conv", (128, 16, 32, 97)): {
        "out": (2.62e-7, 2.99e-7), "dx": (1.80e-7, 2.26e-7),
        "dW": (4.00e-7, 5.68e-7), "db": (2.37e-6, 4.32e-6),
    },
    ("conv", (128, 32, 32, 95)): {
        "out": (3.49e-7, 4.29e-7), "dx": (1.78e-7, 2.08e-7),
        "dW": (4.05e-7, 5.89e-7), "db": (2.52e-6, 4.42e-6),
    },
    ("pool", (128, 6, 16, 101)): {"out": (0.0, 0.0), "dx": (6.39e-8, 6.71e-8)},
    ("pool", (128, 16, 16, 99)): {"out": (0.0, 0.0), "dx": (6.32e-8, 6.89e-8)},
    ("pool", (128, 16, 32, 97)): {"out": (0.0, 0.0), "dx": (6.29e-8, 7.05e-8)},
    ("pool", (128, 32, 32, 95)): {"out": (0.0, 0.0), "dx": (6.25e-8, 7.33e-8)},
    ("lstm_step", (64, 18)): {
        "y": (1.60e-7, 2.22e-7), "dW": (2.70e-7, 3.86e-7), "db": (1.84e-7, 2.28e-7),
        "dW_y": (2.25e-7, 4.11e-7), "db_y": (1.29e-7, 4.84e-7),
    },
    ("lstm_step", (64, 98)): {
        "y": (1.62e-7, 1.98e-7), "dW": (4.43e-7, 7.75e-7), "db": (3.07e-7, 6.17e-7),
        "dW_y": (2.36e-7, 4.20e-7), "db_y": (1.50e-7, 3.63e-7),
    },
    ("lstm_step", (37, 58)): {
        "y": (1.59e-7, 2.53e-7), "dW": (3.61e-7, 5.43e-7), "db": (2.47e-7, 4.46e-7),
        "dW_y": (1.79e-7, 2.79e-7), "db_y": (1.39e-7, 5.54e-7),
    },
}

CASES = [(kernel, shape) for kernel in (batchnorm, conv, pool) for shape in REAL_CONV_SHAPES]
CASES += [(lstm_step, shape) for shape in LSTM_SHAPES]


@pytest.mark.parametrize(
    "kernel, shape", CASES, ids=[f"{k.__name__}-{'x'.join(map(str, s))}" for k, s in CASES]
)
def test_float32_kernel_is_as_accurate_as_recorded(kernel, shape):
    bounds = BOUNDS[kernel.__name__, shape]
    measured = float64_errors(kernel, shape)
    assert measured.keys() == bounds.keys()
    for name, (median, largest) in measured.items():
        bound_median, bound_largest = bounds[name]
        assert median <= ERROR_FACTOR * bound_median, (name, "median", median, bound_median)
        assert largest <= ERROR_FACTOR * bound_largest, (name, "largest", largest, bound_largest)



def batchnorm_backward_twice(shape, dtype):
    rng = np.random.default_rng(5)
    shape = _conv_output_shape(shape)
    layer = nn.BatchNorm(shape[-1], dtype)
    layer.forward(_draw(rng, shape, dtype), "train")
    dout = _draw(rng, shape, dtype)
    runs = []
    for _ in range(2):
        dx = layer.backward(dout)
        runs.append({"dx": dx, "dgamma": layer.dgamma, "dbeta": layer.dbeta})
    return runs


def lstm_twice(shape, dtype):
    """Two forwards, each followed by two BPTT calls on its cache."""
    batch, k = shape
    rng = np.random.default_rng(5)
    params = lstm.init_lstm_params(n_outputs=3, seed=5)
    params = lstm.LstmParams(**{n: a.astype(dtype) for n, a in params.parameters().items()})
    seqs = _draw(rng, (batch, k, nn.FEATURE_DIM), dtype)
    dy = _draw(rng, (batch, 3), dtype)
    runs = []
    for _ in range(2):
        y, cache = lstm.lstm_forward_batch(params, seqs, "train", np.random.default_rng(6))
        runs.append({"y": y, **lstm.lstm_backward(params, cache, dy)})
        runs.append(lstm.lstm_backward(params, cache, dy))
    return runs


REPEAT_CASES = [(batchnorm_backward_twice, s) for s in REAL_CONV_SHAPES]
REPEAT_CASES += [(lstm_twice, s) for s in LSTM_SHAPES[:2]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "layer_runs, shape",
    REPEAT_CASES,
    ids=[f"{f.__name__}-{'x'.join(map(str, s))}" for f, s in REPEAT_CASES],
)
def test_layer_gives_the_same_bytes_twice(layer_runs, shape, dtype):
    """BatchNorm.backward at each conv's output map, and lstm_forward_batch
    and lstm_backward at batch 64 for k = 18 and 98: repeated calls with
    equal inputs, each on the state the one before left, give the first
    call's bytes."""
    first, *rest = layer_runs(shape, dtype)
    for run in rest:
        for name, arr in run.items():
            assert arr.dtype == first[name].dtype == dtype, name
            assert arr.tobytes() == first[name].tobytes(), name
