"""Every shape counter of the benchmark reads a real call.

``emgbench/run.py --trace 1`` hands each traced call of a function named in
``counts.COUNTERS`` to its counter, with the call's arguments and result.
A counter reads what it needs from them: ``lstm_backward`` the length of
the BPTT cache's ``steps``, ``krr_fit`` the fitted model's arrays. If the
layout of such an argument or result changes under a counter, the traced
run fails or reads a wrong count. Here the tracer is installed with the
counters and each counted function is called once at a small real shape,
through the binding the pipeline calls, and every figure must come out
finite and positive.
"""

import math
from pathlib import Path

import numpy as np

from emgkin import dsp, krr, lstm, nn

BENCH_DIR = Path(__file__).resolve().parent.parent / "emgbench"


def _conv_layer():
    return nn.Conv1d(6, 16, np.random.default_rng(0), 0.1, np.float32)


def _conv_input():
    return np.random.default_rng(1).standard_normal((4, 101, 6)).astype(np.float32)


def _conv_backward():
    layer = _conv_layer()
    out = layer.forward(_conv_input(), "train")
    layer.backward(np.ones_like(out))


def _lstm_backward():
    params = lstm.init_lstm_params(n_outputs=3, seed=2)
    seqs = np.random.default_rng(3).standard_normal((5, 4, nn.FEATURE_DIM))
    y, cache = lstm.lstm_forward_batch(
        params, seqs.astype(np.float32), mode="train", rng=np.random.default_rng(4)
    )
    lstm.lstm_backward(params, cache, np.ones_like(y))


def _krr_fit():
    rng = np.random.default_rng(5)
    krr.fit(rng.standard_normal((12, 3)), rng.standard_normal((12, 2)), 0.5, 1e-2)


def _stack_sequences():
    rng = np.random.default_rng(6)
    lstm.stack_sequences(rng.standard_normal((10, 4)), rng.standard_normal((10, 1)), 3)


def _stack_matrices():
    rng = np.random.default_rng(7)
    dsp.stack_matrices(rng.standard_normal((3, 102, 6)), rng.standard_normal((3, 1)), "spectral")


CALLS = {
    "nn.Conv1d.forward": lambda: _conv_layer().forward(_conv_input(), "train"),
    "nn.Conv1d.backward": _conv_backward,
    "lstm.lstm_backward": _lstm_backward,
    "krr.fit": _krr_fit,
    "lstm.stack_sequences": _stack_sequences,
    "dsp.stack_matrices": _stack_matrices,
}


def test_every_counter_reads_a_real_call(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from counts import COUNT_UNITS, COUNTERS
    from spans import Tracer

    assert set(CALLS) == set(COUNTERS), "a counter without a call here, or a stale call"
    tracer = Tracer(COUNTERS)
    tracer.install()
    try:
        for call in CALLS.values():
            call()
    finally:
        tracer.uninstall()
    for name in COUNTERS:
        figures = {
            key: value for key, value in tracer.counts.items() if key.startswith(name + ".")
        }
        assert figures, f"{name}: its counter never ran"
        for key, value in figures.items():
            assert key.rsplit(".", 1)[1] in COUNT_UNITS, key
            assert math.isfinite(value) and value > 0, (key, value)
