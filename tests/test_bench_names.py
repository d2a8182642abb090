"""Every per-layer metric that BENCHMARK.json names must resolve.

``emgbench/run.py --trace 1`` looks each ``per_layer`` name up in the span
tracer (a traced function or method, with an optional ``.train``/``.eval``
mode) or in the shape counters, and raises KeyError for a name that matches
neither. Renaming or deleting a traced function breaks the benchmark that
way. A count metric resolves whenever its base is a ``counts.COUNTERS`` key,
and reads 0 if no traced function has that name, so every key must name a
traced function too. Here the tracer is installed without running a
workload, so the checks cost nothing but the import.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "emgbench"


def test_every_per_layer_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from counts import COUNTERS
    from run import per_layer_metrics
    from spans import TRACED_MODULES, Tracer

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # Names outside the traced modules (trace.*, unattributed_s, r2_*) are
    # figures the run computes itself and passes in as extras.
    extras = {
        spec["name"]: 0.0
        for spec in specs
        if spec["name"].split(".")[0] not in TRACED_MODULES
    }
    tracer = Tracer(COUNTERS)
    tracer.install()
    try:
        metrics = per_layer_metrics(specs, tracer, extras)
    finally:
        tracer.uninstall()
    assert set(metrics) == {spec["name"] for spec in specs}
    # a counter keyed by a renamed or deleted function would read 0
    assert set(COUNTERS) <= tracer.span_names, set(COUNTERS) - tracer.span_names
