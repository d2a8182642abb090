"""emgkin benchmark: one workload, one seed, one JSON result line.

    python3 emgbench/run.py --workload intra-p1-desk --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``. Set-up makes the workload's inputs from ``--seed`` and is timed as
``setup_s``. The timed part then repeats until
``--seconds`` have passed (at least once), and every operation's output is
checked. With ``--trace 0`` the last line carries the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` the timed part runs
untraced, then once more under the span tracer, and the last line carries
the per-layer metrics. Any failed check prints the problems, reports no
timings and exits 1. See ``emgbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".emgbench"
# Seed kept out of every run made while building the benchmark; a later
# performance claim is confirmed on it.
HELD_OUT_SEED = 97
SPAN_STATS = ("calls", "s", "self_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_digest() -> str:
    """sha256 over the package's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "emgkin").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build record; the thread count
    from the loaded OpenBLAS library, when it exports the query."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                info["threads"] = query()
                return info
    return info


def environment(seed: int, digest: str) -> dict:
    import numpy as np
    import scipy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": os.cpu_count(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "EMGKIN_THREADS": os.environ["EMGKIN_THREADS"],
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
        "code_sha256": digest,
        "seeds": {"workload": seed, "held_out": HELD_OUT_SEED},
    }


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, summed over this
    machine's CPUs (the steal column of /proc/stat; 0 where it is absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def determinism_problems(key: str, r2: dict[str, float]) -> list[str]:
    """Compare this run's R² values with those an earlier run of the same
    code, workload and seed left in the checkout; they must be equal bit for
    bit. The first run of a key records its values."""
    path = WORK_DIR / "r2-record.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    mine = {name: float(value).hex() for name, value in sorted(r2.items())}
    if key not in record:
        record[key] = mine
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return []
    if record[key] != mine:
        return [f"R² values differ from an earlier run of the same code: {record[key]} vs {mine}"]
    return []


def per_layer_metrics(specs, tracer, extras) -> dict:
    from counts import COUNT_UNITS, COUNTERS

    table = tracer.summary()
    metrics = {}
    for spec in specs:
        name = spec["name"]
        base, _, stat = name.rpartition(".")
        if name in extras:
            value = extras[name]
        elif stat in COUNT_UNITS and base in COUNTERS:
            value = tracer.counts.get(name, 0.0)
        elif stat in SPAN_STATS and base in tracer.span_names:
            value = table.get(base, {}).get(stat, 0)
        else:
            raise KeyError(f"per-layer metric {name} names no traced function or count")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def print_span_table(tracer) -> None:
    rows = sorted(tracer.summary().items(), key=lambda item: -item[1]["self_s"])
    print(f"{'span':48s} {'calls':>7s} {'s':>10s} {'self_s':>10s}")
    for name, row in rows:
        print(f"{name:48s} {row['calls']:7d} {row['s']:10.4f} {row['self_s']:10.4f}")
    for name, value in sorted(tracer.counts.items()):
        print(f"{name:48s} {value:.6g} (computed from call shapes)")


def run(args, spec) -> int:
    from counts import COUNTERS
    from spans import Tracer
    from workloads import WORKLOADS, SetupError

    workload_cls = WORKLOADS[args.workload]
    digest = code_digest()
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = workload_cls(work, args.seed, child_env)
    print("environment: " + json.dumps(environment(args.seed, digest), sort_keys=True))

    try:
        setup_times = []
        for rep in range(workload.setup_reps):
            start = perf_counter()
            workload.setup(rep)
            setup_times.append(perf_counter() - start)

        iterations = []
        steal_before = cpu_steal_s()
        start = perf_counter()
        while not iterations or perf_counter() - start < args.seconds:
            it = workload.iterate()
            workload.check(it)
            iterations.append(it)
            if not it.ok:
                break
        steal = cpu_steal_s() - steal_before
        tracer = None
        if args.trace and iterations[-1].ok:
            tracer = Tracer(COUNTERS)
            tracer.install()
            try:
                it = workload.iterate()
            finally:
                tracer.uninstall()
            workload.check(it)
            iterations.append(it)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = f"{workload.name}:seed{args.seed}:code{digest[:16]}"
    for it in iterations:
        if it.ok:
            it.ops[-1].problems += determinism_problems(key, it.r2)
    ops = [op for it in iterations for op in it.ops]
    failed = sum(1 for op in ops if op.problems)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": {}}
    if failed:
        for op in ops:
            for problem in op.problems:
                print(f"check failed ({op.name}): {problem}", file=sys.stderr)
        print(json.dumps(result))
        return 1

    untraced = iterations[:-1] if tracer else iterations
    wall = statistics.median(it.seconds for it in untraced)
    figures = dict(iterations[-1].figures)
    for name in ("train_s", "eval_s", "infer_windows_per_s"):
        values = [it.figures[name] for it in untraced if name in it.figures]
        if values:
            figures[name] = statistics.median(values)
    print(
        "workload metrics: "
        + json.dumps(
            {
                "workload": workload.name,
                "iterations": len(untraced),
                "setup_s_each": setup_times,
                "wall_s_each": [it.seconds for it in untraced],
                "fail_frac": failed / len(ops),
                "cpu_steal_s": steal,
                **figures,
            },
            sort_keys=True,
        )
    )
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["metrics"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    else:
        traced = iterations[-1]
        extras = {
            "trace.wall_s": traced.seconds,
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": traced.seconds - wall,
            "trace.spans": len(tracer.names),
            "unattributed_s": traced.seconds - tracer.root_seconds(),
            "r2_hybrid": traced.figures.get("r2_hybrid", 0.0),
            "r2_cnn": traced.figures.get("r2_cnn", 0.0),
            "r2_krr": traced.figures.get("r2_krr", 0.0),
        }
        result["metrics"] = per_layer_metrics(spec["per_layer"], tracer, extras)
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print_span_table(tracer)
        print(f"wrote {spans_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emgkin" / "__init__.py").is_file():
        print(f"emgbench: no emgkin package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    # The library's default threading: one sweep worker, OpenBLAS default.
    os.environ["EMGKIN_THREADS"] = "1"
    import emgkin

    if Path(emgkin.__file__).resolve().parent != (SRC / "emgkin").resolve():
        print(f"emgbench: imported emgkin from {emgkin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"emgbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
