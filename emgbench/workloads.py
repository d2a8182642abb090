"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop: one caller issues one emgkin command at a
time and waits for it, in one process. ``setup`` makes the inputs from the
seed, in this process too, except for model training, which runs in a child
process so that its memory peak stays out of the timed part's peak RSS.
``iterate`` runs the timed part once and returns an
``Iteration`` with the time of every operation it issued; ``check`` then
inspects the outputs, outside the timed part and outside any trace, and
records the R² values and extra figures for the report.
"""

from __future__ import annotations

import contextlib
import csv
import io as stdio
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# The infer workload's held-out recording is generated with this offset
# added to the workload seed, so it never equals a training seed.
HELD_OUT_RECORDING_OFFSET = 1000
# Floors of the acceptance gate's intra P1 accuracy guarantees, which the
# gate asserts for a 60 s session generated and trained with seed 1. The KRR
# floor holds on every seed (R² 0.93-0.96 on seeds 1-15). The hybrid floor
# does not: at desk scale 11 of seeds 2-15 gave hybrid R² below 0.8, down to
# 0.40, so it is checked on the gate's seed only.
GATE_SEED = 1
INTRA_HYBRID_R2_FLOOR = 0.8
INTRA_KRR_R2_FLOOR = 0.5
SWEEP_KS = (8, 18, 58, 98)
SETUP_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Iteration:
    ops: list[Op]
    outputs: dict = field(default_factory=dict)  # what ``check`` inspects
    r2: dict[str, float] = field(default_factory=dict)  # by a stable key
    figures: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def ok(self) -> bool:
        return not any(op.problems for op in self.ops)


def run_cli(args: list[str]) -> Op:
    """Invoke the emgkin CLI in this process and time it."""
    from emgkin import cli

    out, err = stdio.StringIO(), stdio.StringIO()
    op = Op(args[0], 0.0)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            op.problems.append(f"emgkin {args[0]} exited {exc.code}: {err.getvalue().strip()}")
    except Exception as exc:  # any failure of the command counts against the run
        op.problems.append(f"emgkin {args[0]} raised {exc!r}")
    op.seconds = perf_counter() - start
    return op


def run_call(name: str, fn, *args):
    """Time one library call; returns (op, result or None)."""
    op = Op(name, 0.0)
    result = None
    start = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # any failure of the call counts against the run
        op.problems.append(f"{name} raised {exc!r}")
    op.seconds = perf_counter() - start
    return op, result


def run_setup_cli(args: list[str]) -> None:
    """Run one set-up command of the emgkin CLI in this process."""
    op = run_cli(args)
    if op.problems:
        raise SetupError("; ".join(op.problems))


def run_cli_child(args: list[str], env: dict[str, str]) -> None:
    """Run the emgkin CLI in a child process and wait for it (set-up only)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "emgkin.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"emgkin {' '.join(args)} ran past {SETUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SetupError(
            f"emgkin {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def _report_problems(report) -> list[str]:
    problems = []
    if report.predictions.shape != report.truths.shape:
        problems.append(
            f"{report.model} k={report.k}: prediction shape "
            f"{report.predictions.shape} != truth shape {report.truths.shape}"
        )
    if report.predictions.shape[0] != report.timestamps.shape[0]:
        problems.append(f"{report.model} k={report.k}: timestamps do not match rows")
    if not np.all(np.isfinite(report.predictions)):
        problems.append(f"{report.model} k={report.k}: non-finite predictions")
    for entry in report.dof:
        if not math.isfinite(entry["r2"]):
            problems.append(f"{report.model} k={report.k}: R² of {entry['name']} is {entry['r2']}")
    return problems


def _mean_r2(report) -> float:
    return float(np.mean([entry["r2"] for entry in report.dof]))


def _loss_problems(path: Path) -> list[str]:
    try:
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(row["loss"]) for row in rows]
    except (OSError, KeyError, ValueError) as exc:
        return [f"loss history {path.name} does not parse: {exc!r}"]
    if not losses or not all(math.isfinite(v) for v in losses):
        return [f"loss history {path.name} is empty or non-finite"]
    return []


class Workload:
    name = ""
    setup_reps = 3  # set-up is timed this many times; setup_s is the median

    def __init__(self, work: Path, seed: int, env: dict[str, str]):
        self.work = work
        self.seed = seed
        self.env = env

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def iterate(self) -> Iteration:
        """Run the timed part once; inspect nothing."""
        raise NotImplementedError

    def check(self, it: Iteration) -> None:
        """Check ``it``'s outputs; fill its R² and figures, or add problems
        to the operation that produced a bad output."""
        raise NotImplementedError

    def _fresh(self, path: Path) -> Path:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        return path


class IntraP1Desk(Workload):
    """The north-star experiment: CNN training (conv/pool backward, SGDM)
    and krr.tune do most of the work; the LSTM (k=18, batch 64) does little."""

    name = "intra-p1-desk"

    def setup(self, rep: int) -> None:
        self.data = self._fresh(self.work / f"p1-rep{rep}")
        run_setup_cli(
            ["synth", "gen", "--protocol", "P1", "--duration", "60",
             "--seed", str(self.seed), "--out", str(self.data)]
        )

    def iterate(self) -> Iteration:
        ckpt = self._fresh(self.work / "p1.ckpt")
        self._fresh(self.work / "p1.losses.csv")
        report = self._fresh(self.work / "p1-report.json")
        train = run_cli(
            ["train", "--data", str(self.data), "--out", str(ckpt), "--desk",
             "--seed", str(self.seed)]
        )
        evaluate = run_cli(
            ["eval", "--model", str(ckpt), "--data", str(self.data),
             "--report", str(report), "--baselines"]
        )
        return Iteration([train, evaluate])

    def check(self, it: Iteration) -> None:
        train, evaluate = it.ops
        it.figures.update(train_s=train.seconds, eval_s=evaluate.seconds)
        if not train.problems:
            train.problems += _loss_problems(self.work / "p1.losses.csv")
        if not evaluate.problems:
            evaluate.problems += self._check_reports(
                self.work / "p1-report.json", it.r2, it.figures
            )

    def _check_reports(self, path: Path, r2: dict, figures: dict) -> list[str]:
        from emgkin.evaluation import EvaluationReport

        try:
            with open(path) as fh:
                reports = [EvaluationReport.from_dict(raw) for raw in json.load(fh)]
        except Exception as exc:  # a report that does not parse fails the run
            return [f"eval report does not parse: {exc!r}"]
        by_model = {report.model: report for report in reports}
        if sorted(by_model) != ["cnn", "cnn-lstm", "krr"]:
            return [f"eval report models are {sorted(by_model)}"]
        problems = []
        for report in reports:
            problems += _report_problems(report)
            for entry in report.dof:
                r2[f"{report.model}.{entry['name']}"] = entry["r2"]
        hybrid = by_model["cnn-lstm"]
        # One hybrid prediction per k-window sequence, one per window otherwise.
        windows = hybrid.predictions.shape[0] + hybrid.k - 1
        for model in ("cnn", "krr"):
            if by_model[model].predictions.shape[0] != windows:
                problems.append(f"{model} has {by_model[model].predictions.shape[0]} "
                                f"rows, the hybrid implies {windows} windows")
        figures["r2_hybrid"] = _mean_r2(hybrid)
        figures["r2_cnn"] = _mean_r2(by_model["cnn"])
        figures["r2_krr"] = _mean_r2(by_model["krr"])
        if self.seed == GATE_SEED and not figures["r2_hybrid"] >= INTRA_HYBRID_R2_FLOOR:
            problems.append(f"hybrid R² {figures['r2_hybrid']} < {INTRA_HYBRID_R2_FLOOR}")
        if not figures["r2_krr"] > INTRA_KRR_R2_FLOOR:
            problems.append(f"KRR R² {figures['r2_krr']} <= {INTRA_KRR_R2_FLOOR}")
        return problems


class KsweepP4Desk(Workload):
    """LSTM forward and BPTT up to k=98 do about half the work, plus one CNN
    training. No KRR or features run, so changes there must not move it."""

    name = "ksweep-p4-desk"

    def setup(self, rep: int) -> None:
        self.data = self._fresh(self.work / f"p4-rep{rep}")
        run_setup_cli(
            ["synth", "gen", "--protocol", "P4", "--duration", "60",
             "--seed", str(self.seed), "--out", str(self.data)]
        )

    def iterate(self) -> Iteration:
        out = self._fresh(self.work / "ksweep")
        sweep = run_cli(
            ["sweep", "--what", "timesteps", "--data", str(self.data),
             "--out", str(out), "--desk", "--seed", str(self.seed)]
        )
        return Iteration([sweep])

    def check(self, it: Iteration) -> None:
        (sweep,) = it.ops
        if not sweep.problems:
            sweep.problems += self._check_reports(self.work / "ksweep", it.r2, it.figures)

    def _check_reports(self, out: Path, r2: dict, figures: dict) -> list[str]:
        from emgkin import io

        problems = []
        means = []
        windows = set()  # each k's rows + k - 1 is the test partition's window count
        for k in SWEEP_KS:
            try:
                report = io.read_report(out / f"k{k}.json")
            except Exception as exc:  # a report that does not parse fails the run
                problems.append(f"sweep report k{k} does not parse: {exc!r}")
                continue
            if report.k != k or report.model != "cnn-lstm":
                problems.append(f"sweep report k{k} holds {report.model} k={report.k}")
            problems += _report_problems(report)
            for entry in report.dof:
                r2[f"k{k}.{entry['name']}"] = entry["r2"]
            means.append(_mean_r2(report))
            windows.add(report.predictions.shape[0] + k - 1)
        if len(windows) > 1:
            problems.append(f"sweep reports imply different window counts {sorted(windows)}")
        try:
            with open(out / "summary.csv") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            rows = []
            problems.append(f"sweep summary missing: {exc!r}")
        if len(rows) != len(SWEEP_KS):
            problems.append(f"sweep summary has {len(rows)} rows, expected {len(SWEEP_KS)}")
        if means and not problems:
            figures["r2_hybrid"] = float(np.mean(means))
        return problems


class InferLongP1(Workload):
    """Batch inference over a 300 s recording: the nn and lstm forward code
    runs at batch ~6000 instead of 64-128, with no backward, optimizer or KRR.
    The recording peaks near 2 GB RSS, so it stays near 300 s. Set-up trains
    a model, so it runs once."""

    name = "infer-long-p1"
    setup_reps = 1
    duration_s = 300

    def setup(self, rep: int) -> None:
        from emgkin import synth

        train_data = self._fresh(self.work / "p1-train")
        self.ckpt = self._fresh(self.work / "p1.ckpt")
        run_setup_cli(
            ["synth", "gen", "--protocol", "P1", "--duration", "60",
             "--seed", str(self.seed), "--out", str(train_data)]
        )
        run_cli_child(
            ["train", "--data", str(train_data), "--out", str(self.ckpt), "--desk",
             "--seed", str(self.seed)],
            self.env,
        )
        self.recording = synth.generate(
            synth.SynthConfig(
                protocol="P1",
                duration_s=self.duration_s,
                seed=self.seed + HELD_OUT_RECORDING_OFFSET,
            )
        )
        self.first_predictions = None

    def iterate(self) -> Iteration:
        from emgkin import io, training

        load, model = run_call("load_model", io.load_model, self.ckpt)
        if load.problems:
            return Iteration([load])
        predict, traj = run_call("predict", training.predict, model, self.recording)
        return Iteration([load, predict], {"model": model, "traj": traj})

    def check(self, it: Iteration) -> None:
        from emgkin import evaluation

        if not it.ok:
            return
        model, traj = it.outputs.pop("model"), it.outputs.pop("traj")
        problems = it.ops[-1].problems
        n_samples = self.recording.emg.shape[0]
        windows = (n_samples - model.window_samples) // model.hop_samples + 1
        if traj.predictions.shape != traj.truths.shape:
            problems.append(
                f"prediction shape {traj.predictions.shape} != truth shape {traj.truths.shape}"
            )
        if traj.predictions.shape[0] != windows - model.k + 1:
            problems.append(
                f"{traj.predictions.shape[0]} predictions, expected {windows - model.k + 1}"
            )
        if not np.all(np.isfinite(traj.predictions)):
            problems.append("non-finite predictions")
        for d, name in enumerate(traj.dof_names):
            it.r2[name] = evaluation.r_squared(traj.truths[:, d], traj.predictions[:, d])
            if not math.isfinite(it.r2[name]):
                problems.append(f"R² of {name} is {it.r2[name]}")
        if self.first_predictions is None:
            self.first_predictions = traj.predictions
        elif not np.array_equal(self.first_predictions, traj.predictions):
            problems.append("predictions differ from the first iteration's")
        it.figures.update(
            infer_windows_per_s=windows / it.seconds,
            windows=float(windows),
            r2_hybrid=float(np.mean(list(it.r2.values()))),
        )


WORKLOADS = {cls.name: cls for cls in (IntraP1Desk, KsweepP4Desk, InferLongP1)}
