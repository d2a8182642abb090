"""Metric, split protocols, and comparison sweeps.

R² follows the variance-ratio form

    R² = 1 - Var(alpha - y) / Var(alpha)

with population variances, so a constant offset in the prediction does not
change the score (unlike SSE-based R²).

Intra-session evaluation splits one session into four contiguous folds at
raw-sample boundaries floor(i*T/4) — folds 1-3 train, fold 4 tests — and
each partition is filtered/segmented independently so no window straddles
the boundary and no test sample leaks into preprocessing statistics.
Inter-session evaluation trains on one full session and tests on another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from . import dsp, features, krr, training
from .config import PipelineConfig
from .dsp import SemgRecording
from .errors import ConfigError, InsufficientDataError, UndefinedMetricError
from .training import HybridModel, PredictionTrajectory

DEFAULT_K_SWEEP = (8, 18, 58, 98)
N_FOLDS = 4


def r_squared(alpha: np.ndarray, y: np.ndarray) -> float:
    """Variance-ratio R² of prediction y against ground truth alpha."""
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if alpha.shape != y.shape:
        raise UndefinedMetricError(
            f"trace lengths differ: {alpha.shape} vs {y.shape}"
        )
    if alpha.size < 2:
        raise UndefinedMetricError(f"need at least 2 samples, got {alpha.size}")
    var = np.var(alpha)
    if var <= 0.0:
        raise UndefinedMetricError("ground-truth trace is constant (zero variance)")
    return float(1.0 - np.var(alpha - y) / var)


@dataclass(frozen=True)
class SplitPlan:
    mode: str = "intra"  # intra | inter

    def __post_init__(self):
        if self.mode not in ("intra", "inter"):
            raise ConfigError(f"split mode must be intra or inter, got {self.mode!r}")


def split_session(
    rec: SemgRecording, plan: SplitPlan | None = None
) -> tuple[SemgRecording, SemgRecording]:
    """Quarter the raw session in time; (folds 1-3, fold 4) as raw recordings.

    Splitting happens on raw samples, before any filtering or scaling; the
    caller preprocesses each partition independently. Angle samples follow
    the boundary timestamp. Too-short partitions surface as
    insufficient-data errors downstream when windows/sequences are built.
    """
    if plan is not None and plan.mode != "intra":
        raise ConfigError("split_session implements the intra-session protocol")
    n = rec.emg.shape[0]
    if n < N_FOLDS:
        raise InsufficientDataError(f"cannot quarter {n} samples")
    boundary = (3 * n) // N_FOLDS  # == floor(3T/4), start of the test fold
    t_split = rec.t_emg[boundary]
    ang_train = rec.t_ang < t_split
    train = replace(
        rec,
        emg=rec.emg[:boundary],
        t_emg=rec.t_emg[:boundary],
        angles=rec.angles[ang_train],
        t_ang=rec.t_ang[ang_train],
    )
    test = replace(
        rec,
        emg=rec.emg[boundary:],
        t_emg=rec.t_emg[boundary:],
        angles=rec.angles[~ang_train],
        t_ang=rec.t_ang[~ang_train],
    )
    return train, test


@dataclass
class EvaluationReport:
    """One model's scores and trajectory on one split.

    ``runtime_s`` is wall time, and what it covers depends on the model and
    the driver: cnn-lstm from ``run_evaluation`` counts training plus
    inference, from ``evaluate_model`` inference only; cnn counts inference
    only; krr counts its own filtering, features, tuning, fit and predict;
    a ``sweep_timesteps`` report counts the shared stage 1 plus that k's
    stage 2 and inference.
    """

    model: str  # cnn-lstm | cnn | krr
    protocol: str
    split: str
    dof: list[dict[str, Any]]  # [{"name": ..., "r2": ...}]
    k: int
    matrix_mode: str
    runtime_s: float
    input_len: int = 0
    timestamps: np.ndarray = field(default_factory=lambda: np.zeros(0))
    truths: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    predictions: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.truths = np.asarray(self.truths, dtype=np.float64)
        self.predictions = np.asarray(self.predictions, dtype=np.float64)
        if self.truths.shape != self.predictions.shape:
            raise UndefinedMetricError("true/predicted trajectories differ in shape")
        for entry in self.dof:
            if entry["r2"] > 1.0 + 1e-12:
                raise UndefinedMetricError(f"r2 > 1 in report: {entry}")

    def r2_of(self, name: str) -> float:
        for entry in self.dof:
            if entry["name"] == name:
                return entry["r2"]
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "protocol": self.protocol,
            "split": self.split,
            "dof": [dict(e) for e in self.dof],
            "k": self.k,
            "matrix_mode": self.matrix_mode,
            "runtime_s": self.runtime_s,
            "input_len": self.input_len,
            "trajectory": {
                "t": self.timestamps.tolist(),
                "true": self.truths.tolist(),
                "pred": self.predictions.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EvaluationReport":
        traj = raw.get("trajectory", {})
        return cls(
            model=raw["model"],
            protocol=raw["protocol"],
            split=raw["split"],
            dof=[dict(e) for e in raw["dof"]],
            k=raw["k"],
            matrix_mode=raw["matrix_mode"],
            runtime_s=raw["runtime_s"],
            input_len=raw.get("input_len", 0),
            timestamps=np.array(traj.get("t", []), dtype=np.float64),
            truths=np.array(traj.get("true", []), dtype=np.float64),
            predictions=np.array(traj.get("pred", []), dtype=np.float64),
        )


def _dof_scores(traj: PredictionTrajectory) -> list[dict[str, Any]]:
    return [
        {
            "name": name,
            "r2": r_squared(traj.truths[:, d], traj.predictions[:, d]),
        }
        for d, name in enumerate(traj.dof_names)
    ]


def _traj_report(
    traj: PredictionTrajectory,
    *,
    name: str,
    model: HybridModel,
    test_raw: SemgRecording,
    split: str,
    runtime_s: float,
    input_len: int,
) -> EvaluationReport:
    return EvaluationReport(
        model=name,
        protocol=test_raw.protocol,
        split=split,
        dof=_dof_scores(traj),
        k=model.k,
        matrix_mode=model.matrix_mode,
        runtime_s=runtime_s,
        input_len=input_len,
        timestamps=traj.timestamps,
        truths=traj.truths,
        predictions=traj.predictions,
    )


def _split_descriptor(
    plan: SplitPlan, train: SemgRecording, test: SemgRecording
) -> str:
    if plan.mode == "intra":
        return f"intra:{train.session_id}:folds123/fold4"
    return f"inter:{train.session_id}->{test.session_id}"


def _resolve_partitions(
    data: SemgRecording | Sequence[SemgRecording], plan: SplitPlan
) -> tuple[SemgRecording, SemgRecording]:
    if plan.mode == "intra":
        if not isinstance(data, SemgRecording):
            raise ConfigError("intra-session evaluation takes a single recording")
        return split_session(data)
    if isinstance(data, SemgRecording):
        raise ConfigError("inter-session evaluation needs (train, test) recordings")
    train, test = data
    return train, test


def _krr_report(
    train_raw: SemgRecording,
    test_raw: SemgRecording,
    model: HybridModel,
    split: str,
) -> EvaluationReport:
    """Handcrafted features + PCA-20 + tuned RBF kernel ridge regression,
    windowed in samples exactly as the hybrid was."""
    start = time.perf_counter()
    filtered_train = dsp.apply_filter_chain(train_raw)
    stats = dsp.fit_normalizer(filtered_train)
    window, hop = model.window_samples, model.hop_samples
    train_windows, y_train, _ = dsp.segment_windows(
        dsp.apply_normalizer(stats, filtered_train), window, hop
    )
    test_windows, y_test, test_times = dsp.segment_windows(
        dsp.apply_normalizer(stats, dsp.apply_filter_chain(test_raw)), window, hop
    )
    train_features = features.extract_feature_matrix(train_windows)
    basis = features.fit_pca(train_features)
    x_train = basis.project(train_features)
    x_test = basis.project(features.extract_feature_matrix(test_windows))
    gamma, ridge = krr.tune(x_train, y_train)
    fitted = krr.fit(x_train, y_train, gamma, ridge)
    y_pred = krr.predict(fitted, x_test)
    traj = PredictionTrajectory(
        timestamps=test_times,
        predictions=np.atleast_2d(y_pred),
        truths=y_test,
        dof_names=list(train_raw.dof_names),
    )
    return _traj_report(
        traj,
        name="krr",
        model=model,
        test_raw=test_raw,
        split=split,
        runtime_s=time.perf_counter() - start,
        input_len=window,
    )


def run_evaluation(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
    plan: SplitPlan | None = None,
    baselines: bool = True,
) -> list[EvaluationReport]:
    """Train on the plan's training partition, score every model on the test.

    Returns reports for cnn-lstm, then (if ``baselines``) cnn-only and krr,
    all on the identical split. The cnn-lstm report's runtime_s includes
    training.
    """
    plan = plan or SplitPlan()
    train_raw, test_raw = _resolve_partitions(data, plan)
    start = time.perf_counter()
    run = training.train_hybrid(train_raw, config)
    train_s = time.perf_counter() - start
    reports = evaluate_model(run.model, train_raw, test_raw, plan, baselines)
    reports[0].runtime_s += train_s
    return reports


def evaluate_model(
    model: HybridModel,
    train_raw: SemgRecording,
    test_raw: SemgRecording,
    plan: SplitPlan,
    baselines: bool = False,
) -> list[EvaluationReport]:
    """Score an already-trained hybrid on a split.

    ``train_raw`` is only touched when ``baselines`` is set (the KRR baseline
    must fit on the training partition); the hybrid itself is not retrained.
    """
    split = _split_descriptor(plan, train_raw, test_raw)
    start = time.perf_counter()
    traj = training.predict(model, test_raw)
    reports = [
        _traj_report(
            traj,
            name="cnn-lstm",
            model=model,
            test_raw=test_raw,
            split=split,
            runtime_s=time.perf_counter() - start,
            input_len=model.cnn.input_len,
        )
    ]
    if baselines:
        start = time.perf_counter()
        cnn_traj = training.predict_cnn_only(model, test_raw)
        reports.append(
            _traj_report(
                cnn_traj,
                name="cnn",
                model=model,
                test_raw=test_raw,
                split=split,
                runtime_s=time.perf_counter() - start,
                input_len=model.cnn.input_len,
            )
        )
        reports.append(_krr_report(train_raw, test_raw, model, split))
    return reports


def sweep_timesteps(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
    ks: Sequence[int] = DEFAULT_K_SWEEP,
    plan: SplitPlan | None = None,
    max_workers: int = 1,
) -> list[EvaluationReport]:
    """Stage-2-only k sweep: one shared CNN, one LSTM retraining per k.

    Stage 1 runs once; each k reuses the frozen CNN and deep features, so
    variants are independent and may fan out to ``max_workers`` threads.
    Each report's runtime_s is the shared stage 1 plus that k's stage 2 and
    inference.
    """
    plan = plan or SplitPlan()
    train_raw, test_raw = _resolve_partitions(data, plan)

    shared_start = time.perf_counter()
    stage1 = training._train_cnn_stage(train_raw, config)
    shared_s = time.perf_counter() - shared_start

    def run_k(k: int) -> EvaluationReport:
        start = time.perf_counter()
        model, _ = training._train_lstm_stage(
            stage1, train_raw, replace(config, k=int(k))
        )
        report = evaluate_model(model, train_raw, test_raw, plan, baselines=False)[0]
        report.runtime_s = shared_s + time.perf_counter() - start
        return report

    return _fan_out(run_k, list(ks), max_workers)


def _fan_out(fn, variants: list, max_workers: int) -> list:
    """Run one independent model per variant, optionally on worker threads."""
    if max_workers <= 1 or len(variants) <= 1:
        return [fn(v) for v in variants]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, variants))


def compare_matrix_modes(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
    plan: SplitPlan | None = None,
    max_workers: int = 1,
) -> list[EvaluationReport]:
    """Identical pipeline under both input-matrix modes; spectral first.

    The reports' input_len field records the mode's matrix length (101
    spectral bins vs 102 raw samples at the default window).
    """

    def run_mode(mode: str) -> EvaluationReport:
        mode_config = replace(config, matrix_mode=mode)
        return run_evaluation(mode_config, data, plan, baselines=False)[0]

    return _fan_out(run_mode, ["spectral", "temporal"], max_workers)
