"""Metric, split protocols, and comparison sweeps.

R² follows the variance-ratio form

    R² = 1 - Var(alpha - y) / Var(alpha)

with population variances, so a constant offset in the prediction does not
change the score (unlike SSE-based R²).

``partition`` is the one split decision, and the sessions given make it.
One session is scored intra-session: it is split into four contiguous folds
at raw-sample boundaries floor(i*T/4) — folds 1-3 train, fold 4 tests — and
each partition is filtered/segmented independently so no window straddles
the boundary and no test sample leaks into preprocessing statistics. A pair
of sessions is scored inter-session: train on the whole first, test on the
whole second; the two must share protocol, EMG rate and channel count.
Every partition is conditioned (filter, scale, window) by ``dsp.condition``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Any, Sequence

import numpy as np

from . import dsp, features, krr, training
from .config import PipelineConfig
from .dsp import SemgRecording
from .errors import ConfigError, DataError, InsufficientDataError, UndefinedMetricError
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


def partition(
    data: SemgRecording | Sequence[SemgRecording],
) -> tuple[SemgRecording, SemgRecording, str]:
    """(train, test, split name): the sessions given decide the protocol.

    One recording (or a sequence of one) is quartered by ``split_session``;
    a pair trains on the whole first session and tests on the whole second.
    A pair of two protocols, two EMG rates or two channel counts raises
    DataError (``dsp.require_match``).
    """
    sessions = [data] if isinstance(data, SemgRecording) else list(data)
    if len(sessions) == 1:
        train, test = split_session(sessions[0])
        return train, test, f"intra:{train.session_id}:folds123/fold4"
    if len(sessions) == 2:
        train, test = sessions
        dsp.require_match(train, f"session {test.session_id}", test.dof_names, test.fs_emg,
                          test.n_channels)
        return train, test, f"inter:{train.session_id}->{test.session_id}"
    raise ConfigError(
        "evaluation takes one session (intra) or two (inter), "
        f"found {len(sessions)}"
    )


def split_session(rec: SemgRecording) -> tuple[SemgRecording, SemgRecording]:
    """Quarter the raw session in time; (folds 1-3, fold 4) as raw recordings.

    Splitting happens on raw samples, before any filtering or scaling; the
    caller preprocesses each partition independently. Angle samples follow
    the boundary timestamp. Too-short partitions surface as
    insufficient-data errors downstream when windows/sequences are built.
    """
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


# The trajectory arrays' keys under the report file's "trajectory" object.
_TRAJECTORY_KEYS = {"timestamps": "t", "truths": "true", "predictions": "pred"}


@dataclass
class EvaluationReport:
    """One model's scores and trajectory on one split.

    The fields are the report file's keys, in order (``to_dict`` and
    ``from_dict`` read ``dataclasses.fields``), the three arrays under
    ``trajectory`` as ``_TRAJECTORY_KEYS`` names them.

    ``runtime_s`` is wall time, and what it covers depends on the model and
    the driver: every cnn-lstm report and the cnn report of one
    ``evaluate_model`` call carry the wall time of its one shared inference
    pass (``training.predict_heads``), and the training drivers
    (``run_evaluation``, ``sweep_timesteps``) add each run's
    ``TrainingRun.train_s`` to its cnn-lstm report's; krr counts its own
    filtering, features, tuning, fit and predict.
    """

    model: str  # cnn-lstm | cnn | krr
    protocol: str
    split: str
    dof: list[dict[str, Any]]  # [{"name": ..., "r2": ...}]
    k: int
    matrix_mode: str
    runtime_s: float
    input_len: int
    timestamps: np.ndarray
    truths: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.truths = np.asarray(self.truths, dtype=np.float64)
        self.predictions = np.asarray(self.predictions, dtype=np.float64)
        if self.truths.shape != self.predictions.shape:
            raise UndefinedMetricError("true/predicted trajectories differ in shape")
        rows = (len(self.timestamps), len(self.dof))
        if self.predictions.shape != rows:
            raise UndefinedMetricError(f"trajectory {self.predictions.shape} for {rows} (t, DoF)")
        for entry in self.dof:
            if entry["r2"] > 1.0 + 1e-12:
                raise UndefinedMetricError(f"r2 > 1 in report: {entry}")

    def r2_of(self, name: str) -> float:
        for entry in self.dof:
            if entry["name"] == name:
                return entry["r2"]
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["dof"] = [dict(e) for e in self.dof]
        raw["trajectory"] = {key: raw.pop(name).tolist() for name, key in _TRAJECTORY_KEYS.items()}
        return raw

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EvaluationReport":
        traj = raw["trajectory"]
        flat = {**raw, **{name: traj[key] for name, key in _TRAJECTORY_KEYS.items()}}
        values = {f.name: flat[f.name] for f in fields(cls)}
        values["dof"] = [dict(e) for e in values["dof"]]
        return cls(**values)


def _krr_trajectory(
    train_raw: SemgRecording, test_raw: SemgRecording
) -> tuple[PredictionTrajectory, int]:
    """Handcrafted features + PCA-20 + tuned RBF kernel ridge regression on
    windows cut at the sessions' shared rate: the test trajectory, and the
    window length in samples."""
    stats, train_windows, y_train, _ = dsp.condition(train_raw)
    _, test_windows, y_test, test_times = dsp.condition(test_raw, stats)
    train_features = features.extract_feature_matrix(train_windows)
    basis = features.fit_pca(train_features)
    x_train = basis.project(train_features)
    x_test = basis.project(features.extract_feature_matrix(test_windows))
    gamma, ridge = krr.tune(x_train, y_train)
    fitted = krr.fit(x_train, y_train, gamma, ridge)
    traj = PredictionTrajectory(
        test_times, krr.predict(fitted, x_test), y_test, list(train_raw.dof_names)
    )
    return traj, train_windows.shape[1]


def run_evaluation(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
    baselines: bool = True,
) -> list[EvaluationReport]:
    """Train on ``partition(data)``'s training set, score every model on its test.

    Returns reports for cnn-lstm, then (if ``baselines``) cnn-only and krr,
    all on the identical split: ``_train_and_score`` for the one k
    ``config.k``. The cnn-lstm report's runtime_s includes training.
    """
    return _train_and_score(config, data, [config.k], baselines)


def _require_scorable(test_raw: SemgRecording, k: int) -> None:
    """Refuse, naming its session, a test partition of fewer than k windows
    or with a DoF whose angle never moves, on which R² is undefined."""
    training.require_windows(test_raw, k, "test")
    flat = [d for d, span in zip(test_raw.dof_names, np.ptp(test_raw.angles, axis=0)) if span == 0]
    if flat:
        raise DataError(f"session {test_raw.session_id}: test partition's "
                        f"{', '.join(flat)} angle is constant; R² is undefined")


def evaluate_model(
    models: HybridModel | Sequence[HybridModel],
    data: SemgRecording | Sequence[SemgRecording],
    baselines: bool = False,
) -> list[EvaluationReport]:
    """Score one trained hybrid, or the models of one stage 1 (the runs of
    one ``training.train_hybrids``), on ``partition(data)``'s test set.

    The data is partitioned once, and a test set of fewer windows than the
    largest k, or with a constant DoF, is refused first, naming its session.
    One ``training.predict_heads`` pass scores every hybrid and the CNN head;
    the training set is only touched when ``baselines`` is set (the KRR
    baseline must fit on it). Every report is built here, by one
    construction: one cnn-lstm report per model, in order, then cnn and krr
    if ``baselines``, which carry the first model's k and matrix mode.
    """
    models = [models] if isinstance(models, HybridModel) else list(models)
    train_raw, test_raw, split = partition(data)
    _require_scorable(test_raw, max((m.k for m in models), default=1))
    start = time.perf_counter()
    *hybrids, cnn = training.predict_heads(models, test_raw)
    heads_s = time.perf_counter() - start
    scored = [("cnn-lstm", m, traj, heads_s, m.cnn.input_len) for m, traj in zip(models, hybrids)]
    if baselines:
        start = time.perf_counter()
        krr_traj, window = _krr_trajectory(train_raw, test_raw)
        scored.append(("cnn", models[0], cnn, heads_s, models[0].cnn.input_len))
        scored.append(("krr", models[0], krr_traj, time.perf_counter() - start, window))
    return [
        EvaluationReport(
            model=name,
            protocol=test_raw.protocol,
            split=split,
            dof=[
                {"name": dof, "r2": r_squared(traj.truths[:, d], traj.predictions[:, d])}
                for d, dof in enumerate(traj.dof_names)
            ],
            k=hybrid.k,
            matrix_mode=hybrid.matrix_mode,
            runtime_s=runtime_s,
            input_len=input_len,
            timestamps=traj.timestamps,
            truths=traj.truths,
            predictions=traj.predictions,
        )
        for name, hybrid, traj, runtime_s, input_len in scored
    ]


def sweep_timesteps(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
    ks: Sequence[int] = DEFAULT_K_SWEEP,
) -> list[EvaluationReport]:
    """Stage-2-only k sweep, ``_train_and_score`` without baselines: one
    shared CNN, one LSTM per k, and every k scored from one pass over the
    test partition. A k's report has the bytes of that k trained alone."""
    return _train_and_score(config, data, ks, baselines=False)


def _train_and_score(config, data, ks, baselines) -> list[EvaluationReport]:
    """Both training drivers' one body: the test partition is checked against
    the largest k (no k is a ValueError), ``training.train_hybrids`` checks
    the rest before anything trains, one ``evaluate_model`` scores every run,
    and each cnn-lstm report's runtime_s gains its run's ``train_s``."""
    train_raw, test_raw, _ = partition(data)
    _require_scorable(test_raw, max(ks))
    runs = training.train_hybrids(train_raw, config, ks)
    reports = evaluate_model([run.model for run in runs], data, baselines)
    for run, report in zip(runs, reports):
        report.runtime_s += run.train_s
    return reports


def compare_matrix_modes(
    config: PipelineConfig,
    data: SemgRecording | Sequence[SemgRecording],
) -> list[EvaluationReport]:
    """Identical pipeline under each input-matrix mode in turn; spectral first.

    The reports' input_len field records the mode's matrix length (101
    spectral bins vs 102 raw samples at the default window).
    """
    return [
        run_evaluation(replace(config, matrix_mode=mode), data, baselines=False)[0]
        for mode in dsp.MATRIX_MODES
    ]
