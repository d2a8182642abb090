"""Two-stage (separate) training of the CNN-LSTM hybrid.

Stage 1 trains the CNN end-to-end against wrist angles with SGD+momentum
(batches of ``CNN_BATCH`` = 128, lr0 1e-4). Stage 2 freezes the CNN,
extracts 20-dim deep features from every window in segmentation order, forms
overlapping k-length sequences, and trains the LSTM with ADAM (batches of
``LSTM_BATCH`` = 64, lr0 1e-3) on the last-step output. Both batch sizes are
the paper's recipe. Both stages drop the learning rate by 90% every 10
epochs and run one epoch loop, ``_fit``: it casts the float64 targets once
to the parameters' float32, so every gradient is float32, refuses a
non-finite loss before its step, and records one mean loss per epoch.

``train_hybrids`` is the one training path: stage 1 does not depend on k,
so it runs once and each k of a sweep trains its own stage 2 on it;
``train_hybrid`` is its one-k case. Each ``TrainingRun`` carries its wall
time, ``train_s``: stage 1 plus that k's stage 2.

Training conditions a recording through ``dsp.condition``, and prediction
through ``dsp.condition_blocks`` one eval chunk at a time, with the training
stats stored in the model. A model keeps the EMG rate it was trained at
(``HybridModel.fs_emg``); its window and hop lengths follow from that rate
(``dsp.window_geometry``). ``predict_heads`` scores every hybrid of one
stage 1 and the CNN head from one conditioning and one CNN pass, and refuses
(``dsp.require_match``) a recording of other DoFs or channels or at any
other rate, even one that rounds to the same windows.

All shuffling and dropout draw from generators derived from the run seed,
so a (seed, config, dataset) triple reproduces bit-identical models.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, nn
from .config import PipelineConfig, StageConfig
from .dsp import NormalizationStats, SemgRecording
from .errors import DimensionError, DivergenceError, InsufficientDataError
from .lstm import (
    LstmParams,
    init_lstm_params,
    lstm_backward,
    lstm_forward_batch,
    stack_sequences,
)
from .nn import CnnModel, mse_loss
from .optim import Adam, Sgdm

CNN_BATCH = 128
LSTM_BATCH = 64

# Fixed offsets deriving independent deterministic streams from one seed.
_SHUFFLE_OFFSET = 1_000_003
_LSTM_INIT_OFFSET = 2_000_003
_LSTM_SHUFFLE_OFFSET = 3_000_003


@dataclass
class LabelScaler:
    """Per-DoF standardization of regression targets during training.

    Both stages optimize on zero-mean/unit-variance angles, so the loss has
    the same scale for every DoF whatever its amplitude in degrees;
    predictions are mapped back to degrees. R² is invariant to the affine
    map. Standardization does not make the published learning rates
    converge: at ``cnn.lr0`` 1e-4 the desk recipe's last stage-1 epoch ends
    at a loss of 1.29-2.03 on these targets (folds 1-3 of 60 s P1 sessions,
    seeds 1-5), where predicting the mean scores 1.0 (ROADMAP item 1).
    ``transform`` returns float64, so ``inverse`` gives the labels back to
    float64 rounding; both stages' epoch loop (``_fit``) casts the targets
    to float32 once.
    """

    mean: np.ndarray  # [D]
    std: np.ndarray  # [D], strictly positive

    def __post_init__(self):
        if np.any(self.std <= 0):
            raise InsufficientDataError(
                f"label std {self.std} is not positive: constant labels cannot be standardized"
            )

    @classmethod
    def fit(cls, labels: np.ndarray) -> "LabelScaler":
        labels = np.asarray(labels, dtype=np.float64)
        return cls(mean=labels.mean(axis=0), std=labels.std(axis=0))

    def transform(self, labels: np.ndarray) -> np.ndarray:
        return (labels - self.mean) / self.std

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return scaled * self.std + self.mean


@dataclass
class HybridModel:
    """Everything needed to map a raw recording to angle predictions."""

    cnn: CnnModel
    lstm: LstmParams
    norm_stats: NormalizationStats
    label_scaler: LabelScaler
    k: int
    matrix_mode: str
    dof_names: list[str]
    fs_emg: float  # Hz, the training recording's rate

    def __post_init__(self):
        if self.lstm.feature_dim != nn.FEATURE_DIM:
            raise DimensionError(
                f"LSTM feature dim {self.lstm.feature_dim} != CNN feature "
                f"dim {nn.FEATURE_DIM}"
            )
        if not len(self.dof_names) == self.cnn.n_outputs == self.lstm.n_outputs:
            raise DimensionError(
                f"{len(self.dof_names)} DoF name(s), but the CNN has "
                f"{self.cnn.n_outputs} output(s) and the LSTM {self.lstm.n_outputs}"
            )

    @property
    def window_samples(self) -> int:
        return dsp.window_geometry(self.fs_emg)[0]

    @property
    def hop_samples(self) -> int:
        return dsp.window_geometry(self.fs_emg)[1]


@dataclass
class PredictionTrajectory:
    """Per-sequence predictions aligned to end-of-window timestamps."""

    timestamps: np.ndarray  # [Q]
    predictions: np.ndarray  # [Q x D]
    truths: np.ndarray  # [Q x D]
    dof_names: list[str]


@dataclass
class TrainingRun:
    """Both stages' per-epoch mean losses, the trained model and its training time."""

    cnn_loss: list[float]
    lstm_loss: list[float]
    model: HybridModel
    train_s: float  # wall time of stage 1 plus this run's stage 2


def _batch_bounds(n: int, batch: int) -> list[tuple[int, int]]:
    """Mini-batch index ranges; a trailing singleton merges into the previous
    batch because train-mode batch norm cannot normalize a single sample."""
    bounds = [(s, min(s + batch, n)) for s in range(0, n, batch)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        last = bounds.pop()
        prev = bounds.pop()
        bounds.append((prev[0], last[1]))
    return bounds


def _fit(x, y, bounds, stage, rng, optimizer, params, forward) -> list[float]:
    """Both stages' epoch loop; one mean loss per epoch. Each epoch shuffles
    by ``rng``; each batch of ``bounds`` runs ``forward(x_batch)`` -> (pred,
    backward), the loss and the divergence check, then steps ``optimizer`` on
    ``backward(dpred)``. y is cast once to the parameters' dtype."""
    y = y.astype(next(iter(params.values())).dtype, copy=False)
    step = optimizer(params, stage.lr0).step
    history: list[float] = []
    for epoch in range(stage.epochs):
        order = rng.permutation(len(x))
        epoch_losses = []
        for batch_index, (lo, hi) in enumerate(bounds):
            idx = order[lo:hi]
            pred, backward = forward(x[idx])
            loss, dpred = mse_loss(pred, y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, batch_index, loss)
            step(params, backward(dpred), epoch)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return history


def train_cnn(
    x: np.ndarray,
    y: np.ndarray,
    stage: StageConfig,
    seed: int = 0,
) -> tuple[CnnModel, list[float]]:
    """Stage 1: SGDM on per-window angle regression of matrices x [M x L x N]
    against labels y [M x D]; returns the eval-mode model."""
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError(
            f"CNN training needs at least 2 windows (batch norm), got {n}"
        )
    model = CnnModel(
        input_len=x.shape[1],
        in_channels=x.shape[2],
        n_outputs=y.shape[1],
        seed=seed,
    )
    return model, _fit(
        x, y, _batch_bounds(n, CNN_BATCH), stage, np.random.default_rng(seed + _SHUFFLE_OFFSET),
        Sgdm, model.parameters(), lambda xb: (model.forward(xb, mode="train"), model.backward),
    )


def extract_dataset_features(cnn: CnnModel, x: np.ndarray) -> np.ndarray:
    """[M x 20] deep features of matrices x in segmentation order (eval mode, pure)."""
    return cnn.extract(x)


def train_lstm(
    x: np.ndarray,
    y: np.ndarray,
    stage: StageConfig,
    seed: int = 0,
) -> tuple[LstmParams, list[float]]:
    """Stage 2: ADAM on last-step MSE of sequences x [S x k x F] against
    targets y [S x D], with 30% dropout before the readout."""
    params = init_lstm_params(
        feature_dim=x.shape[2],
        n_outputs=y.shape[1],
        seed=seed + _LSTM_INIT_OFFSET,
    )
    rng = np.random.default_rng(seed + _LSTM_SHUFFLE_OFFSET)

    def forward(xb):
        pred, cache = lstm_forward_batch(params, xb, mode="train", rng=rng)
        return pred, lambda dpred: lstm_backward(params, cache, dpred)

    bounds = [(s, s + LSTM_BATCH) for s in range(0, x.shape[0], LSTM_BATCH)]
    return params, _fit(x, y, bounds, stage, rng, Adam, params.parameters(), forward)


def preprocess_training(
    rec: SemgRecording, config: PipelineConfig
) -> tuple[NormalizationStats, LabelScaler, np.ndarray, np.ndarray, np.ndarray]:
    """Filter, fit+apply min-max scaling, segment, build input matrices.

    Returns (stats, scaler, windows, x, y): ``windows`` [M x window x N] are
    the scaled samples, ``x`` [M x L x N] their input matrices and ``y``
    [M x D] the labels standardized for the optimizers (see LabelScaler);
    constant labels are refused naming the session.
    """
    stats, windows, labels, _ = dsp.condition(rec)
    try:
        scaler = LabelScaler.fit(labels)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"session {rec.session_id}: {exc}") from None
    x, y = dsp.stack_matrices(windows, scaler.transform(labels), config.matrix_mode)
    return stats, scaler, windows, x, y


def require_windows(rec: SemgRecording, k: int, partition: str) -> None:
    """Refuse, before anything trains, a partition with fewer windows than k."""
    n_windows = len(dsp.window_end_times(rec))
    if n_windows < k:
        raise InsufficientDataError(
            f"session {rec.session_id}: {partition} partition has {n_windows} windows, fewer than k={k}"
        )


def train_hybrids(
    rec: SemgRecording, config: PipelineConfig, ks: Sequence[int]
) -> list[TrainingRun]:
    """One hybrid per k of ``ks``, all on one stage 1.

    Every k's config is built, and the recording checked against the
    largest k (no k is a ValueError), before anything trains. Stage 1
    (preprocessing, the CNN and its features) does not depend on k and runs
    once; each k then trains its own LSTM on k-step sequences of the frozen
    CNN's features, so a k's run has the bytes of that k trained alone. Each
    run's ``train_s`` is stage 1's wall time plus that k's stage 2."""
    configs = [replace(config, k=int(k)) for k in ks]
    require_windows(rec, max(c.k for c in configs), "training")
    start = time.perf_counter()
    stats, scaler, _, x, y = preprocess_training(rec, config)
    cnn, cnn_loss = train_cnn(x, y, config.cnn, seed=config.seed)
    features = extract_dataset_features(cnn, x)
    stage1_s = time.perf_counter() - start
    runs = []
    for cfg in configs:
        start = time.perf_counter()
        seqs, targets = stack_sequences(features, y, cfg.k)
        lstm, lstm_loss = train_lstm(seqs, targets, cfg.lstm, seed=cfg.seed)
        model = HybridModel(
            cnn=cnn, lstm=lstm, norm_stats=stats, label_scaler=scaler, k=cfg.k,
            matrix_mode=cfg.matrix_mode, dof_names=list(rec.dof_names), fs_emg=rec.fs_emg,
        )
        train_s = stage1_s + time.perf_counter() - start
        runs.append(TrainingRun(cnn_loss, lstm_loss, model, train_s))
    return runs


def train_hybrid(rec: SemgRecording, config: PipelineConfig) -> TrainingRun:
    """``train_hybrids``' one-k case: both stages on one training recording of
    at least config.k windows."""
    (run,) = train_hybrids(rec, config, [config.k])
    return run


def predict_heads(
    models: Sequence[HybridModel], rec: SemgRecording
) -> list[PredictionTrajectory]:
    """Each model's hybrid trajectory, then the CNN head's, from one CNN pass.

    The models share one stage 1 (the runs of one ``train_hybrids``): one
    ``cnn``, ``norm_stats`` and ``label_scaler``, else ValueError. Each LSTM
    gives one y_k per k-window sequence, stamped with its last window's end
    time; the CNN head one y per window from the same features. A recording
    of other DoFs, EMG rate or channel count is refused (``dsp.require_match``).

    No copy of the recording's samples is made. The windows are taken in
    the CNN's eval chunks (``nn.eval_chunk_bounds``): ``dsp.condition_blocks``
    filters and scales only each chunk's new samples, and the chunk's input
    matrices are built just before ``CnnModel.extract_chunks`` runs the conv
    blocks and fc1 on them, into an [M x 100] buffer. The LSTM forward keeps
    no BPTT cache and rewrites one step's arrays. What still grows with the
    recording is per window: that buffer, the features, the labels and the
    LSTM's step arrays. At 300 s (6,005 windows) the call peaks 12.3 MB
    above its start under ``tracemalloc``, below the recording's own
    14.7 MB. Each step gives the bytes of one pass over the whole
    recording."""
    if len({(id(m.cnn), id(m.norm_stats), id(m.label_scaler)) for m in models}) != 1:
        raise ValueError("predict_heads takes models that share one stage 1")
    model = models[0]
    dsp.require_match(rec, "the model", model.dof_names, model.fs_emg, model.cnn.in_channels)
    labels, end_times = dsp.window_labels(rec)
    blocks = dsp.condition_blocks(rec, model.norm_stats, nn.eval_chunk_bounds(len(labels)))
    features = model.cnn.extract_chunks(
        (dsp.build_matrices(windows, model.matrix_mode) for _, windows in blocks), len(labels)
    )
    inverse, names = model.label_scaler.inverse, model.dof_names
    heads = []
    for m in models:
        seqs, y_true = stack_sequences(features, labels, m.k)
        y_k, _ = lstm_forward_batch(m.lstm, seqs, mode="eval", keep_cache=False)
        heads.append(PredictionTrajectory(end_times[m.k - 1 :], inverse(y_k), y_true, list(names)))
    y_cnn = model.cnn.head.forward(features, "eval")
    return [*heads, PredictionTrajectory(end_times, inverse(y_cnn), labels, list(names))]


def predict(model: HybridModel, rec: SemgRecording) -> PredictionTrajectory:
    """The hybrid's trajectory: ``predict_heads``' one-model case."""
    return predict_heads([model], rec)[0]


def predict_cnn_only(model: HybridModel, rec: SemgRecording) -> PredictionTrajectory:
    """Stage-1-only inference: the CNN head's trajectory from ``predict_heads``."""
    return predict_heads([model], rec)[1]
