"""Two-stage (separate) training of the CNN-LSTM hybrid.

Stage 1 trains the CNN end-to-end against wrist angles with SGD+momentum
(batch 128, lr0 1e-4). Stage 2 freezes the CNN, extracts 20-dim deep
features from every window in segmentation order, forms overlapping
k-length sequences, and trains the LSTM with ADAM (batch 64, lr0 1e-3) on
the last-step output. Both stages drop the learning rate by 90% every 10
epochs and record one mean loss per epoch.

All shuffling and dropout draw from generators derived from the run seed,
so a (seed, config, dataset) triple reproduces bit-identical models in
single-threaded mode.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .optim import Adam, OptimizerConfig, Sgdm

# Fixed offsets deriving independent deterministic streams from one seed.
_SHUFFLE_OFFSET = 1_000_003
_LSTM_INIT_OFFSET = 2_000_003
_LSTM_SHUFFLE_OFFSET = 3_000_003


@dataclass
class LabelScaler:
    """Per-DoF standardization of regression targets during training.

    Both stages optimize on zero-mean/unit-variance angles so the published
    learning rates converge regardless of the DoF's amplitude in degrees;
    predictions are mapped back to degrees. R² is unaffected by the affine
    map, so reported scores are identical to raw-degree training at
    convergence.
    """

    mean: np.ndarray  # [D]
    std: np.ndarray  # [D], strictly positive

    @classmethod
    def fit(cls, labels: np.ndarray) -> "LabelScaler":
        labels = np.asarray(labels, dtype=np.float64)
        std = labels.std(axis=0)
        if np.any(std <= 0):
            raise InsufficientDataError(
                "constant training labels: cannot standardize targets"
            )
        return cls(mean=labels.mean(axis=0), std=std)

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
    window_samples: int = dsp.WINDOW_SAMPLES
    hop_samples: int = dsp.HOP_SAMPLES

    def __post_init__(self):
        if self.lstm.feature_dim != nn.FEATURE_DIM:
            raise DimensionError(
                f"LSTM feature dim {self.lstm.feature_dim} != CNN feature "
                f"dim {nn.FEATURE_DIM}"
            )

    @property
    def n_outputs(self) -> int:
        return self.lstm.n_outputs


@dataclass
class PredictionTrajectory:
    """Per-sequence predictions aligned to end-of-window timestamps."""

    timestamps: np.ndarray  # [Q]
    predictions: np.ndarray  # [Q x D]
    truths: np.ndarray  # [Q x D]
    dof_names: list[str]


@dataclass
class TrainingRun:
    config: PipelineConfig
    cnn_loss: list[float]
    lstm_loss: list[float]
    model: HybridModel


def window_geometry(config: PipelineConfig, fs: float) -> tuple[int, int]:
    """(window, hop) in samples for the config's millisecond settings."""
    return (
        int(round(config.window_ms * fs / 1000.0)),
        int(round(config.hop_ms * fs / 1000.0)),
    )


def _batch_bounds(n: int, batch: int) -> list[tuple[int, int]]:
    """Mini-batch index ranges; a trailing singleton merges into the previous
    batch because train-mode batch norm cannot normalize a single sample."""
    bounds = [(s, min(s + batch, n)) for s in range(0, n, batch)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        last = bounds.pop()
        prev = bounds.pop()
        bounds.append((prev[0], last[1]))
    return bounds


def train_cnn(
    x: np.ndarray,
    y: np.ndarray,
    stage: StageConfig,
    seed: int = 0,
    leaky_slope: float = nn.DEFAULT_LEAKY_SLOPE,
    dropout: float = nn.DEFAULT_DROPOUT,
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
        leaky_slope=leaky_slope,
        dropout_rate=dropout,
    )
    optimizer = Sgdm(model.parameters(), OptimizerConfig(lr0=stage.lr0))
    shuffle_rng = np.random.default_rng(seed + _SHUFFLE_OFFSET)
    history: list[float] = []
    for epoch in range(stage.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for batch_index, (lo, hi) in enumerate(_batch_bounds(n, stage.batch)):
            idx = order[lo:hi]
            pred = model.forward(x[idx], mode="train")
            loss, dpred = mse_loss(pred, y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, batch_index, loss)
            model.backward(dpred)
            optimizer.step(model.parameters(), model.gradients(), epoch)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return model, history


def extract_dataset_features(cnn: CnnModel, x: np.ndarray) -> np.ndarray:
    """[M x 20] deep features of matrices x in segmentation order (eval mode, pure)."""
    return cnn.extract(x)


def train_lstm(
    x: np.ndarray,
    y: np.ndarray,
    stage: StageConfig,
    seed: int = 0,
    dropout: float = nn.DEFAULT_DROPOUT,
) -> tuple[LstmParams, list[float]]:
    """Stage 2: ADAM on last-step MSE of sequences x [S x k x F] against
    targets y [S x D], with 30% dropout before the readout."""
    n = x.shape[0]
    params = init_lstm_params(
        feature_dim=x.shape[2],
        n_outputs=y.shape[1],
        seed=seed + _LSTM_INIT_OFFSET,
    )
    optimizer = Adam(params.parameters(), OptimizerConfig(lr0=stage.lr0))
    rng = np.random.default_rng(seed + _LSTM_SHUFFLE_OFFSET)
    history: list[float] = []
    for epoch in range(stage.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for batch_index, start in enumerate(range(0, n, stage.batch)):
            idx = order[start : start + stage.batch]
            pred, cache = lstm_forward_batch(
                params, x[idx], mode="train", rng=rng, dropout_rate=dropout
            )
            loss, dpred = mse_loss(pred, y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, batch_index, loss)
            grads = lstm_backward(params, cache, dpred)
            optimizer.step(params.parameters(), grads, epoch)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return params, history


def preprocess_training(
    rec: SemgRecording, config: PipelineConfig
) -> tuple[NormalizationStats, LabelScaler, np.ndarray, np.ndarray, np.ndarray]:
    """Filter, fit+apply min-max scaling, segment, build input matrices.

    Returns (stats, scaler, windows, x, y): ``windows`` [M x window x N] are
    the scaled samples, ``x`` [M x L x N] their input matrices and ``y``
    [M x D] the labels standardized for the optimizers (see LabelScaler).
    """
    filtered = dsp.apply_filter_chain(rec)
    stats = dsp.fit_normalizer(filtered)
    normed = dsp.apply_normalizer(stats, filtered)
    window, hop = window_geometry(config, rec.fs_emg)
    windows, labels, _ = dsp.segment_windows(normed, window, hop)
    scaler = LabelScaler.fit(labels)
    x, y = dsp.stack_matrices(windows, scaler.transform(labels), config.matrix_mode)
    return stats, scaler, windows, x, y


@dataclass
class _CnnStage:
    """Stage 1's output, shared by every stage 2 trained on top of it."""

    stats: NormalizationStats
    scaler: LabelScaler
    cnn: CnnModel
    loss: list[float]
    features: np.ndarray  # [M x 20] deep features in segmentation order
    y: np.ndarray  # [M x D] standardized labels


def _train_cnn_stage(rec: SemgRecording, config: PipelineConfig) -> _CnnStage:
    """Stage 1: preprocess the training recording, train the CNN, and extract
    the deep features stage 2 trains on."""
    stats, scaler, _, x, y = preprocess_training(rec, config)
    cnn, cnn_hist = train_cnn(
        x,
        y,
        config.cnn,
        seed=config.seed,
        leaky_slope=config.leaky_slope,
        dropout=config.dropout,
    )
    features = extract_dataset_features(cnn, x)
    return _CnnStage(stats, scaler, cnn, cnn_hist, features, y)


def _train_lstm_stage(
    stage1: _CnnStage, rec: SemgRecording, config: PipelineConfig
) -> tuple[HybridModel, list[float]]:
    """Stage 2: train the LSTM on config.k-step sequences of the frozen
    CNN's features and assemble the hybrid."""
    seqs, targets = stack_sequences(stage1.features, stage1.y, config.k)
    lstm, lstm_hist = train_lstm(
        seqs, targets, config.lstm, seed=config.seed, dropout=config.dropout
    )
    window, hop = window_geometry(config, rec.fs_emg)
    model = HybridModel(
        cnn=stage1.cnn,
        lstm=lstm,
        norm_stats=stage1.stats,
        label_scaler=stage1.scaler,
        k=config.k,
        matrix_mode=config.matrix_mode,
        dof_names=list(rec.dof_names),
        window_samples=window,
        hop_samples=hop,
    )
    return model, lstm_hist


def train_hybrid(rec: SemgRecording, config: PipelineConfig) -> TrainingRun:
    """Run both stages on one training recording."""
    stage1 = _train_cnn_stage(rec, config)
    model, lstm_hist = _train_lstm_stage(stage1, rec, config)
    return TrainingRun(
        config=config, cnn_loss=stage1.loss, lstm_loss=lstm_hist, model=model
    )


def _prepare_windows(
    model: HybridModel, rec: SemgRecording
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the model's stored preprocessing to a raw recording.

    Returns (x [M x L x N], labels [M x D] in degrees, end_times [M]).
    """
    filtered = dsp.apply_filter_chain(rec)
    normed = dsp.apply_normalizer(model.norm_stats, filtered)
    windows, labels, end_times = dsp.segment_windows(
        normed, model.window_samples, model.hop_samples
    )
    x, labels = dsp.stack_matrices(windows, labels, model.matrix_mode)
    return x, labels, end_times


def predict(model: HybridModel, rec: SemgRecording) -> PredictionTrajectory:
    """Full-pipeline inference on a raw recording.

    Preprocessing reuses the training-partition normalization stats stored
    in the model; one y_k comes out per k-window sequence, stamped with the
    end time of its last window.
    """
    x, labels, end_times = _prepare_windows(model, rec)
    features = extract_dataset_features(model.cnn, x)
    seqs, y_true = stack_sequences(features, labels, model.k)
    y_pred, _ = lstm_forward_batch(model.lstm, seqs, mode="eval")
    return PredictionTrajectory(
        timestamps=end_times[model.k - 1 :],
        predictions=model.label_scaler.inverse(y_pred),
        truths=y_true,
        dof_names=list(model.dof_names),
    )


def predict_cnn_only(model: HybridModel, rec: SemgRecording) -> PredictionTrajectory:
    """Stage-1-only inference: the CNN regression head, one y per window."""
    x, y_true, end_times = _prepare_windows(model, rec)
    y_pred = model.cnn.forward(x, mode="eval")
    return PredictionTrajectory(
        timestamps=end_times,
        predictions=model.label_scaler.inverse(y_pred),
        truths=y_true,
        dof_names=list(model.dof_names),
    )
