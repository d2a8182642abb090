"""emgkin: sEMG-to-wrist-angle regression with a from-scratch CNN-LSTM.

The pipeline: Butterworth/notch preprocessing -> min-max scaling ->
102-sample windows -> spectral (or temporal) input matrices -> CNN deep
features (manual backprop) -> LSTM sequence regression (manual BPTT) ->
variance-ratio R² evaluation on intra-/inter-session splits, with a
kernel-ridge baseline and a deterministic synthetic data generator.
"""

from .config import PipelineConfig, StageConfig, desk_preset, load_config
from .dsp import NormalizationStats, SemgRecording
from .errors import EmgkinError
from .evaluation import (
    EvaluationReport,
    SplitPlan,
    compare_matrix_modes,
    r_squared,
    run_evaluation,
    split_session,
    sweep_timesteps,
)
from .io import load_model, load_session, save_model, save_session
from .lstm import LstmParams, LstmState, build_sequences
from .nn import CnnModel
from .synth import SynthConfig, generate, generate_session_pair
from .training import (
    HybridModel,
    PredictionTrajectory,
    TrainingRun,
    predict,
    predict_cnn_only,
    train_hybrid,
)

__version__ = "0.1.0"

__all__ = [
    "CnnModel",
    "EmgkinError",
    "EvaluationReport",
    "HybridModel",
    "LstmParams",
    "LstmState",
    "NormalizationStats",
    "PipelineConfig",
    "PredictionTrajectory",
    "SemgRecording",
    "SplitPlan",
    "StageConfig",
    "SynthConfig",
    "TrainingRun",
    "__version__",
    "build_sequences",
    "compare_matrix_modes",
    "desk_preset",
    "generate",
    "generate_session_pair",
    "load_config",
    "load_model",
    "load_session",
    "predict",
    "predict_cnn_only",
    "r_squared",
    "run_evaluation",
    "save_model",
    "save_session",
    "split_session",
    "sweep_timesteps",
    "train_hybrid",
]
