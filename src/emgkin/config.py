"""Pipeline configuration: dataclasses, YAML loading, CLI override merging.

The config file is YAML and holds only what a run may vary. Keys and
defaults:

    matrix_mode: spectral        # one of dsp.MATRIX_MODES: spectral | temporal
    k: 18
    cnn:  {epochs: 50,  lr0: 0.0001}
    lstm: {epochs: 100, lr0: 0.001}
    seed: 0

The protocol is not a setting: it comes from the sessions under ``--data``.
The rest of the recipe is fixed: 100 ms windows with a 50 ms hop
(``dsp.WINDOW_MS``/``dsp.HOP_MS``), batches of 128 and 64
(``training.CNN_BATCH``/``training.LSTM_BATCH``), dropout 0.3 and a leaky
slope of 0.1 (``nn.DEFAULT_DROPOUT``/``nn.DEFAULT_LEAKY_SLOPE``). A key
outside the list above raises ConfigError.

``desk_preset`` shrinks only the epoch counts (5/10) so CI-scale runs stay
inside minutes; everything else keeps the full-run values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .dsp import MATRIX_MODES
from .errors import ConfigError


@dataclass(frozen=True)
class StageConfig:
    """Per-stage optimizer settings (epochs / initial LR)."""

    epochs: int
    lr0: float

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr0 < float("inf"):  # NaN fails too
            raise ConfigError(f"lr0 must be > 0 and finite, got {self.lr0}")


@dataclass(frozen=True)
class PipelineConfig:
    matrix_mode: str = "spectral"
    k: int = 18
    cnn: StageConfig = field(default_factory=lambda: StageConfig(50, 1e-4))
    lstm: StageConfig = field(default_factory=lambda: StageConfig(100, 1e-3))
    seed: int = 0

    def __post_init__(self):
        if self.matrix_mode not in MATRIX_MODES:
            raise ConfigError(
                f"matrix_mode must be one of {MATRIX_MODES}, got {self.matrix_mode!r}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def desk_preset(base: PipelineConfig | None = None) -> PipelineConfig:
    """CI-scale epoch counts (CNN 5, LSTM 10) on top of an existing config."""
    base = base or PipelineConfig()
    return dataclasses.replace(
        base,
        cnn=dataclasses.replace(base.cnn, epochs=5),
        lstm=dataclasses.replace(base.lstm, epochs=10),
    )


def _cast(default: Any, value: Any, name: str) -> Any:
    """``value`` as ``default``'s type. No field is a flag, so a bool is
    refused rather than read as 0 or 1, and an int field refuses a number with
    a fraction (or a NaN or infinity) rather than truncate it; ``"18"`` still
    reads as 18."""
    if isinstance(value, bool):
        raise ValueError(f"{name} is not a flag, got {value}")
    if type(default) is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return type(default)(value)


def _build(defaults, raw: Any, where: str):
    """A copy of dataclass ``defaults`` with the fields that mapping ``raw``
    (None reads as empty) sets. Every level is read by the same rule: a
    nested dataclass field from its own mapping, which errors name by
    ``where`` (the top level's is ""), and any other field by ``_cast``."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be a mapping, got {type(raw).__name__}")
    fields = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(defaults)}
    unknown = set(raw) - set(fields)
    if unknown:
        where = f"{where} " if where else ""
        raise ConfigError(f"unknown {where}config keys: {sorted(unknown)}")
    for name, value in raw.items():
        read = _build if dataclasses.is_dataclass(fields[name]) else _cast
        fields[name] = read(fields[name], value, name)
    return dataclasses.replace(defaults, **fields)


def config_from_dict(raw: dict[str, Any]) -> PipelineConfig:
    """Build a validated PipelineConfig from a (possibly partial) mapping."""
    try:
        return _build(PipelineConfig(), raw, "")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a YAML config file; missing keys fall back to defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return config_from_dict(raw or {})


def merge_overrides(config: PipelineConfig, overrides: dict[str, Any]) -> PipelineConfig:
    """Apply flat CLI-style overrides such as ``{"k": 58, "seed": 3}``.

    ``None`` values are skipped so unset CLI flags leave the file values
    intact.
    """
    raw = config.to_dict()
    raw.update({key: value for key, value in overrides.items() if value is not None})
    return config_from_dict(raw)
