"""Pipeline configuration: dataclasses, YAML loading, CLI override merging.

The config file is YAML. Normative keys and defaults:

    protocol: P1
    matrix_mode: spectral        # spectral | temporal
    window_ms: 100
    hop_ms: 50
    k: 18
    cnn:  {epochs: 50,  batch: 128, lr0: 0.0001}
    lstm: {epochs: 100, batch: 64,  lr0: 0.001}
    dropout: 0.3
    leaky_slope: 0.1
    seed: 0

``desk_preset`` shrinks only the epoch counts (5/10) so CI-scale runs stay
inside minutes; everything else keeps the full-run values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .dsp import PROTOCOL_DOFS
from .errors import ConfigError

MATRIX_MODES = ("spectral", "temporal")


@dataclass(frozen=True)
class StageConfig:
    """Per-stage optimizer settings (epochs / batch size / initial LR)."""

    epochs: int
    batch: int
    lr0: float

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if not self.lr0 > 0:  # NaN fails too
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")


@dataclass(frozen=True)
class PipelineConfig:
    protocol: str = "P1"
    matrix_mode: str = "spectral"
    window_ms: float = 100.0
    hop_ms: float = 50.0
    k: int = 18
    cnn: StageConfig = field(default_factory=lambda: StageConfig(50, 128, 1e-4))
    lstm: StageConfig = field(default_factory=lambda: StageConfig(100, 64, 1e-3))
    dropout: float = 0.3
    leaky_slope: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOL_DOFS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{sorted(PROTOCOL_DOFS)}"
            )
        if self.matrix_mode not in MATRIX_MODES:
            raise ConfigError(
                f"matrix_mode must be one of {MATRIX_MODES}, got {self.matrix_mode!r}"
            )
        if self.window_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("window_ms and hop_ms must be positive")
        if self.hop_ms > self.window_ms:
            raise ConfigError(
                f"hop_ms ({self.hop_ms}) must not exceed window_ms ({self.window_ms})"
            )
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.leaky_slope < 0:
            raise ConfigError(f"leaky_slope must be >= 0, got {self.leaky_slope}")

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


def _require_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _overridden(defaults, raw: dict[str, Any]) -> dict[str, Any]:
    """The fields of dataclass ``defaults``, each value in ``raw`` cast to its
    default's type."""
    values = {
        f.name: getattr(defaults, f.name) for f in dataclasses.fields(defaults)
    }
    for name, value in raw.items():
        values[name] = type(values[name])(value)
    return values


def config_from_dict(raw: dict[str, Any]) -> PipelineConfig:
    """Build a validated PipelineConfig from a (possibly partial) mapping."""
    raw = dict(_require_mapping(raw, "config"))
    unknown = set(raw) - {f.name for f in dataclasses.fields(PipelineConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    defaults = PipelineConfig()
    stage_keys = {f.name for f in dataclasses.fields(StageConfig)}
    try:
        stages = {
            name: _require_mapping(raw.pop(name, {}), name) for name in ("cnn", "lstm")
        }
        for stage_name, stage_raw in stages.items():
            extra = set(stage_raw) - stage_keys
            if extra:
                raise ConfigError(
                    f"unknown {stage_name} config keys: {sorted(extra)}"
                )
        for name, stage_raw in stages.items():
            stage_defaults = getattr(defaults, name)
            stages[name] = StageConfig(**_overridden(stage_defaults, stage_raw))
        return PipelineConfig(**{**_overridden(defaults, raw), **stages})
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
    """Apply flat CLI-style overrides; dotted keys reach nested stages.

    ``None`` values are skipped so unset CLI flags leave the file values
    intact. Example: ``{"k": 58, "cnn.epochs": 5}``.
    """
    raw = config.to_dict()
    for key, value in overrides.items():
        if value is None:
            continue
        if "." in key:
            head, _, tail = key.partition(".")
            if head not in ("cnn", "lstm"):
                raise ConfigError(f"unknown override key: {key}")
            raw.setdefault(head, {})[tail] = value
        else:
            raw[key] = value
    return config_from_dict(raw)
