import pytest

from emgkin.config import (
    PipelineConfig,
    StageConfig,
    config_from_dict,
    desk_preset,
    load_config,
    merge_overrides,
)
from emgkin.errors import ConfigError


def test_defaults_match_reference_training_recipe():
    cfg = PipelineConfig()
    assert cfg.protocol == "P1"
    assert cfg.matrix_mode == "spectral"
    assert cfg.window_ms == 100.0
    assert cfg.hop_ms == 50.0
    assert cfg.k == 18
    assert (cfg.cnn.epochs, cfg.cnn.batch, cfg.cnn.lr0) == (50, 128, 1e-4)
    assert (cfg.lstm.epochs, cfg.lstm.batch, cfg.lstm.lr0) == (100, 64, 1e-3)
    assert cfg.dropout == 0.3
    assert cfg.leaky_slope == 0.1
    assert cfg.seed == 0


def test_desk_preset_shrinks_epochs_only():
    base = PipelineConfig(seed=4)
    desk = desk_preset(base)
    assert desk.cnn.epochs == 5
    assert desk.lstm.epochs == 10
    # everything else untouched
    assert desk.cnn.batch == base.cnn.batch
    assert desk.cnn.lr0 == base.cnn.lr0
    assert desk.lstm.batch == base.lstm.batch
    assert desk.seed == 4
    # base is immutable and unchanged
    assert base.cnn.epochs == 50


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(protocol="P5")
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    with pytest.raises(ConfigError):
        PipelineConfig(matrix_mode="wavelet")
    with pytest.raises(ConfigError):
        PipelineConfig(hop_ms=200.0, window_ms=100.0)  # hop > window
    with pytest.raises(ConfigError):
        PipelineConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        StageConfig(epochs=0, batch=64, lr0=1e-3)
    with pytest.raises(ConfigError):
        StageConfig(epochs=1, batch=64, lr0=0.0)
    with pytest.raises(ConfigError):
        StageConfig(epochs=1, batch=64, lr0=float("nan"))


def test_dict_round_trip():
    cfg = PipelineConfig(protocol="P4", k=58, seed=9)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    # fields in declaration order, stages as nested mappings
    assert list(cfg.to_dict()) == [
        "protocol", "matrix_mode", "window_ms", "hop_ms", "k", "cnn", "lstm",
        "dropout", "leaky_slope", "seed",
    ]
    assert cfg.to_dict()["cnn"] == {"epochs": 50, "batch": 128, "lr0": 1e-4}


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknow|unexpected|unknown"):
        config_from_dict({"protocol": "P1", "windw_ms": 100.0})
    with pytest.raises(ConfigError):
        config_from_dict({"cnn": {"epochs": 5, "batchs": 64}})


def test_config_from_dict_coerces_types():
    cfg = config_from_dict({"k": "18", "cnn": {"epochs": "5", "batch": 128, "lr0": "1e-4"}})
    assert cfg.k == 18
    assert cfg.cnn.epochs == 5
    assert cfg.cnn.lr0 == pytest.approx(1e-4)
    with pytest.raises(ConfigError):
        config_from_dict({"k": "eighteen"})


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "protocol: P4\nk: 58\nmatrix_mode: temporal\n"
        "cnn:\n  epochs: 5\n  batch: 64\n  lr0: 0.0001\n"
    )
    cfg = load_config(path)
    assert cfg.protocol == "P4"
    assert cfg.k == 58
    assert cfg.matrix_mode == "temporal"
    assert cfg.cnn.epochs == 5
    assert cfg.cnn.batch == 64
    # unspecified sections keep their defaults
    assert cfg.lstm.epochs == 100


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


def test_load_config_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("protocol: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_merge_overrides_dotted_paths():
    cfg = PipelineConfig()
    out = merge_overrides(cfg, {"cnn.epochs": 5, "seed": 3, "k": None})
    assert out.cnn.epochs == 5
    assert out.seed == 3
    assert out.k == cfg.k  # None means "not supplied"
    with pytest.raises(ConfigError):
        merge_overrides(cfg, {"gru.epochs": 5})


def test_stage_config_is_frozen():
    cfg = PipelineConfig()
    with pytest.raises(Exception):
        cfg.cnn.epochs = 99
