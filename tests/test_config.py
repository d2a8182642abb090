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
    assert cfg.matrix_mode == "spectral"
    assert cfg.k == 18
    assert (cfg.cnn.epochs, cfg.cnn.lr0) == (50, 1e-4)
    assert (cfg.lstm.epochs, cfg.lstm.lr0) == (100, 1e-3)
    assert cfg.seed == 0


def test_desk_preset_shrinks_epochs_only():
    base = PipelineConfig(seed=4)
    desk = desk_preset(base)
    assert desk.cnn.epochs == 5
    assert desk.lstm.epochs == 10
    # everything else untouched
    assert desk.cnn.lr0 == base.cnn.lr0
    assert desk.lstm.lr0 == base.lstm.lr0
    assert desk.seed == 4
    # base is immutable and unchanged
    assert base.cnn.epochs == 50


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(k=0)
    with pytest.raises(ConfigError):
        PipelineConfig(matrix_mode="wavelet")
    with pytest.raises(ConfigError):
        StageConfig(epochs=0, lr0=1e-3)
    with pytest.raises(ConfigError):
        StageConfig(epochs=1, lr0=0.0)
    with pytest.raises(ConfigError):
        StageConfig(epochs=1, lr0=float("nan"))


@pytest.mark.parametrize(
    "raw, name",
    [
        ({"seed": -1}, "seed"),
        ({"cnn": {"lr0": float("inf")}}, "lr0"),
        ({"lstm": {"lr0": float("inf")}}, "lr0"),
    ],
)
def test_refuses_a_negative_seed_and_an_infinite_rate(raw, name):
    """numpy refuses a negative seed, and an infinite lr0 diverges on the
    first step; both are refused before training, naming the setting."""
    with pytest.raises(ConfigError, match=f"{name} must be"):
        config_from_dict(raw)


def test_dict_round_trip():
    cfg = PipelineConfig(matrix_mode="temporal", k=58, seed=9)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    # fields in declaration order, stages as nested mappings
    assert list(cfg.to_dict()) == ["matrix_mode", "k", "cnn", "lstm", "seed"]
    assert cfg.to_dict()["cnn"] == {"epochs": 50, "lr0": 1e-4}


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknow|unexpected|unknown"):
        config_from_dict({"k": 18, "sed": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"cnn": {"epochs": 5, "lr": 1e-4}})


# Keys for values the recipe fixes (the protocol comes from the sessions,
# window/hop from dsp, dropout and leaky slope from nn, batch sizes from
# training): a file that sets one is refused, not half-applied.
@pytest.mark.parametrize(
    "yaml_text, where, key",
    [
        ("protocol: P4\n", "", "protocol"),
        ("window_ms: 200\n", "", "window_ms"),
        ("hop_ms: 25\n", "", "hop_ms"),
        ("dropout: 0.5\n", "", "dropout"),
        ("leaky_slope: 0.2\n", "", "leaky_slope"),
        ("cnn:\n  batch: 64\n", "cnn ", "batch"),
        ("lstm:\n  batch: 32\n", "lstm ", "batch"),
    ],
)
def test_removed_keys_are_refused(tmp_path, yaml_text, where, key):
    path = tmp_path / "old.yaml"
    path.write_text(yaml_text)
    with pytest.raises(ConfigError, match=rf"unknown {where}config keys: \['{key}'\]"):
        load_config(path)


def test_config_from_dict_coerces_types():
    cfg = config_from_dict({"k": "18", "cnn": {"epochs": "5", "lr0": "1e-4"}})
    assert cfg.k == 18
    assert cfg.cnn.epochs == 5
    assert cfg.cnn.lr0 == pytest.approx(1e-4)
    with pytest.raises(ConfigError):
        config_from_dict({"k": "eighteen"})
    # no value is cast by truncation or read from a bool
    for raw in (
        {"k": 18.7},
        {"k": True},
        {"k": float("inf")},
        {"seed": False},
        {"cnn": {"epochs": 5.5}},
        {"cnn": {"lr0": True}},
        {"lstm": {"epochs": True}},
    ):
        with pytest.raises(ConfigError):
            config_from_dict(raw)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "k: 58\nmatrix_mode: temporal\n"
        "cnn:\n  epochs: 5\n  lr0: 0.0002\n"
    )
    cfg = load_config(path)
    assert cfg.k == 58
    assert cfg.matrix_mode == "temporal"
    assert cfg.cnn.epochs == 5
    assert cfg.cnn.lr0 == 2e-4
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


def test_merge_overrides_flat_keys():
    cfg = PipelineConfig()
    out = merge_overrides(cfg, {"seed": 3, "k": None})
    assert out.seed == 3
    assert out.k == cfg.k  # None means "not supplied"
    with pytest.raises(ConfigError):
        merge_overrides(cfg, {"cnn.epochs": 5})


def test_stage_config_is_frozen():
    cfg = PipelineConfig()
    with pytest.raises(Exception):
        cfg.cnn.epochs = 99
