"""Two-stage training pipeline on small synthetic sessions."""

import dataclasses

import numpy as np
import pytest

from emgkin import dsp
from emgkin.config import PipelineConfig, StageConfig
from emgkin.errors import DivergenceError, InsufficientDataError
from emgkin.training import (
    LabelScaler,
    extract_dataset_features,
    predict,
    predict_cnn_only,
    preprocess_training,
    train_cnn,
    train_hybrid,
    train_lstm,
    window_geometry,
)


def test_window_geometry_at_reference_rates():
    cfg = PipelineConfig()
    assert window_geometry(cfg, 1024.0) == (102, 51)
    assert window_geometry(cfg, 2048.0) == (205, 102)
    wide = PipelineConfig(window_ms=200.0, hop_ms=100.0)
    assert window_geometry(wide, 1024.0) == (205, 102)


def test_label_scaler_round_trip():
    rng = np.random.default_rng(0)
    labels = rng.normal(30.0, 12.0, (200, 3))
    scaler = LabelScaler.fit(labels)
    z = scaler.transform(labels)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(scaler.inverse(z), labels, atol=1e-9)


def test_label_scaler_rejects_constant_targets():
    with pytest.raises(InsufficientDataError):
        LabelScaler.fit(np.full((50, 1), 7.0))


def test_preprocess_training_scales_matrix_labels_only(tiny_session, tiny_config):
    stats, scaler, windows, x, scaled = preprocess_training(tiny_session, tiny_config)
    _, raw, _ = dsp.segment_windows(tiny_session)
    # window labels stay in degrees; the training targets are standardized
    assert raw.std() > 5.0
    np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)
    np.testing.assert_allclose(scaler.inverse(scaled), raw, atol=1e-9)
    assert len(windows) == len(x) == len(scaled)
    assert x.shape[1:] == (101, 6)


def test_train_cnn_runs_and_reports_losses(tiny_session, tiny_config):
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    stage = StageConfig(epochs=2, batch=128, lr0=1e-4)
    model, history = train_cnn(x, y, stage, seed=1)
    assert len(history) == 2
    assert all(np.isfinite(h) for h in history)
    feats = extract_dataset_features(model, x)
    assert feats.shape == (len(x), 20)
    assert np.all(np.isfinite(feats))


def test_train_cnn_deterministic_per_seed(tiny_session, tiny_config):
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    stage = StageConfig(epochs=1, batch=128, lr0=1e-4)
    m1, h1 = train_cnn(x, y, stage, seed=3)
    m2, h2 = train_cnn(x, y, stage, seed=3)
    m3, _ = train_cnn(x, y, stage, seed=4)
    assert h1 == h2
    for k, v in m1.state_arrays().items():
        np.testing.assert_array_equal(v, m2.state_arrays()[k])
    assert any(
        not np.array_equal(v, m3.state_arrays()[k])
        for k, v in m1.state_arrays().items()
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_cnn_diverges_loudly(tiny_session, tiny_config):
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    stage = StageConfig(epochs=3, batch=128, lr0=1e12)
    with pytest.raises(DivergenceError):
        train_cnn(x, y, stage, seed=0)


def test_train_hybrid_end_to_end(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    assert len(run.cnn_loss) == tiny_config.cnn.epochs
    assert len(run.lstm_loss) == tiny_config.lstm.epochs
    assert run.model.k == tiny_config.k
    assert run.model.dof_names == ["fe"]
    assert run.model.lstm.W_i.shape == (50, 70)


def test_hybrid_loss_decreases_with_more_epochs(tiny_session):
    cfg = PipelineConfig(
        protocol="P1",
        seed=2,
        cnn=StageConfig(epochs=3, batch=128, lr0=1e-4),
        lstm=StageConfig(epochs=8, batch=64, lr0=1e-3),
    )
    run = train_hybrid(tiny_session, cfg)
    assert run.lstm_loss[-1] < run.lstm_loss[0]


def test_stage_two_does_not_touch_cnn(tiny_session, tiny_config):
    """The CNN state after hybrid training equals a standalone stage-1 run."""
    run = train_hybrid(tiny_session, tiny_config)
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    solo, _ = train_cnn(
        x,
        y,
        tiny_config.cnn,
        seed=tiny_config.seed,
        leaky_slope=tiny_config.leaky_slope,
        dropout=tiny_config.dropout,
    )
    for k, v in solo.state_arrays().items():
        np.testing.assert_array_equal(v, run.model.cnn.state_arrays()[k])


def test_train_lstm_deterministic(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    run2 = train_hybrid(tiny_session, tiny_config)
    assert run.lstm_loss == run2.lstm_loss
    for name, v in run.model.lstm.parameters().items():
        np.testing.assert_array_equal(v, run2.model.lstm.parameters()[name])


def test_predict_counts_and_units(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    traj = predict(run.model, tiny_session)
    n_windows = (len(tiny_session.emg) - 102) // 51 + 1
    assert traj.predictions.shape == (n_windows - tiny_config.k + 1, 1)
    assert traj.truths.shape == traj.predictions.shape
    assert len(traj.timestamps) == len(traj.predictions)
    assert np.all(np.diff(traj.timestamps) > 0)
    # inverse label scaling puts outputs back on the degree scale: a barely
    # trained model predicts near the label mean, not near z-scored 0-1 values
    assert traj.truths.std() > 5.0
    assert np.all(np.abs(traj.predictions) < 100.0)
    assert traj.predictions.std() > 0.0


def test_predict_cnn_only_per_window(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    traj = predict_cnn_only(run.model, tiny_session)
    n_windows = (len(tiny_session.emg) - 102) // 51 + 1
    assert traj.predictions.shape == (n_windows, 1)


def test_predict_needs_k_windows(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    short = dataclasses.replace(
        tiny_session,
        emg=tiny_session.emg[: 102 + 51 * 5],
        t_emg=tiny_session.t_emg[: 102 + 51 * 5],
    )
    with pytest.raises(InsufficientDataError):
        predict(run.model, short)  # only 6 windows < k=18


def test_prediction_ignores_target_channel(tiny_session, tiny_config):
    """Corrupting the angle trace of the scoring partition must not change
    the predictions, only the truths: targets never feed the model."""
    run = train_hybrid(tiny_session, tiny_config)
    clean = predict(run.model, tiny_session)
    corrupted = dataclasses.replace(
        tiny_session, angles=np.flipud(tiny_session.angles).copy()
    )
    dirty = predict(run.model, corrupted)
    np.testing.assert_array_equal(clean.predictions, dirty.predictions)
    assert not np.array_equal(clean.truths, dirty.truths)
