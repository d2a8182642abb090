"""Two-stage training pipeline on small synthetic sessions."""

import dataclasses

import numpy as np
import pytest

from emgkin import dsp, nn, training
from emgkin.config import PipelineConfig, StageConfig
from emgkin.errors import DataError, DivergenceError, InsufficientDataError
from emgkin.evaluation import split_session
from emgkin.io import save_model
from emgkin.optim import Adam, Sgdm
from emgkin.synth import SynthConfig, generate
from emgkin.training import (
    LabelScaler,
    extract_dataset_features,
    predict,
    predict_cnn_only,
    predict_heads,
    preprocess_training,
    train_cnn,
    train_hybrid,
    train_hybrids,
    train_lstm,
)
from conftest import traced_peak


def test_window_geometry_at_reference_rates():
    assert dsp.window_geometry(1024.0) == (dsp.WINDOW_SAMPLES, dsp.HOP_SAMPLES)
    assert dsp.window_geometry(1024.0) == (102, 51)
    assert dsp.window_geometry(2048.0) == (205, 102)


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
    stage = StageConfig(epochs=2, lr0=1e-4)
    model, history = train_cnn(x, y, stage, seed=1)
    assert len(history) == 2
    assert all(np.isfinite(h) for h in history)
    feats = extract_dataset_features(model, x)
    assert feats.shape == (len(x), 20)
    assert np.all(np.isfinite(feats))


def test_train_cnn_deterministic_per_seed(tiny_session, tiny_config):
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    stage = StageConfig(epochs=1, lr0=1e-4)
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


def _spy(monkeypatch, name):
    """Wrap ``training.<name>``; the returned list collects (args, result)
    of every call."""
    calls = []
    real = getattr(training, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(training, name, spy)
    return calls


def _float64_labelled(n, shape, n_outputs=2, seed=11):
    """float32 inputs [n x *shape] and float64 targets, as LabelScaler
    returns them."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *shape)).astype(np.float32), rng.standard_normal(
        (n, n_outputs)
    )


def test_train_cnn_gradients_take_the_parameters_dtype():
    x, y = _float64_labelled(20, (12, 3))
    model, _ = train_cnn(x, y, StageConfig(epochs=1, lr0=1e-4))
    grads = model.gradients()
    assert grads and all(g.dtype == model.dtype == np.float32 for g in grads.values())


def test_train_lstm_gradients_take_the_parameters_dtype(monkeypatch):
    calls = _spy(monkeypatch, "lstm_backward")
    x, y = _float64_labelled(10, (4, nn.FEATURE_DIM))
    params, _ = train_lstm(x, y, StageConfig(epochs=1, lr0=1e-3))
    assert calls
    for _, grads in calls:
        assert all(g.dtype == params.W.dtype == np.float32 for g in grads.values())


def test_loss_gradient_is_float32_against_the_cast_targets(monkeypatch):
    calls = _spy(monkeypatch, "mse_loss")
    train_cnn(*_float64_labelled(20, (12, 3)), StageConfig(epochs=1, lr0=1e-4))
    train_lstm(*_float64_labelled(10, (4, nn.FEATURE_DIM)), StageConfig(epochs=1, lr0=1e-3))
    assert len(calls) == 2
    for (pred, target), (_, grad) in calls:
        assert pred.dtype == target.dtype == grad.dtype == np.float32


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_cnn_diverges_loudly(tiny_session, tiny_config):
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    stage = StageConfig(epochs=3, lr0=1e12)
    with pytest.raises(DivergenceError):
        train_cnn(x, y, stage, seed=0)


def _spy_steps(monkeypatch, optimizer):
    """Wrap ``optimizer.step``; the returned list collects, per step, the
    live parameter dict and a copy of it taken after the step."""
    steps = []
    real = optimizer.step

    def spy(self, params, grads, epoch):
        real(self, params, grads, epoch)
        steps.append((params, {name: p.copy() for name, p in params.items()}))

    monkeypatch.setattr(optimizer, "step", spy)
    return steps


@pytest.mark.parametrize(
    "train, shape, optimizer, offset, batch",
    [
        (train_cnn, (12, 3), Sgdm, training._SHUFFLE_OFFSET, training.CNN_BATCH),
        (train_lstm, (4, nn.FEATURE_DIM), Adam, training._LSTM_SHUFFLE_OFFSET,
         training.LSTM_BATCH),
    ],
    ids=["cnn", "lstm"],
)
def test_a_non_finite_target_stops_training_before_its_step(
    monkeypatch, train, shape, optimizer, offset, batch
):
    """A NaN target in the first epoch's last batch raises DivergenceError
    before that batch's step: every earlier batch took one step, and the
    parameters are what those steps left."""
    n = 3 * batch - 20
    x, y = _float64_labelled(n, shape)
    # the row the stage's first shuffle puts last
    y[np.random.default_rng(3 + offset).permutation(n)[-1], 0] = np.nan
    steps = _spy_steps(monkeypatch, optimizer)
    with pytest.raises(DivergenceError) as caught:
        train(x, y, StageConfig(epochs=2, lr0=1e-3), seed=3)
    assert (caught.value.epoch, caught.value.batch) == (0, 2)
    assert len(steps) == caught.value.batch
    live, after_last_step = steps[-1]
    for name, p in live.items():
        assert p.tobytes() == after_last_step[name].tobytes(), name


def test_train_cnn_merges_a_trailing_batch_of_one(monkeypatch):
    """129 windows are one batch of 129, not 128 + 1: train-mode batch norm
    cannot normalize a single window."""
    steps = _spy_steps(monkeypatch, Sgdm)
    _, history = train_cnn(*_float64_labelled(129, (12, 3)), StageConfig(epochs=2, lr0=1e-4))
    assert len(history) == 2
    assert len(steps) == 2


def test_train_lstm_keeps_a_trailing_batch_of_one(monkeypatch):
    """65 sequences are batches of 64 and 1: the LSTM has no batch norm, and
    its batches are plain LSTM_BATCH steps."""
    steps = _spy_steps(monkeypatch, Adam)
    _, history = train_lstm(
        *_float64_labelled(65, (4, nn.FEATURE_DIM)), StageConfig(epochs=2, lr0=1e-3)
    )
    assert len(history) == 2
    assert len(steps) == 4


# Folds 1-3 of a 20 s P1 session (synth seed 1), 1-epoch stages at seed 1:
# the final loss of each stage, then the hybrid's and the CNN head's
# predictions on fold 4 (degrees).
_PINNED_CNN_LOSS = 1.80946883
_PINNED_LSTM_LOSS = 1.04341741
_PINNED_HYBRID = [
    7.21632291, 6.91516616, 6.65897471, 6.72642818, 6.89490449, 6.65748768, 6.66967345,
    6.47992532, 6.42847223, 6.07204898, 5.85178469, 5.7352756, 5.69604574, 5.50035395,
    5.34035935, 5.40589585, 5.47258265, 5.70848464, 5.60183775, 5.35471624, 5.74095726,
    5.90710858, 5.86194332, 5.76302133, 5.85722065, 5.94755139, 5.67684898, 5.578307,
    5.84029249, 5.49901012, 5.1348956, 5.12047205, 5.16014234, 5.24508161, 5.46270878,
    5.81238948, 5.76122015, 5.51200806, 5.17823652, 5.37640795, 5.56443767, 5.58593222,
    5.38984129, 5.27962184, 5.20832334, 5.26998319, 5.03296654, 5.01510375, 4.89395215,
    4.7508686, 4.72691353, 5.03035458, 5.02469447, 5.13751037, 5.25054074, 5.30398552,
    5.35129513, 5.24178697, 5.5160867, 5.49579059, 5.52605583, 5.44848199, 5.83071264,
    5.94782104, 5.88599686, 5.82880533, 6.1992562, 6.32075458, 6.38041932, 6.46211248,
    6.48895761, 6.70327724, 6.88959801, 7.0119714, 6.96848014, 7.07306003, 7.23297911,
    7.39797469, 7.48350895, 7.64253842, 7.78482761, 7.88265196,
]
_PINNED_CNN_HEAD = [
    16.4426418, 15.6989915, 17.5563325, 17.8946911, 17.3203511, 16.0385649, 18.5997433,
    18.7924809, 19.6975198, 21.1626825, 19.3269364, 17.3954079, 18.4989093, 15.4777491,
    20.5600818, 19.5147845, 20.7046605, 19.7808776, 21.5789012, 21.3081472, 19.5832696,
    20.2423328, 19.905288, 22.4149981, 21.9698494, 23.4371427, 16.5402995, 16.4447644,
    15.1206029, 17.8582478, 23.1021343, 20.3725076, 17.1558814, 19.4839058, 17.7679681,
    16.3587451, 18.5415633, 12.5632863, 17.348901, 20.9061672, 17.6650172, 18.3542912,
    23.5177238, 15.6770849, 20.3225845, 19.9768326, 12.7335817, 15.7286256, 18.9249362,
    15.9625118, 17.2428866, 12.6399638, 19.0455799, 23.7097833, 25.6554328, 12.8447136,
    16.8434135, 23.7252302, 20.9472327, 12.9788855, 17.9283513, 23.2923732, 15.6651646,
    17.4585934, 19.5243301, 13.4988437, 18.527232, 20.7886933, 19.7238673, 17.1696238,
    19.8003039, 13.348777, 20.3811245, 20.644855, 19.5530064, 23.7892253, 18.3126546,
    18.1659043, 26.2994953, 20.8444913, 17.3069212, 23.1340432, 20.6899554, 22.0825352,
    16.8233363, 17.1677542, 19.4299541, 19.7091525, 21.4036042, 19.5380411, 19.1649042,
    15.8095354, 19.7927311, 15.7639952, 18.4804198, 17.1394508, 17.2687565, 18.1025761,
    16.6630053,
]


def test_a_trained_model_predicts_the_pinned_values():
    """Training and inference keep their answers. Summing batch norm's mean
    over the rows in reverse order, a float32 reordering, moves these
    predictions by up to 8.6e-5 of the largest one and the losses by 2e-6
    relative; nn.BN_MOMENTUM 0.2 in place of 0.1 moves the CNN head's by
    0.43 of it and the LSTM loss by 8e-3 relative."""
    train, test = split_session(generate(SynthConfig(protocol="P1", duration_s=20.0, seed=1)))
    config = PipelineConfig(
        seed=1, cnn=StageConfig(epochs=1, lr0=1e-4), lstm=StageConfig(epochs=1, lr0=1e-3)
    )
    run = train_hybrid(train, config)
    np.testing.assert_allclose(run.cnn_loss, [_PINNED_CNN_LOSS], rtol=1e-4)
    np.testing.assert_allclose(run.lstm_loss, [_PINNED_LSTM_LOSS], rtol=1e-4)
    hybrid, cnn = predict_heads([run.model], test)
    for traj, pinned in ((hybrid, _PINNED_HYBRID), (cnn, _PINNED_CNN_HEAD)):
        pinned = np.array(pinned)[:, None]
        atol = 1e-3 * np.abs(pinned).max()
        np.testing.assert_allclose(traj.predictions, pinned, rtol=0, atol=atol)


def test_train_hybrid_end_to_end(tiny_session, tiny_config):
    run = train_hybrid(tiny_session, tiny_config)
    assert len(run.cnn_loss) == tiny_config.cnn.epochs
    assert len(run.lstm_loss) == tiny_config.lstm.epochs
    assert run.model.k == tiny_config.k
    assert run.model.dof_names == ["fe"]
    assert run.model.lstm.W.shape == (4 * 50, 70)


def test_train_hybrids_gives_each_k_the_run_of_that_k_trained_alone(tiny_session, tmp_path):
    """One shared stage 1 and one stage 2 per k: each k's checkpoint and both
    loss histories equal ``train_hybrid`` on that k, and every run's
    ``train_s`` is positive."""
    cfg = PipelineConfig(
        seed=5, cnn=StageConfig(epochs=1, lr0=1e-4), lstm=StageConfig(epochs=1, lr0=1e-3)
    )
    runs = train_hybrids(tiny_session, cfg, ks=(12, 8))
    assert [run.model.k for run in runs] == [12, 8]
    for run in runs:
        alone = train_hybrid(tiny_session, dataclasses.replace(cfg, k=run.model.k))
        shared = save_model(run.model, tmp_path / "shared.ckpt").read_bytes()
        assert shared == save_model(alone.model, tmp_path / "alone.ckpt").read_bytes()
        assert (run.cnn_loss, run.lstm_loss) == (alone.cnn_loss, alone.lstm_loss)
        assert run.train_s > 0 and alone.train_s > 0


def test_train_hybrids_of_no_k_refuses_before_any_work(tiny_session, tiny_config, monkeypatch):
    """No k has no run to return, so neither preprocessing nor stage 1 runs."""
    spies = [_spy(monkeypatch, name) for name in ("preprocess_training", "train_cnn")]
    with pytest.raises(ValueError, match="empty"):
        train_hybrids(tiny_session, tiny_config, ks=())
    assert spies == [[], []]


def test_predict_heads_refuses_models_of_two_stage_1s(desk_tiny_runs, tiny_session):
    """Models of two ``train_hybrid`` calls have two CNNs, even trained
    alike, so no one pass can score them both; no model at all is refused
    the same way."""
    models = [run.model for run in desk_tiny_runs]
    for refused in (models, []):
        with pytest.raises(ValueError, match="share one stage 1"):
            predict_heads(refused, tiny_session)


def test_hybrid_loss_decreases_with_more_epochs(tiny_session):
    cfg = PipelineConfig(
        seed=2,
        cnn=StageConfig(epochs=3, lr0=1e-4),
        lstm=StageConfig(epochs=8, lr0=1e-3),
    )
    run = train_hybrid(tiny_session, cfg)
    assert run.lstm_loss[-1] < run.lstm_loss[0]


def test_stage_two_does_not_touch_cnn(tiny_session, tiny_config):
    """The CNN state after hybrid training equals a standalone stage-1 run."""
    run = train_hybrid(tiny_session, tiny_config)
    _, _, _, x, y = preprocess_training(tiny_session, tiny_config)
    solo, _ = train_cnn(x, y, tiny_config.cnn, seed=tiny_config.seed)
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


def test_predict_refuses_recording_at_other_rate(tiny_session, tiny_config):
    """A 1024 Hz model would window a 2048 Hz recording into 50 ms windows;
    it must refuse instead, naming both geometries and the rate."""
    run = train_hybrid(tiny_session, tiny_config)
    fast = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=5, fs_emg=2048.0))
    for score in (predict, predict_cnn_only):
        with pytest.raises(DataError, match=r"2048 Hz.*205/102.*102/51"):
            score(run.model, fast)


def test_predict_refuses_a_rate_with_the_same_windows(tiny_session, tiny_config):
    """1020 Hz windows as 102/51 samples like 1024 Hz, but each window spans
    100.0 ms instead of 99.6 ms and the filters are designed for 1020 Hz: the
    model's own rate, not its window lengths, decides."""
    run = train_hybrid(tiny_session, tiny_config)
    near = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=5, fs_emg=1020.0))
    assert dsp.window_geometry(near.fs_emg) == dsp.window_geometry(run.model.fs_emg)
    for score in (predict, predict_cnn_only):
        with pytest.raises(DataError, match=r"1020 Hz.*102/51.*1024 Hz"):
            score(run.model, near)


def test_predict_refuses_a_recording_of_another_channel_count(tiny_session, tiny_config):
    """A 6-channel model does not scale a 5- or 1-channel cut of its own
    session by its 6 channels' min/max: it refuses, naming the session and
    both channel counts."""
    run = train_hybrid(tiny_session, tiny_config)
    for n_channels in (5, 1):
        cut = dataclasses.replace(tiny_session, emg=tiny_session.emg[:, :n_channels])
        for score in (predict, lambda model, rec: predict_heads([model], rec)):
            with pytest.raises(DataError, match=f"session s0 has {n_channels} EMG channels, "
                               "but the model has 6"):
                score(run.model, cut)


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


def test_predict_on_a_long_recording_matches_whole_batch(
    tiny_session, tiny_config, p1_session, monkeypatch
):
    """More windows than several eval chunks: predict and predict_cnn_only
    equal a run whose CNN takes every window in one chunk, byte for byte."""
    model = train_hybrid(tiny_session, tiny_config).model
    n_windows = (len(p1_session.emg) - 102) // 51 + 1
    assert n_windows > 1000 > 3 * nn.EVAL_CHUNK
    chunked = predict(model, p1_session), predict_cnn_only(model, p1_session)
    monkeypatch.setattr(nn, "EVAL_CHUNK", n_windows + 1)
    reference = predict(model, p1_session), predict_cnn_only(model, p1_session)
    for traj, ref in zip(chunked, reference):
        assert traj.predictions.tobytes() == ref.predictions.tobytes()
        assert traj.predictions.dtype == ref.predictions.dtype
        np.testing.assert_array_equal(traj.timestamps, ref.timestamps)


def test_predict_heads_memory_is_bounded_by_the_recording(
    tiny_session, tiny_config, p1_session
):
    """Inference holds no whole-recording array: each eval chunk's samples
    are filtered, scaled, windowed and transformed as the CNN reaches them,
    and the LSTM rolls through one step's arrays. The 60 s recording
    (1,176 windows) peaks at 10.6 MB, and the 300 s one (6,005 windows) at
    12.3 MB, below the 14.7 MB of the recording itself; conditioning,
    matrices and LSTM over the whole recording peaked at 19.3 and 33.6 MB."""
    model = train_hybrid(tiny_session, tiny_config).model
    bound = 7 * p1_session.emg.nbytes
    (hybrid, cnn), peak = traced_peak(predict_heads, [model], p1_session)
    assert len(cnn.predictions) == (len(p1_session.emg) - 102) // 51 + 1
    assert len(hybrid.predictions) == len(cnn.predictions) - model.k + 1
    assert peak <= bound, (peak, bound)

    long = generate(SynthConfig(protocol="P1", duration_s=300.0, seed=1001))
    _, peak = traced_peak(predict_heads, [model], long)
    assert peak < long.emg.nbytes, (peak, long.emg.nbytes)


def whole_recording_heads(model, rec):
    """(hybrid, CNN head) predictions by the composition predict_heads had
    before it conditioned in window blocks: filter, scale, window and build
    the matrices of the whole recording, extract every window's features in
    one call, then roll the LSTM with its BPTT cache."""
    filtered = dsp.apply_filter_chain(rec)
    windows, labels, _ = dsp.segment_windows(dsp.apply_normalizer(model.norm_stats, filtered))
    x, labels = dsp.stack_matrices(windows, labels, model.matrix_mode)
    features = model.cnn.extract(x)
    seqs, _ = training.stack_sequences(features, labels, model.k)
    y_pred, _ = training.lstm_forward_batch(model.lstm, seqs, mode="eval")
    inverse = model.label_scaler.inverse
    return inverse(y_pred), inverse(model.cnn.head.forward(features, "eval"))


@pytest.mark.parametrize("duration_s", [1.0, 137.7, 300.0])
def test_predict_heads_keeps_the_whole_recording_bytes(tiny_session, tiny_config, duration_s):
    """Conditioned block by block, predict_heads gives the predictions of
    the whole-recording composition byte for byte: at 1 s (19 windows, one
    block), 137.7 s (2,763 windows, 22 blocks) and 300 s (6,005 windows)."""
    model = train_hybrid(tiny_session, tiny_config).model
    rec = generate(SynthConfig(protocol="P1", duration_s=duration_s, seed=97))
    heads = predict_heads([model], rec)
    for traj, reference in zip(heads, whole_recording_heads(model, rec), strict=True):
        assert traj.predictions.dtype == reference.dtype
        assert traj.predictions.tobytes() == reference.tobytes()
