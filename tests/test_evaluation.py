"""Scoring metric, split protocol, and the evaluation drivers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgkin import dsp, nn, training
from emgkin.config import PipelineConfig, StageConfig
from emgkin.errors import ConfigError, DataError, InsufficientDataError, UndefinedMetricError
from emgkin.evaluation import (
    EvaluationReport,
    compare_matrix_modes,
    evaluate_model,
    partition,
    r_squared,
    run_evaluation,
    split_session,
    sweep_timesteps,
)
from emgkin.synth import SynthConfig, generate
from emgkin.training import train_hybrid


# --- the variance-ratio score -------------------------------------------------


def test_perfect_prediction_scores_one():
    alpha = np.array([1.0, 2.0, -3.0, 0.5])
    assert r_squared(alpha, alpha.copy()) == pytest.approx(1.0, abs=1e-12)


def test_constant_prediction_scores_zero():
    alpha = np.array([1.0, 2.0, -3.0, 0.5])
    assert r_squared(alpha, np.full(4, 0.7)) == pytest.approx(0.0, abs=1e-12)


def test_offset_prediction_scores_one():
    # variance form: a constant bias leaves zero residual variance
    alpha = np.array([1.0, 2.0, -3.0, 0.5])
    assert r_squared(alpha, alpha + 5.0) == pytest.approx(1.0, abs=1e-12)


def test_affine_equivariance():
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal(50)
    y = alpha + 0.3 * rng.standard_normal(50)
    base = r_squared(alpha, y)
    for a, b in ((2.0, 0.0), (-1.5, 3.0), (0.1, -7.0)):
        assert r_squared(a * alpha + b, a * y + b) == pytest.approx(base, abs=1e-12)


def test_metric_value_against_direct_formula():
    rng = np.random.default_rng(1)
    alpha = rng.standard_normal(100)
    y = 0.8 * alpha + 0.2 * rng.standard_normal(100)
    expected = 1.0 - np.var(alpha - y) / np.var(alpha)
    assert r_squared(alpha, y) == pytest.approx(expected, abs=1e-14)


def test_metric_can_go_negative():
    alpha = np.array([1.0, -1.0, 1.0, -1.0])
    assert r_squared(alpha, -alpha) < 0.0


def test_constant_truth_is_undefined():
    with pytest.raises(UndefinedMetricError):
        r_squared(np.full(10, 2.0), np.arange(10.0))


def test_metric_input_validation():
    with pytest.raises(UndefinedMetricError):
        r_squared(np.arange(3.0), np.arange(4.0))
    with pytest.raises(UndefinedMetricError):
        r_squared(np.array([1.0]), np.array([1.0]))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**31 - 1), st.floats(-5.0, 5.0))
def test_metric_bounded_above_by_one(seed, shift):
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(30)
    y = rng.standard_normal(30) + shift
    assert r_squared(alpha, y) <= 1.0 + 1e-12


# --- raw-first splitting ------------------------------------------------------


def quarter_rec(n=4000):
    rng = np.random.default_rng(2)
    emg = rng.standard_normal((n, 6))
    t = np.arange(n) / 1024.0
    n_ang = int(n / 1024.0 * 100)
    t_ang = np.arange(n_ang) / 100.0
    ang = np.sin(t_ang)[:, None] * 20.0
    return dsp.SemgRecording(emg, t, ang, t_ang, "P1")


def test_split_boundary_on_raw_samples():
    rec = quarter_rec(4000)
    train, test = split_session(rec)
    assert len(train.emg) == 3000
    assert len(test.emg) == 1000
    np.testing.assert_array_equal(train.emg, rec.emg[:3000])
    np.testing.assert_array_equal(test.emg, rec.emg[3000:])
    # absolute timestamps survive, so label alignment is preserved
    assert test.t_emg[0] == rec.t_emg[3000]


def test_split_covers_all_angles_disjointly():
    rec = quarter_rec(8192)
    train, test = split_session(rec)
    assert len(train.angles) + len(test.angles) == len(rec.angles)
    assert train.t_ang[-1] < test.t_emg[0] + 1e-9
    assert test.t_ang[0] >= test.t_emg[0] - 1e-9


def test_partitions_are_filtered_independently():
    """Filtering happens after the split: the test partition restarts the
    filter state, so its leading samples differ from a full-session pass."""
    rec = quarter_rec(16384)
    _, test = split_session(rec)
    filtered_part = dsp.apply_filter_chain(test).emg
    filtered_full = dsp.apply_filter_chain(rec).emg[12288:]
    lead = np.max(np.abs(filtered_part[:100] - filtered_full[:100]))
    assert lead > 1e-6  # fresh transient, no cross-partition state
    # the IIR transient decays: both passes agree deep inside the partition
    tail = np.max(np.abs(filtered_part[-100:] - filtered_full[-100:]))
    assert tail < 1e-6


def test_partition_names_the_split():
    """One recording is quartered (intra); a pair is (train, test) whole
    (inter); any other count is refused with the count in the message."""
    a = quarter_rec(4096)
    b = dataclasses.replace(a, session_id="s1")
    for data in (a, [a], (a,)):
        train, test, name = partition(data)
        assert name == f"intra:{a.session_id}:folds123/fold4"
        np.testing.assert_array_equal(train.emg, split_session(a)[0].emg)
        np.testing.assert_array_equal(test.emg, split_session(a)[1].emg)
    train, test, name = partition([a, b])
    assert name == f"inter:{a.session_id}->s1"
    assert train is a and test is b
    for sessions in ([], [a, b, a]):
        with pytest.raises(ConfigError, match=f"found {len(sessions)}"):
            partition(sessions)


# --- report object ------------------------------------------------------------


def small_report():
    return EvaluationReport(
        model="cnn-lstm",
        protocol="P1",
        split="intra:s0:folds123/fold4",
        dof=[{"name": "fe", "r2": 0.91}],
        k=18,
        matrix_mode="spectral",
        runtime_s=1.25,
        input_len=101,
        timestamps=np.array([0.1, 0.2, 0.3]),
        truths=np.array([[1.0], [2.0], [3.0]]),
        predictions=np.array([[1.1], [1.9], [3.2]]),
    )


def test_report_round_trips_through_dict():
    rep = small_report()
    again = EvaluationReport.from_dict(rep.to_dict())
    assert again.model == rep.model
    assert again.r2_of("fe") == pytest.approx(0.91)
    np.testing.assert_allclose(again.predictions, rep.predictions)
    np.testing.assert_allclose(again.timestamps, rep.timestamps)
    d = rep.to_dict()
    assert d["dof"] == [{"name": "fe", "r2": 0.91}]
    assert set(d["trajectory"]) == {"t", "true", "pred"}


def test_report_rejects_impossible_score():
    with pytest.raises(Exception):
        EvaluationReport(
            model="cnn",
            protocol="P1",
            split="intra:s0:folds123/fold4",
            dof=[{"name": "fe", "r2": 1.5}],
            k=18,
            matrix_mode="spectral",
            runtime_s=0.1,
            input_len=101,
            timestamps=np.array([0.1]),
            truths=np.array([[1.0]]),
            predictions=np.array([[1.0]]),
        )


def test_report_refuses_timestamps_that_miss_the_trajectory_rows():
    """Three timestamps for one row would make ``io.write_trajectory`` index
    past the trajectory; the report refuses it up front."""
    raw = small_report().to_dict()
    raw["trajectory"]["true"] = raw["trajectory"]["true"][:1]
    raw["trajectory"]["pred"] = raw["trajectory"]["pred"][:1]
    with pytest.raises(UndefinedMetricError, match=r"\(1, 1\) for \(3, 1\)"):
        EvaluationReport.from_dict(raw)


# --- drivers on a small session ------------------------------------------------


@pytest.fixture(scope="module")
def quick_config():
    return PipelineConfig(
        seed=11,
        cnn=StageConfig(epochs=1, lr0=1e-4),
        lstm=StageConfig(epochs=2, lr0=1e-3),
    )


@pytest.fixture(scope="module")
def quick_session():
    return generate(SynthConfig(protocol="P1", duration_s=24.0, seed=21))


@pytest.fixture(scope="module")
def quick_reports(quick_config, quick_session):
    return run_evaluation(quick_config, quick_session, baselines=True)


@pytest.fixture(scope="module")
def p1_model(quick_config):
    """A 1-epoch P1 model trained on a 10 s, 1024 Hz session."""
    return train_hybrid(
        generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4)), quick_config
    ).model


def test_pair_of_two_protocols_is_refused_up_front(quick_config, monkeypatch):
    """A P1/P2 pair is refused by ``partition``, naming both protocols,
    before ``run_evaluation`` trains anything."""
    p1 = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4))
    p2 = dataclasses.replace(
        generate(SynthConfig(protocol="P2", duration_s=10.0, seed=4)), session_id="p2"
    )
    protocols = r"s0 is protocol P1.*p2 is protocol P2"
    with pytest.raises(DataError, match=protocols):
        partition([p1, p2])

    def no_training(*args, **kwargs):
        pytest.fail("run_evaluation trained before refusing the pair")

    monkeypatch.setattr(training, "train_hybrids", no_training)
    with pytest.raises(DataError, match=protocols):
        run_evaluation(quick_config, [p1, p2])


@pytest.mark.parametrize("protocol", ["P2", "P4"])
def test_model_refuses_session_of_another_protocol(p1_model, protocol):
    """A P1 model neither scores its fe head against P2's ps angles nor runs
    a P4 session's whole inference before failing on the DoF count."""
    rec = generate(SynthConfig(protocol=protocol, duration_s=20.0, seed=5))
    with pytest.raises(DataError, match=rf"protocol {protocol}.*the model is protocol P1 \(DoFs fe\)"):
        evaluate_model(p1_model, rec, baselines=True)


def test_pair_at_two_rates_is_refused_up_front(quick_config, p1_model, monkeypatch):
    """A 2048/1024 Hz pair is refused by ``partition``, naming both rates:
    before the KRR baseline could window the 2048 Hz session at the model's
    1024 Hz geometry, and before ``run_evaluation`` trains anything."""
    slow = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4))
    fast = dataclasses.replace(
        generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4, fs_emg=2048.0)),
        session_id="fast",
    )
    pair = [fast, slow]
    rates = r"fast is at 2048 Hz.*s0 is at 1024 Hz"
    with pytest.raises(DataError, match=rates):
        partition(pair)
    with pytest.raises(DataError, match=rates):
        evaluate_model(p1_model, pair, baselines=True)

    def no_training(*args, **kwargs):
        pytest.fail("run_evaluation trained before refusing the pair")

    monkeypatch.setattr(training, "train_hybrids", no_training)
    with pytest.raises(DataError, match=rates):
        run_evaluation(quick_config, pair)


def test_pair_of_two_channel_counts_is_refused_up_front(quick_config, monkeypatch):
    """A 6/5-channel pair is refused by ``partition``, naming both sessions
    and both channel counts, before ``run_evaluation`` trains anything: it
    would train both stages on the 6 channels before the test session's 5
    failed to scale by their min/max."""
    six = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4))
    five = dataclasses.replace(six, emg=six.emg[:, :5], session_id="five")
    counts = r"session s0 has 6 EMG channels, but session five has 5"
    with pytest.raises(DataError, match=counts):
        partition([six, five])

    def no_training(*args, **kwargs):
        pytest.fail("run_evaluation trained before refusing the pair")

    monkeypatch.setattr(training, "train_hybrids", no_training)
    with pytest.raises(DataError, match=counts):
        run_evaluation(quick_config, [six, five])


def test_run_evaluation_emits_all_models(quick_reports):
    assert [r.model for r in quick_reports] == ["cnn-lstm", "cnn", "krr"]
    for rep in quick_reports:
        assert rep.protocol == "P1"
        assert rep.split.startswith("intra:")
        assert rep.runtime_s > 0.0
        assert rep.dof[0]["name"] == "fe"
        assert np.isfinite(rep.dof[0]["r2"])


def test_run_evaluation_counts_training_in_the_hybrids_runtime(quick_reports):
    """The cnn-lstm report adds the run's ``train_s`` to the inference pass
    both heads' reports share."""
    hybrid, cnn, _ = quick_reports
    assert hybrid.runtime_s > cnn.runtime_s


def test_trajectory_lengths_follow_model_kind(quick_reports, quick_session):
    _, test = split_session(quick_session)
    m = (len(test.emg) - 102) // 51 + 1
    by_model = {r.model: r for r in quick_reports}
    assert len(by_model["cnn-lstm"].timestamps) == m - 18 + 1
    assert len(by_model["cnn"].timestamps) == m  # one prediction per window
    assert len(by_model["krr"].timestamps) == m


def test_run_evaluation_without_baselines(quick_config, quick_session):
    reports = run_evaluation(quick_config, quick_session, baselines=False)
    assert [r.model for r in reports] == ["cnn-lstm"]


def test_sweep_timesteps_counts_and_order_independence(quick_config, quick_session):
    ks = (8, 12)
    serial = sweep_timesteps(quick_config, quick_session, ks=ks)
    reversed_ks = sweep_timesteps(quick_config, quick_session, ks=ks[::-1])[::-1]
    _, test = split_session(quick_session)
    m = (len(test.emg) - 102) // 51 + 1
    for rep_s, rep_r, k in zip(serial, reversed_ks, ks, strict=True):
        assert rep_s.k == rep_r.k == k
        assert len(rep_s.timestamps) == m - k + 1
        # the order of the ks does not change any k's results
        assert rep_s.dof == rep_r.dof
        np.testing.assert_array_equal(rep_s.predictions, rep_r.predictions)
        # sharing stage 1 across ks is the same as training each k afresh
        alone = run_evaluation(
            dataclasses.replace(quick_config, k=k), quick_session, baselines=False
        )[0]
        assert rep_s.dof == alone.dof
        np.testing.assert_array_equal(rep_s.predictions, alone.predictions)
        np.testing.assert_array_equal(rep_s.timestamps, alone.timestamps)


def test_sweep_refuses_a_bad_k_before_anything_trains(quick_config, quick_session, monkeypatch):
    """Every k's config is built before stage 1, so k=0 is refused before
    the CNN or any k's LSTM trains."""

    def no_training(*args, **kwargs):
        pytest.fail("the sweep trained before refusing k=0")

    monkeypatch.setattr(training, "train_cnn", no_training)
    with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
        sweep_timesteps(quick_config, quick_session, ks=(8, 0))


def test_sweep_of_no_k_is_refused_before_anything_trains(quick_config, quick_session, monkeypatch):
    """A sweep over no k has nothing to score, so stage 1 does not train."""

    def no_training(*args, **kwargs):
        pytest.fail("the sweep trained with no k to score")

    monkeypatch.setattr(training, "train_cnn", no_training)
    with pytest.raises(ValueError, match="empty"):
        sweep_timesteps(quick_config, quick_session, ks=())


@pytest.fixture
def pass_counts(monkeypatch):
    """Counts, while the test runs, of conditioning passes (each one
    ``dsp.condition_blocks`` call) and eval-mode CNN passes (each one
    ``CnnModel.extract_chunks`` call)."""
    calls = {"filter": 0, "eval_cnn": 0}
    condition_blocks, extract_chunks = dsp.condition_blocks, nn.CnnModel.extract_chunks

    def counted_conditioning(rec, stats, bounds):
        calls["filter"] += 1
        return condition_blocks(rec, stats, bounds)

    def counted_extract(self, chunks, n):
        calls["eval_cnn"] += 1
        return extract_chunks(self, chunks, n)

    monkeypatch.setattr(dsp, "condition_blocks", counted_conditioning)
    monkeypatch.setattr(nn.CnnModel, "extract_chunks", counted_extract)
    return calls


def test_a_k_sweep_conditions_and_runs_the_cnn_once_per_partition(p1_short, pass_counts):
    """A 4-k sweep conditions each partition once and runs the eval-mode CNN
    once over each: stage 1's features, then one shared pass over the test
    partition that every k's LSTM reads (scoring each k alone took 5 and 5)."""
    config = PipelineConfig(
        seed=1, cnn=StageConfig(epochs=1, lr0=1e-4), lstm=StageConfig(epochs=1, lr0=1e-3)
    )
    reports = sweep_timesteps(config, p1_short, ks=(8, 18, 58, 98))
    assert [r.k for r in reports] == [8, 18, 58, 98]
    assert pass_counts == {"filter": 2, "eval_cnn": 2}


def test_evaluate_model_scores_the_models_of_one_stage_1_in_order(quick_config, quick_session):
    """A list of models gives one cnn-lstm report per model, in order, then
    cnn and krr carrying the first model's k; each hybrid's report has the
    bytes of that model scored alone, and all three heads' reports share the
    one inference pass's wall time."""
    train, _ = split_session(quick_session)
    models = [run.model for run in training.train_hybrids(train, quick_config, ks=(12, 8))]
    reports = evaluate_model(models, quick_session, baselines=True)
    assert [(r.model, r.k) for r in reports] == [
        ("cnn-lstm", 12), ("cnn-lstm", 8), ("cnn", 12), ("krr", 12)
    ]
    for model, report in zip(models, reports):
        alone = evaluate_model(model, quick_session)[0]
        assert report.dof == alone.dof
        assert report.predictions.tobytes() == alone.predictions.tobytes()
        assert report.timestamps.tobytes() == alone.timestamps.tobytes()
    assert reports[0].runtime_s == reports[1].runtime_s == reports[2].runtime_s


def test_a_constant_test_angle_is_refused_before_training(
    quick_config, p1_model, monkeypatch
):
    """A test partition whose fe angle never moves has no R²: scoring it is
    refused naming the session and the DoF, and ``run_evaluation`` refuses
    it before anything trains."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=3))
    angles = rec.angles.copy()
    angles[len(angles) // 2 :] = 5.0  # all of fold 4, while folds 1-3 move
    rec = dataclasses.replace(rec, angles=angles)

    def no_training(*args, **kwargs):
        pytest.fail("run_evaluation trained before refusing the constant test angle")

    monkeypatch.setattr(training, "train_cnn", no_training)
    message = "session s0: test partition's fe angle is constant"
    with pytest.raises(DataError, match=message):
        evaluate_model(p1_model, rec, baselines=True)
    with pytest.raises(DataError, match=message):
        run_evaluation(quick_config, rec)


@pytest.fixture(scope="module")
def mode_reports(quick_config, quick_session):
    return compare_matrix_modes(quick_config, quick_session)


def test_compare_matrix_modes_pairs(mode_reports):
    modes = {r.matrix_mode: r for r in mode_reports}
    assert set(modes) == {"spectral", "temporal"}
    assert modes["spectral"].input_len == 101
    assert modes["temporal"].input_len == 102


def test_compare_matrix_modes_equals_each_mode_run_alone(
    mode_reports, quick_config, quick_session
):
    """Each mode's report has the bytes of ``run_evaluation`` on that mode."""
    for mode, report in zip(dsp.MATRIX_MODES, mode_reports, strict=True):
        alone = run_evaluation(
            dataclasses.replace(quick_config, matrix_mode=mode), quick_session, baselines=False
        )[0]
        assert report.dof == alone.dof
        assert report.predictions.tobytes() == alone.predictions.tobytes()
        assert report.timestamps.tobytes() == alone.timestamps.tobytes()


@pytest.fixture(scope="module")
def short_session():
    """15 s: folds 1-3 give 224 windows, and fold 4 gives 74, fewer than k=98."""
    return generate(SynthConfig(protocol="P1", duration_s=15.0, seed=1))


@pytest.mark.parametrize(
    "driver, partition_name",
    [
        ("run_evaluation", "test"),
        ("sweep_timesteps", "test"),
        ("sweep_timesteps_pair", "training"),
        ("train_hybrid", "training"),
    ],
)
def test_short_partition_is_refused_before_training(
    quick_config, short_session, quick_session, monkeypatch, driver, partition_name
):
    """A partition with fewer windows than k is refused, naming the session,
    the partition and k, before stage 1 trains; the sweep checks both of its
    partitions against its largest k."""

    def no_training(*args, **kwargs):
        pytest.fail(f"{driver} trained before refusing the short partition")

    monkeypatch.setattr(training, "train_cnn", no_training)
    config = dataclasses.replace(quick_config, k=98)
    _, test = split_session(short_session)
    calls = {
        "run_evaluation": lambda: run_evaluation(config, short_session),
        "sweep_timesteps": lambda: sweep_timesteps(quick_config, short_session),
        "sweep_timesteps_pair": lambda: sweep_timesteps(quick_config, [test, quick_session]),
        "train_hybrid": lambda: train_hybrid(test, config),
    }
    message = f"session s0: {partition_name} partition has 74 windows, fewer than k=98"
    with pytest.raises(InsufficientDataError, match=message):
        calls[driver]()


def test_intra_scores_match_direct_training(quick_config, quick_session, quick_reports):
    """run_evaluation == train on folds 1-3, then score that model on fold 4."""
    train, _ = split_session(quick_session)
    run = train_hybrid(train, quick_config)
    direct = evaluate_model(run.model, quick_session, baselines=True)
    assert [r.model for r in direct] == [r.model for r in quick_reports]
    for got, expected in zip(quick_reports, direct):
        got, expected = got.to_dict(), expected.to_dict()
        del got["runtime_s"], expected["runtime_s"]
        assert got == expected


def test_three_reports_share_split_protocol_and_model_settings(p1_model, quick_session):
    """Every report of ``evaluate_model`` carries one protocol and one split,
    and the hybrid's k and matrix mode; the heads' input_len is the CNN's
    matrix length, KRR's its window in samples, and KRR scores the CNN head's
    windows."""
    reports = evaluate_model(p1_model, quick_session, baselines=True)
    assert [r.model for r in reports] == ["cnn-lstm", "cnn", "krr"]
    _, _, split = partition(quick_session)
    for report in reports:
        assert (report.protocol, report.split) == (quick_session.protocol, split)
        assert (report.k, report.matrix_mode) == (p1_model.k, p1_model.matrix_mode)
    hybrid, cnn, krr_report = reports
    assert hybrid.input_len == cnn.input_len == p1_model.cnn.input_len
    assert krr_report.input_len == dsp.window_geometry(quick_session.fs_emg)[0] == 102
    np.testing.assert_array_equal(krr_report.timestamps, cnn.timestamps)


def test_both_heads_share_one_conditioning_and_one_cnn_pass(
    p1_model, quick_session, monkeypatch, pass_counts
):
    """With baselines, the test partition is conditioned (filtered, scaled
    and windowed) once for both heads and once for KRR, the training
    partition once for KRR, and the eval-mode CNN runs once. Every
    conditioning pass is one ``dsp.condition_blocks`` call and every eval
    CNN pass one ``CnnModel.extract_chunks`` call. The two head reports
    equal ``predict`` and ``predict_cnn_only`` byte for byte."""
    hybrid, cnn, _ = evaluate_model(p1_model, quick_session, baselines=True)
    assert pass_counts == {"filter": 3, "eval_cnn": 1}
    monkeypatch.undo()

    _, test = split_session(quick_session)
    for report, score in ((hybrid, training.predict), (cnn, training.predict_cnn_only)):
        traj = score(p1_model, test)
        for field in ("timestamps", "truths", "predictions"):
            assert getattr(report, field).tobytes() == getattr(traj, field).tobytes()
    assert hybrid.runtime_s == cnn.runtime_s
