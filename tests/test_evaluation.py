"""Scoring metric, split protocol, and the evaluation drivers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgkin import dsp
from emgkin.config import PipelineConfig, StageConfig
from emgkin.errors import ConfigError, UndefinedMetricError
from emgkin.evaluation import (
    EvaluationReport,
    SplitPlan,
    _split_descriptor,
    compare_matrix_modes,
    evaluate_model,
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


def test_split_respects_plan_sessions():
    """An inter plan takes its session names from the recordings, and the
    quartering protocol refuses it."""
    a = quarter_rec(4096)
    b = dataclasses.replace(a, session_id="s1")
    plan = SplitPlan(mode="inter")
    assert _split_descriptor(plan, a, b) == f"inter:{a.session_id}->s1"
    with pytest.raises(ConfigError):
        split_session(a, plan)


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


# --- drivers on a small session ------------------------------------------------


@pytest.fixture(scope="module")
def quick_config():
    return PipelineConfig(
        protocol="P1",
        seed=11,
        cnn=StageConfig(epochs=1, batch=128, lr0=1e-4),
        lstm=StageConfig(epochs=2, batch=64, lr0=1e-3),
    )


@pytest.fixture(scope="module")
def quick_session():
    return generate(SynthConfig(protocol="P1", duration_s=24.0, seed=21))


@pytest.fixture(scope="module")
def quick_reports(quick_config, quick_session):
    return run_evaluation(quick_config, quick_session, baselines=True)


def test_run_evaluation_emits_all_models(quick_reports):
    assert [r.model for r in quick_reports] == ["cnn-lstm", "cnn", "krr"]
    for rep in quick_reports:
        assert rep.protocol == "P1"
        assert rep.split.startswith("intra:")
        assert rep.runtime_s > 0.0
        assert rep.dof[0]["name"] == "fe"
        assert np.isfinite(rep.dof[0]["r2"])


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


def test_sweep_timesteps_counts_and_thread_determinism(quick_config, quick_session):
    ks = (8, 12)
    serial = sweep_timesteps(quick_config, quick_session, ks=ks, max_workers=1)
    threaded = sweep_timesteps(quick_config, quick_session, ks=ks, max_workers=2)
    _, test = split_session(quick_session)
    m = (len(test.emg) - 102) // 51 + 1
    for rep_s, rep_t, k in zip(serial, threaded, ks):
        assert rep_s.k == k
        assert len(rep_s.timestamps) == m - k + 1
        # fan-out must not change results at all
        assert rep_s.dof == rep_t.dof
        np.testing.assert_array_equal(rep_s.predictions, rep_t.predictions)
        # sharing stage 1 across ks is the same as training each k afresh
        alone = run_evaluation(
            dataclasses.replace(quick_config, k=k), quick_session, baselines=False
        )[0]
        assert rep_s.dof == alone.dof
        np.testing.assert_array_equal(rep_s.predictions, alone.predictions)
        np.testing.assert_array_equal(rep_s.timestamps, alone.timestamps)


def test_compare_matrix_modes_pairs(quick_config, quick_session):
    reports = compare_matrix_modes(quick_config, quick_session)
    modes = {r.matrix_mode: r for r in reports}
    assert set(modes) == {"spectral", "temporal"}
    assert modes["spectral"].input_len == 101
    assert modes["temporal"].input_len == 102


def test_intra_scores_match_direct_training(quick_config, quick_session, quick_reports):
    """run_evaluation == train on folds 1-3, then score that model on fold 4."""
    train, test = split_session(quick_session)
    run = train_hybrid(train, quick_config)
    direct = evaluate_model(run.model, train, test, SplitPlan(), baselines=True)
    assert [r.model for r in direct] == [r.model for r in quick_reports]
    for got, expected in zip(quick_reports, direct):
        got, expected = got.to_dict(), expected.to_dict()
        del got["runtime_s"], expected["runtime_s"]
        assert got == expected
