"""Shared fixtures.

The expensive resources (synthetic sessions, trained desk-scale models) are
session-scoped so the end-to-end tests and the acceptance suite reuse one
training run instead of repeating it. ``traced_peak`` is the one way a test
measures what a call allocates.
"""

from __future__ import annotations

import tracemalloc

import pytest

from emgkin.config import PipelineConfig, StageConfig, desk_preset
from emgkin.evaluation import run_evaluation
from emgkin.synth import SynthConfig, generate, generate_session_pair
from emgkin.training import train_hybrid


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes ``tracemalloc`` traced during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def p1_session():
    """60 s single-DoF recording, the standard end-to-end input."""
    return generate(SynthConfig(protocol="P1", duration_s=60.0, seed=1))


@pytest.fixture(scope="session")
def p1_pair():
    return generate_session_pair(SynthConfig(protocol="P1", duration_s=60.0, seed=1))


@pytest.fixture(scope="session")
def p4_session():
    return generate(SynthConfig(protocol="P4", duration_s=60.0, seed=0))


@pytest.fixture(scope="session")
def p1_short():
    """30 s session: enough windows for k=98 sequences in the test fold."""
    return generate(SynthConfig(protocol="P1", duration_s=30.0, seed=3))


@pytest.fixture(scope="session")
def tiny_session():
    """20 s session for fast training-path tests."""
    return generate(SynthConfig(protocol="P1", duration_s=20.0, seed=5))


@pytest.fixture(scope="session")
def tiny_config():
    # 1-epoch stages: exercises the full path in a couple of seconds.
    return PipelineConfig(
        seed=5,
        cnn=StageConfig(epochs=1, lr0=1e-4),
        lstm=StageConfig(epochs=2, lr0=1e-3),
    )


@pytest.fixture(scope="session")
def desk_p1_config():
    return desk_preset(PipelineConfig(seed=1))


@pytest.fixture(scope="session")
def desk_p1_reports(desk_p1_config, p1_session):
    """Full intra-session evaluation (hybrid + both baselines) on P1."""
    return run_evaluation(desk_p1_config, p1_session, baselines=True)


@pytest.fixture(scope="session")
def desk_p4_reports(p4_session):
    config = desk_preset(PipelineConfig(seed=0))
    return run_evaluation(config, p4_session, baselines=True)


@pytest.fixture(scope="session")
def desk_inter_reports(desk_p1_config, p1_pair):
    return run_evaluation(desk_p1_config, list(p1_pair), baselines=True)


@pytest.fixture(scope="session")
def desk_tiny_runs(tiny_session):
    """The same desk-preset training executed twice, for determinism checks."""
    config = desk_preset(PipelineConfig(seed=7))
    return train_hybrid(tiny_session, config), train_hybrid(tiny_session, config)
