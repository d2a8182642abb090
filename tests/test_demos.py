"""The demos run end to end against the current API.

Each demo is a top-level script, so an API change that breaks one surfaces
only when it runs; these tests run them in a scratch working directory.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["01_synthetic_session.py", "05_feature_scatter_export.py"]
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
