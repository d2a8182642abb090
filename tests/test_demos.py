"""The demos run end to end against the current API.

Each demo is a top-level script, so an API change that breaks one surfaces
only when it runs. Demos 01 and 05 run here in a scratch working directory;
demos 02-04 train desk-scale models for 30-50 s each, so for all five the
cheap check is that every name they import from emgkin still exists.
"""

import ast
import importlib
import importlib.util
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize(
    "script", ["01_synthetic_session.py", "05_feature_scatter_export.py"]
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_imports_resolve(script):
    tree = ast.parse((DEMOS / script).read_text(), filename=script)
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "emgkin"
        for alias in node.names
    ]
    assert imports, f"{script} imports nothing from emgkin"
    for module, name in imports:
        parent = importlib.import_module(module)
        found = hasattr(parent, name) or (
            hasattr(parent, "__path__")  # a package: name may be a submodule
            and importlib.util.find_spec(f"{module}.{name}") is not None
        )
        assert found, f"{script}: from {module} import {name} does not resolve"
