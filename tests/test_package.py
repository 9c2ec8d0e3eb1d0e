"""The package surface: lazy public names and the version a report embeds."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lislab

ROOT = Path(__file__).resolve().parents[1]


def test_import_lislab_loads_no_numpy():
    code = "import json, sys, lislab; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert [m for m in modules if m.startswith("lislab")] == ["lislab"]


def test_every_public_name_is_its_owning_module_object():
    for name in lislab.__all__:
        value = getattr(lislab, name)
        if name in lislab._PUBLIC:
            assert value is importlib.import_module(f"lislab.{name}"), name
        else:
            owner = importlib.import_module(f"lislab.{lislab._EXPORTS[name]}")
            assert value is getattr(owner, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lislab.no_such_name  # noqa: B018
    assert set(lislab.__all__) <= set(dir(lislab))


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert lislab.__version__ == project["version"]
