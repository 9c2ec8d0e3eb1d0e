"""The package surface: lazy public names, module imports and the version a report embeds."""

import ast
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


def _oracle_importers(path: Path) -> set[str]:
    """The functions (or ``"<module>"``) in ``path`` that import ``lislab.oracle``."""
    found = set()

    def imports_oracle(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name == "lislab.oracle" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, "oracle"), (0, "lislab.oracle")):
                return True
            if (node.level, node.module) in ((1, None), (0, "lislab")):
                return any(alias.name == "oracle" for alias in node.names)
        return False

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if imports_oracle(child):
                found.add(scope)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_no_bound_reads_the_oracle():
    # the bounds are checked against the oracle's references, so no library
    # module but the CLI may read them; kernels' __getattr__ forwards
    # verify_consistency for the benchmark's trace
    importers = {p.name: _oracle_importers(p) for p in (ROOT / "src" / "lislab").glob("*.py")}
    assert {name: scopes for name, scopes in importers.items() if scopes} == {
        "cli.py": importers["cli.py"],
        "kernels.py": {"__getattr__"},
    }
