"""Smoke runs of the sweep scripts against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_finite_volume_convergence_refuses_a_window_past_the_cap():
    # the window [-12, 0] has 2**13 configurations; n = 11 is the last that fits
    proc = _run(ROOT / "scripts" / "finite_volume_convergence.py", "--max-n", "12")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--max-n 12" in proc.stderr
    proc = _run(ROOT / "scripts" / "finite_volume_convergence.py", "--max-n", "11")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[0] == "11"


@pytest.mark.parametrize(
    ("script", "args"),
    [
        ("finite_volume_convergence", ("--p01", "1.5")),
        ("powerlaw_report", ("--depths", "0")),
        ("powerlaw_report", ("--epsilons", "2")),
    ],
)
def test_scripts_refuse_a_bad_model_parameter(script, args):
    # each ended in a ValueError traceback from the kernel builder
    proc = _run(ROOT / "scripts" / f"{script}.py", *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    [error] = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert error.startswith(f"{script}.py: error: ") and " ".join(args) in error
