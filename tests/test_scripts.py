"""Smoke runs of the sweep scripts against the public API."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

#: Arguments by script; the memory sweep runs past n = 11, where enumerating
#: the window [0, n] would exceed the configuration cap.
ARGS = {"memory_decay_sweep": ["--max-n", "40"]}


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.stem, [])],
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


def test_memory_decay_sweep_fills_every_exact_row():
    proc = _run(ROOT / "scripts" / "memory_decay_sweep.py")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [int(row["n"]) for row in rows] == list(range(1, 41))
    assert all(math.isfinite(float(row["exact"])) for row in rows)
