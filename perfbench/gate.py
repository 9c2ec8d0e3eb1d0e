"""Correctness gate: every command's result against the captured reference.

A command fails when any of these holds:

* its exit code differs from the reference exit code;
* its stderr holds a Python traceback;
* a deterministic field of its JSON report differs from the reference.

Fields named in ``SKIPPED_FIELDS`` are timing, environment or diagnostic
data and are never compared.  Floats compare within ``REL_TOL`` relative
or ``ABS_TOL`` absolute: the bounds' tail certificates are accurate to
1e-12 of the bound, so a tighter certificate may move the last digits of
a bound but never by more than these tolerances.  Integers, strings,
booleans and list lengths compare exactly, with one allowance: a table
cell that is empty (``""``) in the reference may hold any string in the
result, so that a report may say why a cell is empty.  Fields present in
the result but absent from the reference are ignored.

Independently of the reference, every table row that has both a
``bound`` and an ``exact`` number must satisfy
``bound >= exact - SOUNDNESS_TOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SKIPPED_FIELDS = frozenset({"elapsed_seconds", "threads", "diagnostics"})
REL_TOL = 1e-9
ABS_TOL = 1e-10
SOUNDNESS_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class CommandResult:
    """One execution of a command and the reasons it failed the gate."""

    argv: list[str]
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int | None
    failures: list[str] = field(default_factory=list)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, instance: int) -> list[dict]:
    """Reference entries (argv, exit code, report) of one input instance."""
    doc = json.loads(reference_path(workload).read_text())
    return doc["instances"][str(instance)]


def deterministic(report):
    """The report with every skipped field removed, at any depth."""
    if isinstance(report, dict):
        return {k: deterministic(v) for k, v in report.items() if k not in SKIPPED_FIELDS}
    if isinstance(report, list):
        return [deterministic(v) for v in report]
    return report


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _differences(ref, got, where: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                _differences(value, got[key], f"{where}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _differences(a, b, f"{where}[{i}]", out)
    elif isinstance(ref, float) or (_is_number(ref) and isinstance(got, float)):
        if not _is_number(got) or not _close(float(ref), float(got)):
            out.append(f"{where}: {got!r} != {ref!r}")
    elif ref == "" and isinstance(got, str):
        return
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{where}: {got!r} != {ref!r}")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def unsound_rows(report: dict) -> list[str]:
    """Table rows whose bound falls below the exact value."""
    table = report.get("table") if isinstance(report, dict) else None
    if not isinstance(table, dict):
        return []
    header = table.get("header", [])
    if "bound" not in header or "exact" not in header:
        return []
    ib, ie = header.index("bound"), header.index("exact")
    bad = []
    for row in table.get("rows", []):
        bound, exact = row[ib], row[ie]
        if _is_number(bound) and _is_number(exact) and not bound >= exact - SOUNDNESS_TOL:
            bad.append(f"row {row[0]!r}: bound {bound!r} < exact {exact!r}")
    return bad


def check(reference: dict, argv: list[str], exit_code: int | None, stdout: str, stderr: str) -> list[str]:
    """Reasons the command failed the gate; empty when it passed."""
    if reference["argv"] != argv:
        return [f"command {argv} does not match the reference command {reference['argv']}"]
    reasons = []
    if exit_code != reference["exit_code"]:
        reasons.append(f"exit code {exit_code}, reference {reference['exit_code']}")
    if "Traceback (most recent call last)" in stderr:
        reasons.append("traceback on stderr")
    if reference["report"] is None:
        return reasons
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return reasons + ["stdout is not a JSON report"]
    diffs: list[str] = []
    _differences(deterministic(reference["report"]), deterministic(report), "report", diffs)
    reasons.extend(diffs[:5])
    reasons.extend(unsound_rows(report))
    return reasons
