"""Capture the correctness gate's reference reports.

    python3 perfbench/capture_reference.py [workload ...]

Runs every command of every input instance (``workloads.POOL`` per
workload) once, as the benchmark does, and writes the exit code and the
deterministic part of each JSON report to ``perfbench/reference/``.  The
references are meant to be captured once, at the commit that introduced
the benchmark; a later change that alters a report on purpose must say
so, because the benchmark will count the changed commands as failed.

Capture refuses to write a reference for a command that prints a
traceback or breaks bound soundness.  Two workloads are captured at a
time (one child process each); the instances of one workload run in
turn, because they share its spec directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import workloads  # noqa: E402
from run import ROOT, child_env, git_commit, source_digest  # noqa: E402


def capture_workload(name: str) -> dict:
    env = child_env()
    instances = {}
    for instance in range(workloads.POOL):
        entries = []
        for argv in workloads.build_commands(name, instance, ROOT):
            proc = subprocess.run(
                [sys.executable, "-m", "lislab.cli", *argv],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            if "Traceback" in proc.stderr:
                raise SystemExit(f"{name}[{instance}] {argv}: traceback\n{proc.stderr}")
            try:
                report = gate.deterministic(json.loads(proc.stdout))
            except json.JSONDecodeError:
                report = None
            if report is not None and gate.unsound_rows(report):
                raise SystemExit(f"{name}[{instance}] {argv}: {gate.unsound_rows(report)}")
            entries.append({"argv": argv, "exit_code": proc.returncode, "report": report})
        instances[str(instance)] = entries
        print(f"{name}: instance {instance} captured", file=sys.stderr, flush=True)
    return instances


def main(names: list[str]) -> int:
    names = names or list(workloads.WORKLOADS)
    commit, digest = git_commit(), source_digest()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    with ThreadPoolExecutor(max_workers=2) as pool:
        captured = dict(zip(names, pool.map(capture_workload, names)))
    for name, instances in captured.items():
        doc = {
            "workload": name,
            "captured_at": {"commit": commit, "source_sha256": digest},
            "instances": instances,
        }
        gate.reference_path(name).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
