"""Reports on fixed seeds stay as the benchmark references captured them.

Every command of both benchmark workloads is replayed in-process through
``lislab.cli.main`` and its exit code and JSON report are compared with
``perfbench/reference/`` by ``perfbench/gate.py`` (timing fields
skipped, last-digit moves within rel 1e-9 / abs 1e-10 allowed).
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("instance", range(16))
@pytest.mark.parametrize("workload", ["cli-smoke", "tail-transport"])
def test_reports_match_reference(workload, instance, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import layers
    import workloads

    monkeypatch.chdir(tmp_path)
    commands = workloads.build_commands(workload, instance, tmp_path)
    results = layers.replay(commands, gate.load_reference(workload, instance), None)
    assert len(results) == len(commands)
    failed = {" ".join(r.argv): r.failures for r in results if r.failures}
    assert not failed
