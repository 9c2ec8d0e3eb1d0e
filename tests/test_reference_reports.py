"""Reports on fixed seeds stay as the benchmark references captured them.

Every command of both benchmark workloads is replayed in-process through
``lislab.cli.main`` and its exit code and JSON report are compared with
``perfbench/reference/`` by ``perfbench/gate.py`` (timing fields
skipped, last-digit moves within rel 1e-9 / abs 1e-10 allowed).

The benchmark's per-layer replay (``perfbench/run.py --trace 1``) wraps the
functions in ``layers.WRAPPED`` and reads some of their arguments by name,
so a renamed function or argument would break it; one instance of each
workload is replayed the way it does.
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


@pytest.mark.parametrize(
    ("workload", "counted"),
    [
        ("cli-smoke", ("bounds.correlation_bound.tail_sites", "sim.sample_path.steps")),
        (
            "tail-transport",
            (
                "bounds.correlation_bound.tail_sites",
                "bounds.comparison_bound.tail_sites",
                "sim.sample_path.steps",
            ),
        ),
    ],
)
def test_traced_replay_wraps_the_library(workload, counted, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import layers
    import workloads

    monkeypatch.chdir(tmp_path)
    commands = workloads.build_commands(workload, 0, tmp_path)
    references = gate.load_reference(workload, 0)
    # untraced first, as per_layer does: it loads the modules the tracer wraps
    untraced = layers.replay(commands, references, None)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = layers.replay(commands, references, tracer)
    finally:
        tracer.uninstall()
    assert not {" ".join(r.argv): r.failures for r in untraced + traced if r.failures}
    assert {key: tracer.counts[key] for key in counted if not tracer.counts[key]} == {}
