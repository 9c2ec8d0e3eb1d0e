"""Benchmark harness for the ``lis-lab`` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-smoke --seed 1 --seconds 60 --trace 0

Load model: one client, closed loop.  Each command of the workload's list
runs as a fresh ``python -m lislab.cli`` process and the next one starts
when it exits; BLAS thread pools are pinned to one thread and
``LIS_LAB_THREADS`` is unset.  ``--seconds`` covers the set-up spawns
and the passes over the command list: after one whole pass, commands
keep running in list order while the next one is expected to end within
it, so the last pass may stop part way.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
from one timed pass, the start-up split and an in-process traced replay
(see ``layers.py``).  The line before it is a JSON record of the run: the
environment, the command list, the sample counts and ``failed_frac``.
The same record is written to ``.bench_work/results/``.

Exit code 0 when the run completed (the ``correct`` field says whether
every command passed the gate), 2 when the checkout has no lislab source
or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from gate import CommandResult  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path("src") / "lislab"

#: Thread-pool variables pinned to 1 in every child and in the traced process.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``lis-lab --help`` spawns whose median is ``setup_s`` (after one warm-up).
SETUP_SPAWNS = 5

#: No run may outlive this many seconds, whatever ``--seconds`` says.
HARD_DEADLINE_S = 170.0

LOAD_MODEL = (
    "closed loop, 1 client: each command is a fresh `python -m lislab.cli` process, "
    "the next starts when it exits"
)


#: Variables set in every child; the thread pools stay at one thread.
PINNED_ENV = {var: "1" for var in BLAS_VARS} | {"PYTHONHASHSEED": "0"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LIS_LAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(PINNED_ENV)
    return env


class Runner:
    """Spawns ``lis-lab`` children one at a time and measures each."""

    def __init__(self, deadline: float):
        self.env = child_env()
        self.pinned = PINNED_ENV
        self.deadline = deadline
        self.out_dir = ROOT / workloads.WORK_DIR / "runs"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def spawn(self, args: list[str]) -> tuple[float, object, int | None, str, str]:
        """Run ``python <args>``; returns wall time, rusage, exit code, stdout, stderr."""
        out_path = self.out_dir / "stdout"
        err_path = self.out_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if proc.returncode >= 0 else None
        return wall, usage, code, out_path.read_text(), err_path.read_text()

    def command(self, argv: list[str], reference: dict) -> CommandResult:
        wall, usage, code, stdout, stderr = self.spawn(["-m", "lislab.cli", *argv])
        return CommandResult(
            argv,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            code,
            gate.check(reference, argv, code, stdout, stderr),
        )

    def timed_passes(
        self, commands: list[list[str]], references: list[dict], until: float | None
    ) -> list[list[CommandResult]]:
        """One whole pass over ``commands``, then, while ``until`` (monotonic) is
        given, further commands in list order as long as each is expected to
        end by then.  The last pass may stop part way."""
        passes = [[self.command(c, r) for c, r in zip(commands, references)]]
        if until is None:
            return passes
        until = min(until, self.deadline)
        while True:
            current: list[CommandResult] = []
            for i, (argv, reference) in enumerate(zip(commands, references)):
                if time.monotonic() + passes[-1][i].wall_s > until:
                    break
                current.append(self.command(argv, reference))
            if current:
                passes.append(current)
            if len(current) < len(commands):
                return passes

    def median_spawn(self, args: list[str], count: int) -> float:
        times = []
        for _ in range(count):
            wall, _, code, _, stderr = self.spawn(args)
            if code != 0:
                raise RuntimeError(f"`python {' '.join(args)}` exited with {code}: {stderr[-500:]}")
            times.append(wall)
        return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / SOURCE).rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git repository of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pinned_env": PINNED_ENV,
        "unset_env": ["LIS_LAB_THREADS"],
        "load_model": LOAD_MODEL,
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def flatten(passes: list[list[CommandResult]]) -> list[CommandResult]:
    return [r for p in passes for r in p]


def end_to_end(passes: list[list[CommandResult]], setup_s: float) -> dict[str, float]:
    """``wall_s`` sums each command's median over the passes (a last, partial
    pass included), so that a slow spell of the machine during one pass
    moves it less than a pass total would."""
    results = flatten(passes)
    samples: list[list[float]] = [[] for _ in passes[0]]
    for result_pass in passes:
        for i, r in enumerate(result_pass):
            samples[i].append(r.wall_s)
    return {
        "wall_s": sum(statistics.median(s) for s in samples),
        "cmd_p50_s": statistics.median(r.wall_s for r in results),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.max_rss_mb for r in results),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / SOURCE / "cli.py").is_file():
        print(f"error: no lislab source under {ROOT / SOURCE}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + HARD_DEADLINE_S
    os.chdir(ROOT)
    e2e_units, layer_units = metric_units()
    commands = workloads.build_commands(args.workload, args.seed, ROOT)
    references = gate.load_reference(args.workload, workloads.instance_of(args.seed))
    if len(references) != len(commands):
        print("error: reference and command list differ in length", file=sys.stderr)
        return 2
    runner = Runner(deadline)
    out_dir = ROOT / workloads.WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import layers

        passes = runner.timed_passes(commands, references, None)
        spans_path = out_dir / f"{stem}-spans.jsonl"
        values, extra = layers.per_layer(runner, commands, references, passes[0], spans_path)
        units = layer_units
    else:
        runner.spawn(["-m", "lislab.cli", "--help"])  # fills the bytecode cache
        setup_s = runner.median_spawn(["-m", "lislab.cli", "--help"], SETUP_SPAWNS)
        passes = runner.timed_passes(commands, references, started + args.seconds)
        values, extra = end_to_end(passes, setup_s), {"setup_samples": SETUP_SPAWNS}
        units = e2e_units

    results = flatten(passes) + extra.pop("replayed", [])
    failed = [r for r in results if r.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "instance": workloads.instance_of(args.seed),
        "trace": args.trace,
        "environment": environment(),
        "commands": [" ".join(c) for c in commands],
        "passes": len(passes),
        "cmd_samples": len(flatten(passes)),
        "failed_frac": len(failed) / len(results),
        "failures": [{"argv": r.argv, "reasons": r.failures} for r in failed[:10]],
        "command_wall_s": [[round(r.wall_s, 4) for r in p] for p in passes],
        **extra,
    }
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
