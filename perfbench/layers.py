"""Per-layer metrics: the start-up split and an outside-in traced replay.

Nothing here edits the library.  The traced replay imports ``lislab`` into
the benchmark process, replaces each function in ``WRAPPED`` with a
timing wrapper on its defining module and on every ``lislab`` module that
bound the same object at import (``lislab.cli`` binds most of them with
``from .x import f``; lazy imports inside functions read the defining
module and so see the wrapper too), and replays the workload's commands
through ``lislab.cli.main(argv)``.  Each wrapper records a span (name,
start, end, parent span, command index) in memory; the spans are written
to ``.bench_work/results/`` when the run ends.  ``self_s`` of a function
is its span time minus the time of the wrapped calls nested in it.

Counts come from arguments and return values: window cells from the
shape of ``window_weights``' result, tail sites from the ``k_floor`` a
bound reports, path steps from ``sample_path``'s length, and distinct
kernels per command from the kernel passed to
``build_sensitivity_matrix``.

``trace.overhead_frac`` compares the traced replay with the same replay
run just before it with the wrappers off.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

import gate

WRAPPED = {
    "cli": ("main",),
    "specio": ("load_spec_file", "power_law_linear"),
    "kernels": ("window_weights", "compose_window", "verify_consistency"),
    "analysis": (
        "build_sensitivity_matrix",
        "sensitivity_estimator",
        "vkr_distance",
        "boundary_uniformity_check",
    ),
    "bounds": ("correlation_bound", "comparison_bound", "memory_bound_general"),
    "oracle": (
        "exact_oscillation_of_average",
        "exact_correlation",
        "stationary_measure",
        "verify_dusting",
    ),
    "sim": ("sample_path", "estimate_correlation", "default_burn_in"),
}

#: Spawns behind each start-up figure (the median is reported).
STARTUP_SPAWNS = 3


class Tracer:
    """Span recorder installed around the functions in ``WRAPPED``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command index]
        self.stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()
        self.kernels_built: set = set()
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "lislab" or n.startswith("lislab.")]
        for mod_name, names in WRAPPED.items():
            home = importlib.import_module(f"lislab.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)
        in_oracle = name.startswith("oracle.")
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.command]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if in_oracle and type(exc).__name__ == "CapExceededError":
                    if parent < 0 or not spans[parent][0].startswith("oracle."):
                        self.counts["oracle.cap_exceeded"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_kernels_window_weights(self, args, result) -> None:
        self.counts["kernels.window_weights.cells"] += int(result.size)

    def _on_analysis_build_sensitivity_matrix(self, args, result) -> None:
        kernel = args["f"]
        try:
            hash(kernel)
        except TypeError:
            kernel = id(kernel)
        self.kernels_built.add((self.command, kernel))

    def _on_bounds_correlation_bound(self, args, result) -> None:
        self.counts["bounds.correlation_bound.tail_sites"] += _tail_sites(args["delta"].hi, result)

    def _on_bounds_comparison_bound(self, args, result) -> None:
        self.counts["bounds.comparison_bound.tail_sites"] += _tail_sites(args["lam"].hi, result)

    def _on_sim_sample_path(self, args, result) -> None:
        self.counts["sim.sample_path.steps"] += int(args["length"])

    def stats(self) -> dict[str, dict[str, float]]:
        """calls, span total ``s`` and ``self_s`` per wrapped function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


def _tail_sites(first_site: int, report) -> int:
    """Sites a bound's tail loop visited, from the first down to ``k_floor``."""
    k_floor = report.quantities.get("k_floor")
    return 0 if k_floor is None else int(first_site - k_floor) + 1


def _clear_caches() -> None:
    """Drop every ``functools`` cache in lislab, as a fresh process would start."""
    for name, module in list(sys.modules.items()):
        if name == "lislab" or name.startswith("lislab."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def replay(commands, references, tracer: Tracer | None):
    """Run every command in-process through ``lislab.cli.main``."""
    import lislab.cli

    results = []
    for index, (argv, reference) in enumerate(zip(commands, references)):
        _clear_caches()
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        started, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lislab.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = None
                traceback.print_exc()
        wall = time.perf_counter() - started
        failures = gate.check(reference, argv, code, out.getvalue(), err.getvalue())
        results.append(gate.CommandResult(argv, wall, time.process_time() - cpu, 0.0, code, failures))
    return results


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds importing ``lislab`` and the outermost ``scipy`` modules under it.

    ``-X importtime`` prints one line per module after its imports, indented
    by nesting depth; a module's parent is the next line with less indent.
    """
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip(" "))
        lines.append((indent, name.strip(), int(cumulative) * 1e-6))
    lislab_s = scipy_s = 0.0
    stack: list[tuple[int, str]] = []  # ancestors of the current line, outermost first
    for indent, name, seconds in reversed(lines):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if not stack and (name == "lislab" or name.startswith("lislab.")):
            lislab_s += seconds
        if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            if any(a.split(".")[0] == "lislab" for _, a in stack):
                scipy_s += seconds
        stack.append((indent, name))
    return lislab_s, scipy_s


def startup_split(runner) -> dict[str, float]:
    interpreter = runner.median_spawn(["-c", "pass"], STARTUP_SPAWNS)
    imports, scipy = [], []
    for _ in range(STARTUP_SPAWNS):
        _, _, code, _, stderr = runner.spawn(["-X", "importtime", "-c", "import lislab.cli"])
        if code != 0:
            raise RuntimeError(f"importing lislab.cli failed: {stderr[-500:]}")
        lislab_s, scipy_s = parse_importtime(stderr)
        imports.append(lislab_s)
        scipy.append(scipy_s)
    return {
        "startup.interpreter_s": interpreter,
        "startup.import_s": statistics.median(imports),
        "startup.import_scipy_s": statistics.median(scipy),
    }


def per_layer(runner, commands, references, timed_pass, spans_path) -> tuple[dict[str, float], dict]:
    """Per-layer metric values and a record of how they were obtained."""
    values = startup_split(runner)
    values["process.cpu_s"] = sum(r.cpu_s for r in timed_pass)

    os.environ.update(runner.pinned)
    os.environ.pop("LIS_LAB_THREADS", None)
    sys.path.insert(0, runner.env["PYTHONPATH"])
    import lislab.cli  # noqa: F401  (imports every module the tracer wraps)

    untraced = replay(commands, references, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced = replay(commands, references, tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(r.wall_s for r in untraced)
    traced_s = sum(r.wall_s for r in traced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    stats = tracer.stats()  # a defaultdict: functions never called read 0
    counts = tracer.counts
    for name in (f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs):
        for key in ("calls", "s", "self_s"):
            values[f"{name}.{key}"] = stats[name][key]
    builds = stats["analysis.build_sensitivity_matrix"]["calls"]
    values["analysis.build_sensitivity_matrix.distinct_ratio"] = (
        len(tracer.kernels_built) / builds if builds else 0.0
    )
    for key in (
        "kernels.window_weights.cells",
        "bounds.correlation_bound.tail_sites",
        "bounds.comparison_bound.tail_sites",
        "sim.sample_path.steps",
        "oracle.cap_exceeded",
    ):
        values[key] = counts[key]
    sample_s = stats["sim.sample_path"]["s"]
    values["sim.sample_path.steps_per_s"] = counts["sim.sample_path.steps"] / sample_s if sample_s else 0.0

    startup_total = len(commands) * (values["startup.interpreter_s"] + values["startup.import_s"])
    ranking = sorted(
        [(s["self_s"], name) for name, s in stats.items()] + [(startup_total, "startup")],
        reverse=True,
    )
    with open(spans_path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")

    extra = {
        "replayed": untraced + traced,
        "startup_samples": STARTUP_SPAWNS,
        "replay_s": {"untraced": untraced_s, "traced": traced_s},
        "self_s_ranking": [[name, round(s, 4)] for s, name in ranking[:6]],
        "dominant_layer": ranking[0][1],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(os.getcwd())),
    }
    return values, extra
