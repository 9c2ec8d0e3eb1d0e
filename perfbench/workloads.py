"""Seeded inputs and command lists of the two benchmark workloads.

Every spec file a workload passes to ``lis-lab`` is generated here from
the workload seed.  A seed is first folded onto one of ``POOL`` input
instances, because the correctness gate compares every report against a
reference captured once per instance (see ``gate.py``); the same seed
always gives the same spec bytes and the same command list.

Sizes are chosen so that a run repeats every command at least twice,
so that most commands of a workload take about the same time (then the
median command time falls inside that cluster, not between two very
different commands), and so that the amount of work in a pass does not
depend on the seed: the seed changes table entries, coefficient jitter
and sampler seeds, never alphabet sizes, depths, lag lists or path
lengths.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

#: Number of distinct input instances; a seed selects ``seed % POOL``.
POOL = 16

#: Relative location (from the checkout root) of generated inputs and outputs.
WORK_DIR = Path(".bench_work")


def instance_of(seed: int) -> int:
    return seed % POOL


# ---------------------------------------------------------------- spec docs


def _alphabet(n: int) -> dict:
    return {"symbols": [str(i) for i in range(n)]}


def _normalised(weights: list[float], floor: float) -> list[float]:
    n = len(weights)
    total = sum(weights)
    row = [floor + (1.0 - n * floor) * w / total for w in weights]
    row[-1] = 1.0 - sum(row[:-1])
    return row


def random_rows(rng: random.Random, n: int, depth: int, floor: float) -> list[list[float]]:
    """``n**depth`` independent random rows, each entry at least ``floor``."""
    return [
        _normalised([rng.expovariate(1.0) for _ in range(n)], floor) for _ in range(n**depth)
    ]


def _mix(row: list[float], noise: list[float], weight: float) -> list[float]:
    mixed = [(1.0 - weight) * a + weight * b for a, b in zip(row, noise)]
    mixed[-1] = 1.0 - sum(mixed[:-1])
    return mixed


def weak_rows(rng: random.Random, n: int, depth: int, weight: float) -> list[list[float]]:
    """A fixed base law mixed with past-dependent noise of mass ``weight``.

    Each lag moves a row by at most ``weight`` in total variation, so the
    sensitivity row sum stays below ``depth * weight``.
    """
    base = _normalised([rng.expovariate(1.0) for _ in range(n)], 0.1)
    return [_mix(base, noise, weight) for noise in random_rows(rng, n, depth, 0.0)]


def table_spec(label: str, n: int, depth: int, rows: list[list[float]]) -> dict:
    return {
        "label": label,
        "alphabet": _alphabet(n),
        "memory_depth": depth,
        "kernel": {"type": "table", "rows": rows},
    }


def markov_spec(rng: random.Random) -> dict:
    p01 = rng.uniform(0.2, 0.4)
    p11 = rng.uniform(0.6, 0.8)
    return {
        "label": "markov",
        "alphabet": _alphabet(2),
        "memory_depth": 1,
        "kernel": {"type": "markov", "range": 1, "rows": [[1 - p01, p01], [1 - p11, p11]]},
    }


def powerlaw_spec(rng: random.Random, depth: int, mass: float = 0.45) -> dict:
    """Binary linear kernel with jittered power-law coefficients.

    The coefficients follow ``k**-1.5`` with a +-5 % seeded jitter and are
    rescaled to a fixed total ``mass``, so the sensitivity row sum (which
    sets the length of every tail certificate) is the same for all seeds.
    """
    raw = [k**-1.5 * rng.uniform(0.95, 1.05) for k in range(1, depth + 1)]
    scale = mass / sum(raw)
    coeffs = [a * scale for a in raw]
    intercept = rng.uniform(0.05, 0.25)
    return {
        "label": f"powerlaw-{depth}",
        "alphabet": _alphabet(2),
        "memory_depth": depth,
        "kernel": {"type": "linear", "intercept": intercept, "coefficients": coeffs},
    }


def site_indexed_spec(rng: random.Random) -> dict:
    """Depth-2 weakly dependent default with overrides at sites -1, 0 and 1."""
    default = {"type": "markov", "range": 2, "rows": weak_rows(rng, 2, 2, 0.3)}
    overrides = {
        str(site): {"type": "markov", "range": 2, "rows": weak_rows(rng, 2, 2, 0.3)}
        for site in (-1, 0, 1)
    }
    return {
        "label": "site-indexed",
        "alphabet": _alphabet(2),
        "memory_depth": 2,
        "kernel": {"type": "site_indexed", "default": default, "overrides": overrides},
    }


# ---------------------------------------------------------------- workloads


class SpecWriter:
    """Writes spec documents under one directory and returns their paths.

    Returned paths are relative to the checkout root, which is the working
    directory of every command, so reports name the same path on every
    machine.
    """

    def __init__(self, root: Path, directory: Path):
        self.root = root
        self.directory = directory
        (root / directory).mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, doc: dict) -> str:
        path = self.directory / f"{name}.json"
        (self.root / path).write_text(json.dumps(doc, sort_keys=True) + "\n")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.directory / name)


def _cli_smoke(rng: random.Random, instance: int, spec: SpecWriter) -> list[list[str]]:
    """Small default-size commands of all four subcommands.

    Each takes about a second, three quarters of it interpreter start-up
    and imports; this is the "no change" side for every heavy layer.
    """
    markov = spec("markov", markov_spec(rng))
    site = spec("site2", site_indexed_spec(rng))
    t33 = spec("t3x3", table_spec("t3x3", 3, 3, random_rows(rng, 3, 3, 0.05)))
    t42 = spec("t4x2", table_spec("t4x2", 4, 2, random_rows(rng, 4, 2, 0.05)))
    eps = f"{rng.uniform(0.3, 0.7):.6f}"
    pl8 = ["--example", "paper-powerlaw", "--depth", "8", "--epsilon", eps]
    pl64 = ["--example", "paper-powerlaw", "--depth", "64", "--epsilon", eps]
    sim_seed = str(1 + instance)
    return [
        ["check", markov, "--criterion", "both"],
        ["bound", "correlation", markov, "--verify", "--lags", "1:4", "--csv", spec.out("corr.csv")],
        ["simulate", markov, "--length", "50000", "--seed", sim_seed],
        ["verify", *pl8, "--seed", sim_seed],
        ["bound", "memory", *pl8, "--verify"],
        ["check", *pl64, "--criterion", "both"],
        ["check", site, "--criterion", "both"],
        ["verify", t33, "--seed", sim_seed],
        ["check", t42, "--criterion", "both"],
    ]


def _tail_transport(rng: random.Random, instance: int, spec: SpecWriter) -> list[list[str]]:
    """Deep correlation bounds, dense-table checks and one two-kernel comparison.

    Two layers share the work.  The certified tail of ``correlation_bound``
    walks hundreds of sites per lag on a depth-24 linear kernel, which takes
    closed forms and so makes no transport solve; the sensitivity matrices
    of the full random tables are transport solves, by vertex enumeration
    for 3 symbols and by the HiGHS LP for 4.  The only workload that runs
    ``comparison_bound``'s tail.  Every command but the 4-symbol check takes
    about 3 s.
    """
    d24 = spec("powerlaw24", powerlaw_spec(rng, 24))
    t3x5 = spec("t3x5", table_spec("t3x5", 3, 5, random_rows(rng, 3, 5, 0.02)))
    t3x5b = spec("t3x5b", table_spec("t3x5b", 3, 5, random_rows(rng, 3, 5, 0.02)))
    t4x4 = spec("t4x4", table_spec("t4x4", 4, 4, random_rows(rng, 4, 4, 0.02)))
    ref_rows = weak_rows(rng, 3, 4, 0.15)
    other_rows = [_mix(row, noise, 0.05) for row, noise in zip(ref_rows, random_rows(rng, 3, 4, 0.0))]
    ref = spec("weak3x4", table_spec("weak3x4", 3, 4, ref_rows))
    other = spec("weak3x4-other", table_spec("weak3x4-other", 3, 4, other_rows))
    return [
        ["bound", "correlation", d24, "--lags", "1"],
        ["bound", "correlation", d24, "--lags", "2"],
        ["simulate", "--example", "paper-powerlaw", "--depth", "24", "--epsilon", "0.5",
         "--length", "100000", "--lags", "1", "--seed", str(1 + instance)],
        ["check", t3x5],
        ["check", t3x5b],
        ["bound", "compare", ref, "--other", other],
        ["check", t4x4],
    ]


#: Builders by workload name; ``BENCHMARK.json`` gives the reason for each.
WORKLOADS: dict[str, Callable[[random.Random, int, "SpecWriter"], list[list[str]]]] = {
    "cli-smoke": _cli_smoke,
    "tail-transport": _tail_transport,
}


def build_commands(workload: str, seed: int, root: Path) -> list[list[str]]:
    """Write the workload's spec files for ``seed`` and return its command list."""
    instance = instance_of(seed)
    rng = random.Random(f"{workload}:{instance}")
    writer = SpecWriter(root, WORK_DIR / "specs" / workload)
    return WORKLOADS[workload](rng, instance, writer)
