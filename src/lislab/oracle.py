"""Exact brute-force ground truth at desk scale.

Everything here is computed by direct enumeration, exact linear algebra
or the block transfer of one-dimensional statistical mechanics, never
through the bound formulas it is used to validate: agreement between the
two is evidence, not tautology.  The backward block step
(``_backward_sweep``, beside ``_step``, its forward twin on block laws)
averages a window out site by site from the right, so one sweep gives
exact oscillations of window averages at every length.  Random value
tables are drawn i.i.d. uniform on [0, 1) with per-trial seeds derived
deterministically from the run seed, so parallel and serial runs report
identically.  The transport reference ``_vkr_vertex_enum`` enumerates
the spanning-tree vertices of the transportation polytope; the
library's ``vkr_distance`` never calls it.  Dense matrix powers
(``_dusting_matrix``) are the one power-sum reference; the spread and
decay-envelope checks read them.  The stationary block law is one exact
linear solve on a view of the kernel's own table; ``_step`` carries it
forward to expectations and, weighted by a centred observable, to every
lag of a correlation in one sweep.  ``sample_path_stepwise`` is the
per-step sampling loop both of the library's samplers are held to, bit
for bit.

``verify_suite`` is the property suite behind ``lis-lab verify``, with
its admission rule; every worst-residual fold in it goes through
``_worst``, so a NaN fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    ABS_TOL,
    DEFAULT_CONFIG_CAP,
    WORK_CAP,
    CapExceededError,
    FiniteDistribution,
    Observable,
    Window,
    axis_oscillation,
    check_cap,
    constant_observable,
    exceeds_cap,
    oscillation,
    random_observable,
    worse,
)
from .kernels import (
    KernelSpec,
    LinearLongMemory,
    _check_compose_args,
    compose_window,
    family_row,
    kernel_average_observable,
)
from .analysis import SensitivityMatrix
from .bounds import DecaySpec, _check_rows, _decay_prefactor, memory_bound_general


#: Largest worst residual with which an identity of the ``verify`` suite passes.
RESIDUAL_TOL = 1e-12


class ChainStructureError(RuntimeError):
    """The induced block chain is reducible or periodic."""


def exact_oscillation_of_average(f: KernelSpec, window: Window, h: Observable, j: int) -> float:
    """Exact oscillation at site ``j`` of the window average of ``h``.

    One backward sweep (``_backward_sweep``) from the top of the support
    down to the window; blocks past the cap raise ``CapExceededError``.
    The average of an ``h`` wholly left of the window is ``h`` itself.
    Sites inside the window, or left of its block of ``max(order, |support|)``
    sites, come out exactly zero: the average does not depend on them.
    """
    if window.contains(j):
        return 0.0
    if j >= window.lo:
        raise ValueError("the probed site must lie left of the window or inside it")
    _check_compose_args(f, window, h)
    if h.support.hi < window.lo:
        return oscillation(h, j)
    width = max(f.effective_order, len(h.support))
    if window.lo - j > width:
        return 0.0
    v = np.tile(h.table, check_cap(f.alphabet.size, width) // len(h.table)) - h.table[0]
    for v in _backward_sweep(f, v, h.support.hi, window.lo):
        pass  # down to the window, or to a vector of zeros
    return axis_oscillation(v, f.alphabet, width - window.lo + j)


def exact_oscillation_rows(f: KernelSpec, h: Observable, j: int, max_n: int) -> list[float]:
    """Exact oscillation of the average of ``h`` moved right by ``n`` on ``[0, n]``, ``n <= max_n``.

    The exact twin of ``bounds.memory_bound_rows``; row ``n`` equals
    ``exact_oscillation_of_average`` bit for bit.  Every site above the
    highest override ``o`` that a row reads (-1 if none) reads the default
    table, so one default sweep takes each row down to ``o + 1``, one more
    site per row, and each row then steps its own sites ``min(top, o) .. 0``.
    Rows whose steps times blocks would pass ``WORK_CAP`` are left out (past
    a vector of zeros every row is 0.0), and so is every row past the cap.
    """
    max_n = _check_rows(h, j, max_n)
    _check_compose_args(f, h.support, h)
    width = max(f.effective_order, len(h.support))
    if -j > width:
        return [0.0] * max_n
    if exceeds_cap(f.alphabet.size, width, DEFAULT_CONFIG_CAP):
        return []
    hi = h.support.hi
    o = max((s for s in f.override_sites if 0 <= s <= hi + max_n), default=-1)
    v = np.tile(h.table, f.alphabet.size**width // len(h.table)) - h.table[0]  # centred
    default = _backward_sweep(f, v, hi + max_n, o + 1)  # every site above o reads one table
    rows, stepped, tails = [], 0, 0  # default sites stepped, and the rows' own sites
    for top in range(hi + 1, hi + max_n + 1):
        if not np.count_nonzero(v):  # every later row steps a vector of zeros, at no cost
            return rows + [0.0] * (max_n - len(rows))
        tails += min(top, o) + 1
        if (max(top - o, 0) + tails) * len(v) > WORK_CAP:
            break
        while stepped < top - o:  # the sites this row adds above o
            v, stepped = next(default, v), stepped + 1
        tail = v
        for tail in _backward_sweep(f, v, min(top, o), 0):
            pass
        rows.append(axis_oscillation(tail, f.alphabet, width + j))
    return rows


def _dusting_matrix(alpha: SensitivityMatrix, window: Window) -> np.ndarray:
    """Window-limited spread matrix, by plain dense matrix powers.

    Independent implementation (full square matrices over the padded
    site range) of the power sums used by the bounds module.
    """
    lo = window.lo - alpha.depth
    size = window.hi - lo + 1
    a = np.zeros((size, size))
    for i in window.sites():
        for lag in range(1, alpha.depth + 1):
            if i - lag >= lo:
                a[i - lo, i - lag - lo] = alpha.entry(i, i - lag)
    total = np.zeros_like(a)
    power = np.eye(size)
    for _ in range(len(window)):
        power = power @ a
        total += power
    return total[alpha.depth :, :]


def series_decay_margin(alpha: SensitivityMatrix, decay: DecaySpec, window: Window) -> float:
    """Worst margin ``pref * exp(-decay.weight(k - j)) - S(k, j)`` of the decay envelope.

    ``S`` is ``_dusting_matrix`` at the window rows ``k`` and the columns
    ``window.lo - depth <= j < k``; ``pref`` comes from ``bounds._decay_prefactor``,
    which raises when the window's tilted row sum is not below 1.  The
    envelope holds when the margin is at least -1e-12.
    """
    _, pref = _decay_prefactor(alpha, decay, window)
    spread = _dusting_matrix(alpha, window)
    lo_col = window.lo - alpha.depth
    margins = (
        pref * math.exp(-decay.weight(k - j)) - float(spread[k - window.lo, j - lo_col])
        for k in window.sites()
        for j in range(lo_col, k)
    )
    return min(margins, default=math.inf)


@dataclass(frozen=True)
class DustingReport:
    """Outcome of randomized spread-inequality checks."""

    instances: int
    violations: int
    min_slack: float
    worst_case: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_dusting(
    f: KernelSpec,
    window: Window,
    alpha: SensitivityMatrix,
    trials: int = 500,
    seed: int = 0,
) -> DustingReport:
    """Check that averaging spreads oscillations no further than ``alpha`` says.

    For random observables on the window plus a strip of ``max(R, 1) + 1``
    past sites, and every site of the strip, compares the exact
    oscillation of the average against the direct term plus the
    window-limited spread of the support oscillations.  Reports the worst
    slack; negative slack beyond ``ABS_TOL`` counts as a violation.
    """
    strip_lo = window.lo - max(f.memory_depth, 1) - 1
    spread = _dusting_matrix(alpha, window)
    lo_col = window.lo - alpha.depth
    min_slack = math.inf
    violations = 0
    worst_case: tuple[int, int] | None = None
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        lo = int(rng.integers(strip_lo, window.lo + 1))
        hi = int(rng.integers(window.lo, window.hi + 1))
        h = random_observable(Window(lo, hi), f.alphabet, rng)
        j = int(rng.integers(strip_lo, window.lo))
        lhs = exact_oscillation_of_average(f, window, h, j)
        rhs = oscillation(h, j)
        for k in window.sites():
            osc_k = oscillation(h, k)
            if osc_k > 0.0 and j >= lo_col:
                rhs += osc_k * float(spread[k - window.lo, j - lo_col])
        slack = rhs - lhs
        if worse(-slack, -min_slack):
            min_slack = slack
            worst_case = (trial, j)
        if worse(-slack, ABS_TOL):
            violations += 1
    return DustingReport(trials, violations, min_slack, worst_case)


def _worst(residuals: Iterable[float]) -> float:
    """Largest of ``residuals`` and 0.0; a NaN is worse than any number (``core.worse``)."""
    worst = 0.0
    for residual in residuals:
        if worse(residual, worst):
            worst = residual
    return worst


@dataclass(frozen=True)
class ConsistencyReport:
    """Worst residual of the nested-average identity over random trials."""

    trials: int
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= RESIDUAL_TOL


def verify_consistency(
    f: KernelSpec,
    delta: Window,
    lam: Window,
    trials: int = 100,
    seed: int = 0,
) -> ConsistencyReport:
    """Check that averaging over ``lam`` inside ``delta`` changes nothing.

    For random pasts and random observables measurable left of the end of
    ``lam``, compares the iterated average against the direct one by
    exact enumeration and reports the largest residual.
    """
    if not delta.contains_window(lam):
        raise ValueError("inner window must be contained in the outer window")
    rng = np.random.default_rng(seed)
    n = f.alphabet.size
    depth = f.memory_depth

    def residual() -> float:
        lo = int(rng.integers(delta.lo - max(depth, 2), lam.hi + 1))
        hi = int(min(lam.hi, lo + rng.integers(0, 3)))
        h = random_observable(Window(lo, hi), f.alphabet, rng)
        g = kernel_average_observable(f, lam, h)
        past_len = max(depth, delta.lo - min(h.support.lo, g.support.lo), 1)
        past = tuple(int(s) for s in rng.integers(0, n, past_len))
        return abs(compose_window(f, delta, past, g) - compose_window(f, delta, past, h))

    return ConsistencyReport(trials, _worst(residual() for _ in range(trials)))


def verify_suite(f: KernelSpec, trials: int, seed: int) -> list[dict]:
    """The ``lis-lab verify`` property records, in order, from one seeded stream.

    Normalisation, nested-window consistency and factorisation of window
    averages (worst residual at most ``RESIDUAL_TOL``), the spread (dusting)
    inequality, and domination of the exact oscillation by
    ``memory_bound_general``.  The dusting step draws value tables on up
    to ``max(R, 1) + 3`` sites, so a spec whose ``n**(max(R, 1) + 3)``
    configurations exceed the configuration cap raises
    ``CapExceededError`` before any work.
    """
    n, sites = f.alphabet.size, max(f.memory_depth, 1) + 3
    if exceeds_cap(n, sites, DEFAULT_CONFIG_CAP):
        raise CapExceededError(
            "memory depth too large for the exact verification suite "
            f"({n}**{sites} configurations exceed the cap of {DEFAULT_CONFIG_CAP})"
        )
    from .analysis import build_sensitivity_matrix

    rng = np.random.default_rng(seed)
    depth = f.memory_depth

    def past() -> tuple[int, ...]:
        return tuple(int(s) for s in rng.integers(0, n, max(depth, 1)))

    def factorization(hi: int, split: int) -> float:
        h = random_observable(Window(rng.integers(0, hi + 1), hi), f.alphabet, rng)
        right = kernel_average_observable(f, Window(split + 1, hi), h)
        at = past()
        lhs = compose_window(f, Window(0, hi), at, h)
        return abs(lhs - compose_window(f, Window(0, split), at, right))

    def excess() -> float:
        window = Window(0, int(rng.integers(0, 3)))
        h = random_observable(window, f.alphabet, rng)
        j = -int(rng.integers(1, depth + 2))
        exact = exact_oscillation_of_average(f, window, h, j)
        return exact - memory_bound_general(alpha, window, h, j).value

    ones = [constant_observable(Window(0, hi), f.alphabet, 1.0) for hi in range(3)]
    residuals = {  # a dict display evaluates in order, so the stream is drawn in order
        "normalization": _worst(
            abs(compose_window(f, one.support, past(), one) - 1.0) for one in ones for _ in range(5)
        ),
        "consistency": _worst(
            verify_consistency(
                f, Window(0, hi), Window(lo_in, hi_in), trials=max(trials // 10, 5),
                seed=int(rng.integers(2**31)),
            ).max_residual
            for hi in range(3)
            for lo_in in range(hi + 1)
            for hi_in in range(lo_in, hi + 1)
        ),
        "factorization": _worst(
            factorization(hi, split)
            for hi in range(1, 4)
            for split in range(hi)
            for _ in range(max(trials // 20, 3))
        ),
    }
    results = [
        {"property": name, "worst_residual": worst, "passed": worst <= RESIDUAL_TOL}
        for name, worst in residuals.items()
    ]
    alpha = build_sensitivity_matrix(f)
    rep = verify_dusting(f, Window(0, 1), alpha, trials=max(trials // 2, 20), seed=seed)
    results.append(
        {
            "property": "dusting",
            "instances": rep.instances,
            "violations": rep.violations,
            "min_slack": rep.min_slack,
            "passed": rep.passed,
        }
    )
    excesses = [excess() for _ in range(max(trials // 5, 10))]
    violations = sum(worse(e, 1e-9) for e in excesses)
    results.append(
        {
            "property": "memory-domination",
            "violations": violations,
            "worst_excess": _worst(excesses),
            "passed": violations == 0,
        }
    )
    return results


def _block_rows(f: KernelSpec) -> np.ndarray:
    """Block chain ``rows[s, x] = P(x | block s)``, a read-only view of the site-0 table."""
    if not f.stationary:
        raise ValueError("exact chain computations require a stationary kernel")
    table = f.table_at(0)  # blocks of max(order, 1) sites: its leading rows, tiled at depth 0
    size = check_cap(f.alphabet.size, max(f.effective_order, 1))
    return np.broadcast_to(table[:size], (size, f.alphabet.size))


def stationary_measure(f: KernelSpec) -> FiniteDistribution:
    """Unique stationary law on blocks of the kernel's effective order.

    One exact linear solve of ``mu P = mu`` on the induced block chain,
    which must be irreducible and aperiodic (checked first).  Rounding
    negatives are clamped to 0; a residual ``|mu P - mu|_1`` above 1e-12
    raises ``ValueError``.
    """
    rows = _block_rows(f)
    size, n = rows.shape
    succ = [[(s * n + x) % size for x in range(n) if rows[s, x] > 0.0] for s in range(size)]
    _check_irreducible_aperiodic(succ, size)
    # block s = (leading symbol, rest r) moves to block r * n + x with probability rows[s, x]
    rest = size // n
    p = np.zeros((size, rest, n))
    p[np.arange(size), np.arange(size) % rest] = rows
    a = p.reshape(size, size).T  # (P^T - I) mu = 0, in place
    # minus each block's exit mass, summed off the diagonal: P_ss - 1 cancels on sticky blocks
    diagonal = np.diag_indices(size)
    a[diagonal] = 0.0
    a[diagonal] = -a.sum(axis=0)
    a[-1] = 1.0  # the last balance equation becomes the normalisation
    mu = np.maximum(np.linalg.solve(a, np.eye(1, size, size - 1)[0]), 0.0)
    mu /= mu.sum()
    residual = float(np.abs(_step(mu, rows) - mu).sum())
    if worse(residual, 1e-12):
        raise ValueError(f"stationary law residual {residual!r} above 1e-12")
    return FiniteDistribution(mu)


def _step(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Block law one site on: block ``(a, r)`` moves to ``(r, x)`` with ``rows[(a, r), x]``."""
    return (v[:, None] * rows).reshape(len(rows[0]), -1, len(rows[0])).sum(axis=0).ravel()


def _backward_sweep(f: KernelSpec, v: np.ndarray, top: int, lo: int) -> Iterator[np.ndarray]:
    """``v`` after each backward step over the sites ``top, top - 1, ..., lo``.

    ``v`` is an average given the block of sites just left of the next
    one, in code order, less its value at block 0.  Stepping ``s`` reads
    ``table_at(s)`` at row ``b % len(table)``; block ``b`` moves to
    ``(b * n + x) % len(v)``.  Rows sum to 1, so subtracting ``v[0]`` keeps
    every difference, and a vector that reaches 0 stays 0: the sweep ends.
    A vector below the smallest normal float counts as 0.
    """
    n = f.alphabet.size
    table = rows = None
    for s in range(top, lo - 1, -1):
        if not np.count_nonzero(v):
            return
        if f.table_at(s) is not table:
            table = f.table_at(s)
            rows = table[np.arange(len(v)) % len(table)].reshape(n, -1, n)  # (leading, rest, x)
        v = (rows * v.reshape(-1, n)).sum(axis=2).ravel()
        v -= v[0]
        if np.abs(v).max() < np.finfo(float).tiny:  # subnormals would stall at 5e-324
            v[:] = 0.0
        yield v


def _check_irreducible_aperiodic(succ: list[list[int]], size: int) -> None:
    def levels(adj: list[list[int]]) -> dict[int, int]:  # breadth-first, from block 0
        level, queue = {0: 0}, [0]
        for v in queue:
            for w in adj[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level

    rev: list[list[int]] = [[] for _ in range(size)]
    for v, outs in enumerate(succ):
        for w in outs:
            rev[w].append(v)
    level = levels(succ)
    for reached, way in ((level, "forward"), (levels(rev), "backward")):
        if len(reached) != size:
            raise ChainStructureError(f"block chain is reducible ({way} reachability fails)")
    # period = gcd over edges of (level[u] + 1 - level[v]) on a BFS tree
    g = math.gcd(*(level[v] + 1 - level[w] for v, outs in enumerate(succ) for w in outs))
    if g != 1:
        raise ChainStructureError(f"block chain is periodic with period {g}")


def _block_law(
    f: KernelSpec, law: FiniteDistribution, *observables: Observable
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The stepped ``law`` on blocks wide enough for every observable, the block rows, each table.

    ``law`` is stepped one block on (``_step`` shrinks the solve's rounding
    error), then extended one site at a time, ``P(block x) = P(block) P(x |
    block)``, within the cap; each table is read on the blocks' trailing sites.
    """
    rows = _block_rows(f)
    mu = law.weights
    for _ in range(max(f.effective_order, 1)):
        mu = _step(mu, rows)
    for h in observables:
        _check_compose_args(f, h.support, h)
    size = check_cap(f.alphabet.size, max((len(h.support) for h in observables), default=1))
    while mu.size < size:
        mu = (mu[:, None] * rows[np.arange(mu.size) % len(rows)]).ravel()
    blocks = np.arange(mu.size)
    return mu, rows[blocks % len(rows)], [h.table[blocks % len(h.table)] for h in observables]


def stationary_expectations(
    f: KernelSpec, observables: Sequence[Observable], law: FiniteDistribution | None = None
) -> list[float]:
    """Stationary expectation of each observable on one ``_block_law`` (``law`` solved if None)."""
    mu, _, tables = _block_law(f, stationary_measure(f) if law is None else law, *observables)
    return [float(mu @ table) for table in tables]


def exact_correlations(
    f: KernelSpec,
    h1: Observable,
    h2: Observable,
    separations: Sequence[int],
    law: FiniteDistribution | None = None,
) -> dict[int, float]:
    """|Cov| of ``h1`` and ``h2`` moved to start ``s`` sites right of ``h1``, by separation ``s``.

    One forward transfer of ``_block_law`` (``law`` solved when not given)
    weighted by the centred ``h1``; ``s`` reads the centred ``h2`` after ``s
    + |supp h2| - |supp h1|`` steps (where ``h2`` ends first, they swap).  A
    separation whose steps times blocks pass ``WORK_CAP`` is left out, unstepped.
    """
    law = stationary_measure(f) if law is None else law
    shift = len(h2.support) - len(h1.support)
    back = [-s for s in separations if s + shift < 0]
    out = {-s: c for s, c in exact_correlations(f, h2, h1, back, law).items()} if back else {}
    mu, rows, (c1, c2) = _block_law(f, law, h1, h2)
    v, c2 = mu * (c1 - mu @ c1), c2 - mu @ c2  # centred first: E[h1 h2] - E h1 E h2 cancels
    top = max((s + shift for s in separations if s + shift <= WORK_CAP // mu.size), default=-1)
    values = []
    for k in range(top + 1):
        if k:  # mass 0 stays 0: rounding would pile up along mu, swamping a small covariance
            v = _step(v, rows)
            v -= v.sum() * mu
        values.append(abs(float(v @ c2)))
    out.update({s: values[s + shift] for s in separations if 0 <= s + shift <= top})
    return out


def exact_correlation(
    f: KernelSpec,
    h1: Observable,
    h2: Observable,
    separation: int,
    law: FiniteDistribution | None = None,
) -> float:
    """The one-separation case of ``exact_correlations``; past its work cap, CapExceededError."""
    out = exact_correlations(f, h1, h2, [separation], law)
    if separation not in out:
        raise CapExceededError(f"separation {separation} steps past the work cap of {WORK_CAP}")
    return out[separation]


def _solve_tree(
    edges: tuple[tuple[int, int], ...], p: np.ndarray, q: np.ndarray
) -> np.ndarray | None:
    """Flow on a spanning tree of the supply/demand bipartite graph.

    Returns the edge flows (ordered as ``edges``) or None when the basic
    solution is infeasible.
    """
    n, m = len(p), len(q)
    supply = list(p) + list(q)
    adj: dict[int, list[int]] = {v: [] for v in range(n + m)}
    for e, (i, j) in enumerate(edges):
        adj[i].append(e)
        adj[n + j].append(e)
    flows = [0.0] * len(edges)
    done = [False] * len(edges)
    degrees = {v: len(a) for v, a in adj.items()}
    leaves = [v for v, d in degrees.items() if d == 1]
    while leaves:
        v = leaves.pop()
        live = [e for e in adj[v] if not done[e]]
        if not live:
            continue
        e = live[0]
        flows[e] = supply[v]
        done[e] = True
        i, j = edges[e]
        other = n + j if v == i else i
        supply[other] -= supply[v]
        supply[v] = 0.0
        degrees[other] -= 1
        if degrees[other] == 1:
            leaves.append(other)
    if any(x < -1e-12 for x in flows):
        return None
    return np.maximum(np.asarray(flows), 0.0)


def _vkr_vertex_enum(p: np.ndarray, q: np.ndarray, dist: np.ndarray) -> float:
    """Exact transport cost by enumerating spanning-tree vertices."""
    n, m = len(p), len(q)
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    best = math.inf
    for edges in itertools.combinations(all_edges, n + m - 1):
        parent = list(range(n + m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in edges:
            a, b = find(i), find(n + j)
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if not acyclic:
            continue
        flows = _solve_tree(edges, p, q)
        if flows is None:
            continue
        cost = float(sum(fl * dist[i, j] for fl, (i, j) in zip(flows, edges)))
        best = min(best, cost)
    return best


def sample_path_stepwise(f: KernelSpec, u: Sequence[float], past: Sequence[int]) -> np.ndarray:
    """Per-step sampling reference: site ``t`` is decided by ``u[t]``.

    A linear family takes 1 iff ``u[t] < P(1)``, with ``P(1)`` summed from
    the intercept, nearest lag first; any other family takes the first
    symbol whose cumulative mass exceeds ``u[t]``.  ``sim.sample_path``
    must give this path bit for bit on the same uniforms with both of its
    samplers: the cumulative rows of a table default family and the block
    sampler of a linear one.
    """
    depth = f.memory_depth
    buf = list(past)
    out = []
    for t, u_t in enumerate(u):
        fam = f.family_at(t)
        if isinstance(fam, LinearLongMemory):
            p1 = fam.intercept
            for k, a in enumerate(fam.coefficients, start=1):
                p1 += a * buf[-k]
            x = 1 if u_t < p1 else 0
        else:
            row = family_row(fam, f.alphabet, tuple(buf[-depth:]) if depth else ())
            acc = 0.0
            x = len(row) - 1
            for i, p in enumerate(row):
                acc += p
                if u_t < acc:
                    x = i
                    break
        out.append(x)
        buf.append(x)
        if len(buf) > depth + 1:
            del buf[0]
    return np.asarray(out, dtype=np.int8)
