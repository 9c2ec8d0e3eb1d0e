"""Variations, transport distances, sensitivity matrices, and the two
uniqueness criteria (row-sum contraction and boundary uniformity).

``vkr_distance`` is the one transport entry point.  It takes conditional
laws batched on leading axes, so a sensitivity estimate or a kernel gap
is one call over every past.  It chooses its method from the metric
alone.  On a star metric (``d(a, b) = l_a + l_b``, which covers every
metric on two or three symbols and the discrete metric of any size) the
cost is the closed form of transport on a tree.  Any other metric solves
one HiGHS transport LP per pair; ``scipy`` is imported only then.
``oracle._vkr_vertex_enum`` is the independent reference in the tests.

Row sums are summed by ``math.fsum``, which rounds the exact sum once, so
the strict row-sum criterion fails on a row whose real sum is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import AlphabetSpec, check_cap, site_index, worse
from .kernels import KernelSpec, LinearLongMemory, family_order


def variation(f: KernelSpec, i: int, j: int) -> float:
    """Worst change of the site-``i`` conditional over pasts agreeing on ``[j, i]``.

    The agreement region includes the evaluated site itself, so ``j == i``
    frees the whole past; pasts further back than the memory depth cannot
    matter and the value is 0 once ``i - j >= R``.
    """
    if j > i:
        raise ValueError("variation requires j <= i")
    lag = i - j
    depth = f.memory_depth
    free = depth - min(lag, depth)
    if free <= 0:
        return 0.0
    family = f.family_at(i)
    if isinstance(family, LinearLongMemory):
        # affine dependence: the sup flips every free coordinate at once
        return float(sum(family.coefficients[lag:]))
    n = f.alphabet.size
    check_cap(n, depth)
    rows = f.table_at(i)
    # axis 1 indexes the last depth - free sites, on which the pasts agree
    block = rows.reshape(n**free, n ** (depth - free), n)
    return float((block.max(axis=0) - block.min(axis=0)).max())


def _star_legs(dist: np.ndarray) -> np.ndarray | None:
    """Legs ``l`` with ``d(a, b) = l_a + l_b`` for all ``a != b``, or None.

    A metric with such legs is the path metric of a star tree whose
    leaves are the symbols.  Every metric on two or three symbols is one,
    and so is the discrete metric of any size.  Legs are read off one
    triple per symbol, clamped at 0 against rounding, and accepted when
    they reproduce every distance within ``1e-12`` of the diameter.
    """
    n = len(dist)
    if n == 2:
        return np.full(2, dist[0, 1] / 2.0)
    a = np.arange(n)
    b = np.where(a == 0, 1, 0)
    c = np.where(a <= 1, 2, 1)
    legs = np.maximum((dist[a, b] + dist[a, c] - dist[b, c]) / 2.0, 0.0)
    off_diagonal = ~np.eye(n, dtype=bool)
    residual = np.abs(legs[:, None] + legs[None, :] - dist)[off_diagonal]
    return legs if residual.max() <= 1e-12 * dist.max() else None


def _vkr_linprog(p: np.ndarray, q: np.ndarray, dist: np.ndarray) -> float:
    from scipy.optimize import linprog

    n, m = len(p), len(q)
    c = dist.reshape(-1)
    a_rows = np.zeros((n, n * m))
    for i in range(n):
        a_rows[i, i * m : (i + 1) * m] = 1.0
    a_cols = np.zeros((m, n * m))
    for j in range(m):
        a_cols[j, j::m] = 1.0
    res = linprog(
        c,
        A_eq=np.vstack([a_rows, a_cols]),
        b_eq=np.concatenate([p, q]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transport solver failed: {res.message}")
    return float(res.fun)


def vkr_distance(
    p: Sequence[float] | np.ndarray,
    q: Sequence[float] | np.ndarray,
    alphabet: AlphabetSpec,
) -> float | np.ndarray:
    """Exact optimal-transport cost between laws on the alphabet.

    Laws lie along the last axis and broadcast on the leading ones: one
    pair gives a float, a batch gives an array of costs.  On a star
    metric the cost is ``sum_a l_a * |p_a - q_a|``; on any other metric
    each pair is one HiGHS transport LP.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    n = alphabet.size
    if pa.shape[-1:] != (n,) or qa.shape[-1:] != (n,):
        raise ValueError("distributions must live on the given alphabet")
    dist = alphabet.metric_array()
    legs = _star_legs(dist)
    if legs is not None:
        cost = np.abs(pa - qa) @ legs
    else:
        pb, qb = np.broadcast_arrays(pa, qa)
        pairs = zip(pb.reshape(-1, n), qb.reshape(-1, n))
        cost = np.array([_vkr_linprog(x, y, dist) for x, y in pairs]).reshape(pb.shape[:-1])
    return float(cost) if cost.ndim == 0 else cost


def sensitivity_estimator(f: KernelSpec, i: int, j: int) -> float:
    """Transport sensitivity of the site-``i`` conditional to site ``j``.

    Maximum over pasts equal off ``j`` of the transport distance between
    the two conditional laws, per unit metric distance of the flipped
    symbols.  Zero beyond the memory depth.
    """
    if j >= i:
        raise ValueError("sensitivity estimator requires j < i")
    lag = i - j
    depth = f.memory_depth
    if lag > depth:
        return 0.0
    family = f.family_at(i)
    if isinstance(family, LinearLongMemory):
        # transport distance between Bernoulli laws is |p - p'| * d(0,1);
        # flipping the lag-k coordinate moves p by exactly a_{-k}
        return float(family.coefficients[lag - 1])
    n = f.alphabet.size
    check_cap(n, depth)
    rows = f.table_at(i)
    # axes: sites left of j, the symbol at j, sites between j and i, next symbol
    table = rows.reshape(n ** (depth - lag), n, n ** (lag - 1), n)
    a, b, dist = f.alphabet.symbol_pairs
    cost = vkr_distance(table[:, a], table[:, b], f.alphabet)
    return float((cost / dist[:, None]).max())


@dataclass(frozen=True)
class SensitivityMatrix:
    """Banded non-negative matrix bounding oscillation spread to the past.

    Entries live strictly below the diagonal within ``depth`` bands.  The
    stationary row applies everywhere except at explicit site overrides.
    The Neumann columns that ``bounds`` sweeps from the stationary row are
    kept per matrix, outside the fields, like ``KernelSpec``'s tables.
    """

    depth: int
    stationary_row: tuple[float, ...]
    site_rows: tuple[tuple[int, tuple[float, ...]], ...] = ()
    truncation_tail: float = 0.0

    def __post_init__(self) -> None:
        if len(self.stationary_row) != self.depth:
            raise ValueError("stationary row length must equal the depth")
        for site, row in self.site_rows:
            if len(row) != self.depth:
                raise ValueError(f"row for site {site} has the wrong length")
        for row in (self.stationary_row, *(row for _, row in self.site_rows)):
            if not all(math.isfinite(a) and a >= 0.0 for a in row):
                raise ValueError("sensitivity entries must be finite and non-negative")
        object.__setattr__(self, "_rows", dict(self.site_rows))
        object.__setattr__(self, "_neumann", {})  # pattern: (column, sites filled)
        if len(self._rows) < len(self.site_rows):
            raise ValueError("duplicate override site")

    def row(self, i: int) -> tuple[float, ...]:
        return self._rows.get(site_index(i), self.stationary_row)

    def entry(self, i: int, j: int) -> float:
        lag = site_index(i) - site_index(j)
        if not 1 <= lag <= self.depth:
            return 0.0
        return self.row(i)[lag - 1]

    def row_sum(self, i: int) -> float:
        """Sum of row ``i``, correctly rounded (``math.fsum``): an exact sum >= 1 reads >= 1."""
        return math.fsum(self.row(i))

    def sup_row_sum(self) -> float:
        """Largest row sum, each one summed as in ``row_sum``."""
        rows = (self.stationary_row, *(row for _, row in self.site_rows))
        return max(math.fsum(row) for row in rows)

    @staticmethod
    def from_stationary(row: Sequence[float]) -> "SensitivityMatrix":
        row = tuple(float(a) for a in row)
        return SensitivityMatrix(len(row), row)


def build_sensitivity_matrix(f: KernelSpec) -> SensitivityMatrix:
    """Canonical transport estimator per lag, stationary or site-indexed.

    The stationary row is read one site below every override, where the
    default family applies.
    """
    sites = sorted(f.override_sites)
    rows = [
        tuple(sensitivity_estimator(f, i, i - lag) for lag in range(1, f.memory_depth + 1))
        for i in (min(sites, default=1) - 1, *sites)
    ]
    return SensitivityMatrix(f.memory_depth, rows[0], tuple(zip(sites, rows[1:])), f.truncation_tail)


@dataclass(frozen=True)
class CriterionVerdict:
    """Criterion outcome together with every scalar the verdict rests on."""

    criterion: str
    satisfied: bool
    scalars: Mapping[str, float] = field(default_factory=dict)
    truncation_tail: float = 0.0
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, value in self.scalars.items():
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"criterion scalar {name} = {value!r} must be finite and >= 0")


def dobrushin_check(alpha: SensitivityMatrix) -> CriterionVerdict:
    """Row-sum contraction check: satisfied iff the sup row sum is < 1.

    Sums equal to 1 fail; the inequality is strict.  Uses the trivial
    one-site partition only.
    """
    s = alpha.sup_row_sum()
    return CriterionVerdict(
        criterion="dobrushin",
        satisfied=s < 1.0,
        scalars={"row_sum_sup": s, "margin": max(0.0, 1.0 - s)},
        truncation_tail=alpha.truncation_tail,
        notes=("strict inequality required: a row sum of exactly 1 fails",),
    )


def _min_probability(f: KernelSpec) -> float:
    worst = math.inf
    for fam in f.families():
        if isinstance(fam, LinearLongMemory):
            top = fam.intercept + sum(fam.coefficients)
            candidates = (fam.intercept, 1.0 - top)
        else:
            check_cap(f.alphabet.size, family_order(fam))
            candidates = (x for row in fam.rows for x in row)
        for x in candidates:
            if worse(-x, -worst):
                worst = x
    return 0.0 if worst < 0.0 else worst  # keeps a NaN


def boundary_uniformity_check(f: KernelSpec) -> CriterionVerdict:
    """Uniform non-nullness plus summable variations.

    Reports the minimal conditional probability m, the variation sum V
    over the memory depth (variations vanish beyond it), and the uniform
    comparability constant exp(-V/m) the criterion certifies.  Satisfied
    iff m > 0 (V is a finite sum for finite-memory kernels).
    """
    depth = f.memory_depth
    m = _min_probability(f)

    sites = f.override_sites  # a window [n, n + depth] without one reads the default family
    starts = {max(sites, default=-1) + depth + 2}.union(*(range(o - depth, o + 1) for o in sites))
    v = max(sum(variation(f, i, n) for i in range(n, n + depth + 1)) for n in starts)
    c = math.exp(-v / m) if m > 0.0 else 0.0
    return CriterionVerdict(
        criterion="boundary-uniformity",
        satisfied=m > 0.0,
        scalars={"min_probability": m, "variation_sum": v, "constant": c},
        truncation_tail=f.truncation_tail,
        notes=(
            "variation at lag 0 (agreement on the evaluated site only) is included in V",
        ),
    )


def ergodic_coefficient(f: KernelSpec) -> float:
    """Contraction coefficient of a one-step chain.

    One minus the minimal overlap of the conditional rows over pairs of
    predecessor symbols; rejects site-indexed kernels and families that
    read more than one site back.
    """
    if not f.stationary:
        raise ValueError("ergodic coefficient requires a stationary kernel")
    if f.effective_order > 1:
        raise ValueError("ergodic coefficient requires a one-step (or i.i.d.) kernel")
    n = f.alphabet.size
    table = f.table_at(0)
    # one-step family: the leading n pasts differ only in the last symbol
    rows = table[np.arange(n) % len(table)]
    gamma = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            overlap = float(np.minimum(rows[a], rows[b]).sum())
            gamma = max(gamma, 1.0 - overlap)
    return gamma
