"""Quantitative decay bounds driven by a sensitivity matrix.

Two sweeps carry oscillations through ``sum_t A^t``, both stepped by
``_sweep``.  The matrix is strictly banded below the diagonal, so sums
over a finite window are exact.

- The correlation and comparison bounds read the oscillation-weighted
  Neumann column ``G(k) = osc(k) + sum_lag A(k + lag, k) G(k + lag)``,
  which ``_columns`` reads for one or more oscillation vectors.  The matrix
  keeps the stationary column of each pattern of ``osc`` (``_stored``),
  shared by every lag and bound; below an override row a column steps its
  own entries.  Deeper sums stop at the first site whose tail certificate
  (``_tails``) is small against the sum so far, and add it.  It shrinks by
  a fixed factor per site, so the deepest site a stop can need is known in
  closed form before the sweep; a sum that cannot certify within
  ``_SITE_BUDGET`` sites raises before any column is built.
- The memory bound reads the probe's forward row ``R``, filled upward by
  ``_reach``.  ``R(k)`` does not depend on the top of the window, so one
  sweep gives every row of ``memory_bound_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import Observable, Window, check_cap
from .core import oscillation_vector, shift_observable
from .analysis import SensitivityMatrix, dobrushin_check, vkr_distance
from .kernels import KernelSpec

#: Sites a Neumann sweep may visit before giving up on its tail certificate.
_SITE_BUDGET = 200000

#: A sweep stops once its tail certificate is at most this fraction of the
#: value so far (or of 1, whichever is larger).
_TAIL_TOL = 1e-12


class BoundNotApplicableError(RuntimeError):
    """A bound's hypothesis fails at the supplied inputs."""

    def __init__(self, message: str, gamma: float | None = None):
        super().__init__(message)
        self.gamma = gamma


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus every intermediate quantity behind it."""

    name: str
    value: float
    quantities: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DecaySpec:
    """Distance-decay profile of the envelope ``pref * exp(-weight(k - j))``."""

    family: str
    rate: float

    def __post_init__(self) -> None:
        if self.family not in ("exponential", "powerlog"):
            raise ValueError(f"unknown decay family {self.family!r}")
        if not self.rate > 0.0:
            raise ValueError("decay rate must be positive")

    def weight(self, gap: int) -> float:
        return self.rate * (abs(gap) if self.family == "exponential" else math.log1p(abs(gap)))


_Oscs = tuple[Mapping[int, float], ...]


def _sweep(alpha: SensitivityMatrix, g: np.ndarray, start: int, stop: int, rows: dict) -> None:
    """``g[i] += sum_lag row[lag - 1] * g[i - lag]`` for ``i = start .. stop - 1``, in turn.

    ``row`` is ``rows[i]`` if given, else the stationary row; lags add in order, lag 1 first
    (``np.cumsum``, not a BLAS dot, whose order depends on the build).
    """
    depth = alpha.depth
    stationary = np.array(alpha.stationary_row)
    for i in range(start, stop if depth else start):
        g[i] += np.cumsum(g[i - depth : i][::-1] * rows.get(i, stationary))[-1]


def _stored(alpha: SensitivityMatrix, osc: Mapping[int, float], n: int) -> np.ndarray:
    """The stationary column of ``osc`` from ``depth`` sites above its top to ``n - 1`` below.

    ``alpha`` keeps one per pattern (``osc`` relative to its top), swept
    further down only when ``n`` asks for more sites.
    """
    top, depth = max(osc), alpha.depth
    pattern = tuple(osc.get(top - m, 0.0) for m in range(top - min(osc) + 1))
    col, filled = alpha._neumann.get(pattern) or (np.concatenate([np.zeros(depth), pattern]), 0)
    if filled < n:
        if len(col) < depth + n:  # doubling keeps the copies linear in the length
            col = np.concatenate([col, np.zeros(max(depth + n - len(col), len(col)))])
        _sweep(alpha, col, depth + filled, depth + n, {})
        alpha._neumann[pattern] = col, n
    return col


def _columns(alpha: SensitivityMatrix, oscs: _Oscs, hi: int, floor: int) -> np.ndarray:
    """``G`` of each of ``oscs`` at the sites ``hi, hi - 1, ..., floor``, one row each.

    ``G(k)`` sums ``osc``, which has no site below ``floor``, over the sites
    from ``k`` up times the weight of all strictly decreasing paths down to
    ``k``.  Down to ``cut``, the highest override row at or below the top of
    ``osc``, those paths read only the stationary row, so the stored column
    (``_stored``) gives ``G``.  Below ``cut`` a site ``k`` reads its own
    entries, which an override row ``o`` changes for ``k`` in ``[o - depth, o - 1]``.
    """
    depth = alpha.depth
    g = np.zeros((len(oscs), hi - floor + 1))
    for out, osc in zip(g, oscs):
        top = max(osc)
        cut = max([o for o, _ in alpha.site_rows if floor < o <= top], default=floor)
        upper = max(min(hi, top), cut + depth - 1)
        col = _stored(alpha, osc, top - cut + 1)
        w = np.zeros(upper - floor + 1)  # G at the sites upper .. floor
        w[: upper - cut + 1] = col[depth + top - upper : depth + top - cut + 1]
        w[upper - cut + 1 :] = [osc.get(k, 0.0) for k in range(cut - 1, floor - 1, -1)]
        steps = {k for o, _ in alpha.site_rows for k in range(o - depth, o) if floor <= k < cut}
        lags = range(1, depth + 1)
        rows = {upper - k: np.array([alpha.entry(k + lag, k) for lag in lags]) for k in steps}
        _sweep(alpha, w, upper - cut + 1, len(w), rows)
        out[max(hi - upper, 0) :] = w[max(upper - hi, 0) :]
    return g


def _tails(
    alpha: SensitivityMatrix, oscs: _Oscs, scale: float, top: int, first: int, bound_site: int
) -> np.ndarray:
    """``scale`` times the tail certificate at ``first, first - 1, ...``, as deep as a stop needs.

    The certificate at ``k`` bounds the sum over ``j < k`` of the product of
    the columns of ``oscs``: with ``s`` the largest row sum and ``u = s**(1/depth)``,
    a column is at most ``mass * u**(k - 1 - j) / (1 - s)``, ``mass`` summing ``osc``
    at ``u**(site - (k - 1))``.  It shrinks by ``u**len(oscs)`` per site, so a
    closed form finds where the tail alone is below ``_TAIL_TOL``.  Past the
    site budget the tails stop at its floor, and raise there if the stop rule
    fails against the tail at ``bound_site``, which bounds any running sum.
    """
    s = alpha.sup_row_sum()
    u = s ** (1.0 / alpha.depth) if s > 0.0 else 0.0
    if u == 0.0:
        return np.zeros(1)  # a zero matrix carries nothing below the windows
    if u >= 1.0:
        raise BoundNotApplicableError(
            f"row sum {s!r} gives a tail base of 1, so no tail certificate shrinks", gamma=s
        )

    def at(sites: Sequence[int]) -> np.ndarray:
        cert = 1.0
        for osc in oscs:
            mass = 0.0
            for site, w in osc.items():  # Python's pow: numpy's can round differently
                mass = mass + w * np.array([u ** (site + 1 - k) for k in sites])
            cert = cert * (mass / (1.0 - s))
        # u * u, not u ** 2: pow can round the square differently in the last bit
        return scale * (cert / (1.0 - math.prod([u] * len(oscs))))

    steps = 0
    [at_first] = at([first])
    if at_first > _TAIL_TOL:  # two sites of slack absorb the rounding of the certificates
        shrink = len(oscs) * -math.log(u)
        steps = 2 + math.ceil(min(math.log(at_first / _TAIL_TOL) / shrink, _SITE_BUDGET))
    budget_floor = top - _SITE_BUDGET
    if first - steps < budget_floor:
        _stop(alpha, top, at([budget_floor]), at([bound_site]))  # raises if no site can stop
        steps = first - budget_floor
    return at(range(first, first - steps - 1, -1))


def _stop(alpha: SensitivityMatrix, top: int, tails: np.ndarray, sums: np.ndarray) -> int:
    """Index of the first site whose tail is at most ``_TAIL_TOL`` times its running sum (or 1)."""
    passed = np.flatnonzero(tails <= _TAIL_TOL * np.maximum(1.0, sums))
    if not passed.size:
        raise BoundNotApplicableError(
            f"tail not certified within {_SITE_BUDGET} sites below site {top}",
            gamma=alpha.sup_row_sum(),
        )
    return int(passed[0])


def _check_probe(window: Window, h: Observable, j: int) -> None:
    if j >= window.lo:
        raise ValueError("the probed site must lie left of the window")
    if not window.contains_window(h.support):
        raise ValueError("observable support must lie inside the window")


def _check_rows(h: Observable, j: int, max_n: int) -> int:
    """``max_n`` as an int if it is an integer of at least 1, once ``h`` and ``j`` pass as row 1."""
    _check_probe(Window(0, 1), shift_observable(h, 1), j)
    if not isinstance(max_n, (int, np.integer)) or max_n < 1:
        raise ValueError(f"max_n must be an integer of at least 1, got {max_n!r}")
    return int(max_n)


def _reach(alpha: SensitivityMatrix, lo: int, hi: int, j: int) -> np.ndarray:
    """``R`` at the sites ``lo, lo + 1, ..., hi``: every path from there down to ``j``.

    ``R(k) = A(k, j) + sum_lag A(k, k - lag) R(k - lag)`` over ``k - lag >= lo``:
    the paths step down through ``[lo, k)`` and end with one step to ``j``.
    Each site reads its own row, override or stationary.
    """
    depth = alpha.depth
    first = [alpha.entry(k, j) for k in range(lo, min(hi, j + depth) + 1)]  # A(k, j), 0 further up
    r = np.concatenate([np.zeros(depth), first, np.zeros(hi - lo + 1 - len(first))])
    rows = {depth + site - lo: np.array(row) for site, row in alpha.site_rows if lo <= site <= hi}
    _sweep(alpha, r, depth, len(r), rows)
    return r[depth:]


def memory_bound_general(
    alpha: SensitivityMatrix, window: Window, h: Observable, j: int
) -> BoundReport:
    """Oscillation bound at a past site for the window average of ``h``.

    The support oscillations of ``h`` times the probe's forward row
    ``_reach`` over the window; paths stay inside the window, so the sum
    is exact.
    """
    _check_probe(window, h, j)
    r = _reach(alpha, window.lo, window.hi, j)
    value = float(sum(w * r[k - window.lo] for k, w in oscillation_vector(h).items()))
    row_sum_sup = max(alpha.row_sum(i) for i in window.sites())
    return BoundReport(name="memory-general", value=value, quantities={"row_sum_sup": row_sum_sup})


def memory_bound_rows(alpha: SensitivityMatrix, h: Observable, j: int, max_n: int) -> list[float]:
    """``memory_bound_general`` of ``h`` moved right by ``n`` on ``[0, n]``, for ``n = 1 .. max_n``.

    One ``_reach`` sweep over ``[0, max_n]`` serves every row, and each row
    sums the same products in the same order, so row ``n`` (at index
    ``n - 1``) equals ``memory_bound_general(...).value`` bit for bit.
    """
    max_n = _check_rows(h, j, max_n)
    r = _reach(alpha, 0, max_n, j)
    rows = np.zeros(max_n)
    for k, w in oscillation_vector(h).items():
        rows += w * r[k + 1 : k + 1 + max_n]
    return rows.tolist()


def _gammas(alpha: SensitivityMatrix, decay: DecaySpec) -> tuple[float, dict[int, float]]:
    """Tilted row sums: the stationary one and one per overridden site."""

    def row_gamma(row: tuple[float, ...]) -> float:
        try:  # a zero entry adds nothing even where its tilt overflows; any other overflow is inf
            return float(sum(a * math.exp(decay.weight(lag)) for lag, a in enumerate(row, 1) if a))
        except OverflowError:
            return math.inf

    return row_gamma(alpha.stationary_row), {site: row_gamma(row) for site, row in alpha.site_rows}


def _decay_prefactor(
    alpha: SensitivityMatrix, decay: DecaySpec, window: Window
) -> tuple[float, float]:
    """The window's largest tilted row sum ``gamma`` and ``gamma / (1 - gamma)``; raises past 1."""
    stationary, by_site = _gammas(alpha, decay)
    gamma = max(by_site.get(i, stationary) for i in window.sites())
    if gamma >= 1.0:
        raise BoundNotApplicableError(
            f"tilted row sum {gamma!r} is not below 1 on the window", gamma=gamma
        )
    return gamma, gamma / (1.0 - gamma)


def fit_decay_rate(alpha: SensitivityMatrix, family: str = "exponential") -> DecaySpec:
    """Largest decay rate keeping every tilted row sum below 1 - 1e-6.

    Deterministic 40-step bisection on [0, 50]; returns 50 when even that
    is feasible, and raises when no positive rate is.
    """

    def sup_gamma(rate: float) -> float:
        if rate == 0.0:
            return alpha.sup_row_sum()
        stationary, by_site = _gammas(alpha, DecaySpec(family, rate))
        return max([stationary, *by_site.values()])

    target = 1.0 - 1e-6
    if sup_gamma(0.0) > target:
        raise BoundNotApplicableError(
            "row sums leave no room for a positive decay rate", gamma=sup_gamma(0.0)
        )
    if sup_gamma(50.0) <= target:
        return DecaySpec(family, 50.0)
    lo_rate, hi_rate = 0.0, 50.0
    for _ in range(40):
        mid = 0.5 * (lo_rate + hi_rate)
        if sup_gamma(mid) <= target:
            lo_rate = mid
        else:
            hi_rate = mid
    if lo_rate == 0.0:
        raise BoundNotApplicableError("no positive feasible decay rate", gamma=sup_gamma(0.0))
    return DecaySpec(family, lo_rate)


def correlation_bound(
    alpha: SensitivityMatrix,
    lam: Window,
    delta: Window,
    h1: Observable,
    h2: Observable,
    diameter: float,
) -> BoundReport:
    """Covariance bound for observables on two ordered windows.

    Pairs the oscillations of the two observables through products of
    Neumann column entries; the sum over arbitrarily deep coupling sites
    is truncated with a geometric certificate that is added to the bound.
    Requires the window of ``h2`` to end left of the window of ``h1`` and
    the row-sum criterion to hold.
    """
    if delta.hi >= lam.lo:
        raise ValueError("the second window must end strictly left of the first")
    if not lam.contains_window(h1.support) or not delta.contains_window(h2.support):
        raise ValueError("observable supports must lie inside their windows")
    s = alpha.sup_row_sum()
    if s >= 1.0:
        raise BoundNotApplicableError(
            f"row-sum criterion unsatisfied (sup {s!r}), the bound does not apply",
            gamma=s,
        )
    base = diameter * diameter / 4.0
    osc1, osc2 = oscs = oscillation_vector(h1), oscillation_vector(h2)
    if not osc1 or not osc2:
        return BoundReport(
            name="correlation",
            value=0.0,
            quantities={"row_sum_sup": s, "tail_certificate": 0.0, "k_floor": float(delta.hi)},
        )
    if lam.hi - delta.lo > _SITE_BUDGET:
        raise BoundNotApplicableError(
            f"windows span {lam.hi - delta.lo + 1} sites, beyond the site budget", gamma=s
        )
    # G1 has no direct part left of lam, so the sum of G1 * G2 over
    # k <= delta.hi splits into the pairing with osc2 itself (term1) and
    # the coupling through deeper sites (acc); the certificate at
    # delta.hi + 1 bounds the two together
    tails = _tails(alpha, oscs, 1.0, lam.hi, delta.hi, delta.hi + 1)
    g1, g2 = _columns(alpha, oscs, delta.hi, min(delta.hi + 1 - len(tails), delta.lo))
    direct = np.array([osc2.get(k, 0.0) for k in range(delta.hi, delta.lo - 1, -1)])
    term1 = float(np.cumsum(g1[: len(delta)] * direct)[-1])
    g2[: len(delta)] -= direct
    acc = np.cumsum(g1[: len(tails)] * g2[: len(tails)])  # delta.hi and deeper
    i = _stop(alpha, lam.hi, tails, term1 + acc)
    acc, tail = float(acc[i]), float(tails[i])
    value = base * (term1 + acc + tail)
    return BoundReport(
        name="correlation",
        value=value,
        quantities={
            "row_sum_sup": s,
            "direct_term": base * term1,
            "coupling_term": base * acc,
            "tail_certificate": base * tail,
            "k_floor": float(delta.hi - i),
        },
    )


def _kernel_gap_sup(f: KernelSpec, f_tilde: KernelSpec, site: int) -> float:
    """Worst transport distance between the two site conditionals."""
    n = f.alphabet.size
    check_cap(n, max(f.memory_depth, f_tilde.memory_depth))
    # the shallower table broadcasts over the leading sites of the deeper one,
    # flattened to one batch of pasts: a 3-d batch sums 4+ symbols in another order
    shared = n ** min(f.memory_depth, f_tilde.memory_depth)
    rows, rows_t = np.broadcast_arrays(
        f.table_at(site).reshape(-1, shared, n), f_tilde.table_at(site).reshape(-1, shared, n)
    )
    return float(vkr_distance(rows.reshape(-1, n), rows_t.reshape(-1, n), f.alphabet).max())


def comparison_bound(
    alpha: SensitivityMatrix,
    f: KernelSpec,
    f_tilde: KernelSpec,
    lam: Window,
    h: Observable,
    gap_override: float | None = None,
) -> BoundReport:
    """Bound on the expectation gap between the chains of two kernels.

    ``alpha`` is the sensitivity matrix of the reference kernel ``f``.
    The per-site transport gap is maximised over pasts (a valid stand-in
    for its unknown average under the second chain), and each site's gap
    is weighted by how strongly the window average still depends on that
    site.  The sum over past sites carries a geometric tail certificate.
    ``gap_override`` substitutes a precomputed per-site gap, e.g. a
    truncation tail, when enumerating pasts is impossible.
    """
    if f.alphabet != f_tilde.alphabet:
        raise ValueError("kernels must share one alphabet")
    s = alpha.sup_row_sum()
    if not dobrushin_check(alpha).satisfied:
        raise BoundNotApplicableError("the reference kernel fails the row-sum criterion", gamma=s)
    if not lam.contains_window(h.support):
        raise ValueError("observable support must lie inside the window")
    osc = oscillation_vector(h)
    if not osc:
        return BoundReport(name="comparison", value=0.0, quantities={"row_sum_sup": s})

    plain_gap, site_gaps = gap_override, {}
    if gap_override is None:
        # the gap of every site without an override is taken below all of
        # them; the sweep never visits sites above the window
        overrides = sorted(set(f.override_sites + f_tilde.override_sites))
        plain_gap = _kernel_gap_sup(f, f_tilde, min(overrides, default=0) - 1)
        site_gaps = {o: _kernel_gap_sup(f, f_tilde, o) for o in overrides if o <= lam.hi}
    gap_sup = max([plain_gap, *site_gaps.values()])
    # acc sums every site at or below lam.hi, so the tail at lam.hi + 1 bounds it
    tails = _tails(alpha, (osc,), gap_sup, lam.hi, lam.lo - 1, lam.hi + 1)
    [g] = _columns(alpha, (osc,), lam.hi, lam.lo - len(tails))
    gaps = np.full_like(g, plain_gap)
    for site, gap in site_gaps.items():
        if site >= lam.lo - len(tails):
            gaps[lam.hi - site] = gap
    acc = np.cumsum(gaps * g)[len(lam) :]  # from the site lam.lo - 1 down
    i = _stop(alpha, lam.hi, tails, acc)
    tail = float(tails[i])
    value = float(acc[i]) + tail
    return BoundReport(
        name="comparison",
        value=value,
        quantities={
            "row_sum_sup": s,
            "gap_sup": gap_sup,
            "tail_certificate": tail,
            "k_floor": float(lam.lo - 1 - i),
        },
    )
