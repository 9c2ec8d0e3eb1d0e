"""Quantitative decay bounds driven by a sensitivity matrix.

Every bound here reads one object, the oscillation-weighted Neumann
column ``G(k) = osc(k) + sum_lag A(k + lag, k) G(k + lag)``: the
oscillations of an observable carried down to site ``k`` through
``sum_t A^t``.  One backward sweep, ``_influence``, yields ``G`` site by
site from the top of the observable's window at O(depth) work per site,
for stationary and site-indexed matrices alike.  Because the matrix is
strictly banded below the diagonal, sums over a finite window are exact.
Sums over arbitrarily deep past sites stop once one geometric
certificate (``_tail_certificate`` with per-site base ``s**(1/depth)``)
bounds what is left; the certificate is added to the bound rather than
dropped, and a base that rounds to 1 raises ``BoundNotApplicableError``.
A sweep that has not certified within ``_SITE_BUDGET`` sites raises
``BoundNotApplicableError``.  The semi-exact correlation bound is
``correlation_bound`` less what exact oracle oscillation factors save.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, Mapping

import numpy as np

from .core import CapExceededError, Observable, Window, check_cap, oscillation_vector
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
    """Distance-decay profile entering the exponential-form bounds."""

    family: str
    rate: float

    def __post_init__(self) -> None:
        if self.family not in ("exponential", "powerlog"):
            raise ValueError(f"unknown decay family {self.family!r}")
        if not self.rate > 0.0:
            raise ValueError("decay rate must be positive")

    def weight(self, gap: int) -> float:
        gap = abs(gap)
        if self.family == "exponential":
            return self.rate * gap
        return self.rate * math.log1p(gap)


def _influence(
    alpha: SensitivityMatrix, osc: Mapping[int, float], top: int
) -> Iterator[tuple[int, float]]:
    """Yield ``(k, G(k))`` for ``k = top, top - 1, ...``.

    ``G(k)`` sums ``osc`` over every site ``>= k`` times the weight of
    all strictly decreasing paths from that site down to ``k`` (the empty
    path weighs 1).  Sites of ``osc`` above ``top`` are ignored.
    """
    later: deque[float] = deque(maxlen=alpha.depth)  # G(k + 1), ..., G(k + depth)
    for k in range(top, top - _SITE_BUDGET - 1, -1):
        g = osc.get(k, 0.0) + sum(
            alpha.entry(k + lag, k) * g_lag for lag, g_lag in enumerate(later, start=1)
        )
        yield k, g
        later.appendleft(g)
    raise BoundNotApplicableError(
        f"tail not certified within {_SITE_BUDGET} sites below site {top}",
        gamma=alpha.sup_row_sum(),
    )


def _tail_mass(osc: Mapping[int, float], u: float, k: int) -> float:
    """Geometric mass of ``osc`` seen from site ``k - 1`` at per-site base ``u``."""
    return sum(w * u ** (site - (k - 1)) for site, w in osc.items())


def _tail_certificate(
    oscs: tuple[Mapping[int, float], ...], s: float, u: float, k: int
) -> float:
    """Certificate for the sum over every site ``j < k`` of the product of the columns of ``oscs``.

    Each column is at most ``_tail_mass(osc, u, k) * u**(k - 1 - j) / (1 - s)`` at
    ``j``, so the sum is at most the product of ``_tail_mass / (1 - s)`` over
    ``1 - u**len(oscs)``.  A base ``u`` that rounds to 1 leaves a certificate
    that never shrinks, and the bound does not apply.
    """
    if u == 0.0:
        return 0.0  # a zero matrix carries nothing below the windows
    if u >= 1.0:
        raise BoundNotApplicableError(
            f"row sum {s!r} gives a tail base of 1, so no tail certificate shrinks", gamma=s
        )
    columns = math.prod(_tail_mass(osc, u, k) / (1.0 - s) for osc in oscs)
    # u * u, not u ** 2: pow can round the square differently in the last bit
    return columns / (1.0 - math.prod([u] * len(oscs)))


def _paired_influence(
    alpha: SensitivityMatrix, osc1: Mapping[int, float], osc2: Mapping[int, float], top: int
) -> Iterator[tuple[int, float, float]]:
    """The sweeps of two oscillation vectors in lockstep: ``(k, G1(k), G2(k))``."""
    for (k, g1), (_, g2) in zip(_influence(alpha, osc1, top), _influence(alpha, osc2, top)):
        yield k, g1, g2


def memory_bound_general(
    alpha: SensitivityMatrix, window: Window, h: Observable, j: int
) -> BoundReport:
    """Oscillation bound at a past site for the window average of ``h``.

    Sweeps the support oscillations of ``h`` down the window and takes
    the final step to ``j``; paths stay inside the window, so the sum is
    exact.
    """
    if j >= window.lo:
        raise ValueError("the probed site must lie left of the window")
    if not window.contains_window(h.support):
        raise ValueError("observable support must lie inside the window")
    osc = oscillation_vector(h)
    value = 0.0
    for k, g in islice(_influence(alpha, osc, window.hi), len(window)):
        value += g * alpha.entry(k, j)
    return BoundReport(
        name="memory-general",
        value=value,
        quantities={"row_sum_sup": max(alpha.row_sum(i) for i in window.sites())},
    )


def _gammas(alpha: SensitivityMatrix, decay: DecaySpec) -> tuple[float, dict[int, float]]:
    """Tilted row sums: the stationary one and one per overridden site."""

    def row_gamma(row: tuple[float, ...]) -> float:
        return float(
            sum(a * math.exp(decay.weight(lag)) for lag, a in enumerate(row, start=1))
        )

    return row_gamma(alpha.stationary_row), {
        site: row_gamma(row) for site, row in alpha.site_rows
    }


def _decay_prefactor(
    alpha: SensitivityMatrix, decay: DecaySpec, window: Window
) -> tuple[float, float]:
    """The window's largest tilted row sum ``gamma`` and ``gamma / (1 - gamma)``.

    Raises when ``gamma`` is not below 1, carrying the violating value.
    """
    stationary, by_site = _gammas(alpha, decay)
    gamma = max(by_site.get(i, stationary) for i in window.sites())
    if gamma >= 1.0:
        raise BoundNotApplicableError(
            f"tilted row sum {gamma!r} is not below 1 on the window", gamma=gamma
        )
    return gamma, gamma / (1.0 - gamma)


def memory_bound_exponential(
    alpha: SensitivityMatrix,
    decay: DecaySpec,
    window: Window,
    h: Observable,
    j: int,
) -> BoundReport:
    """Closed-form decay bound: prefactor times metric-decay weights.

    Requires the decay-tilted row sums to stay below 1 on the window;
    raises otherwise, carrying the violating value.
    """
    if j >= window.lo:
        raise ValueError("the probed site must lie left of the window")
    if not window.contains_window(h.support):
        raise ValueError("observable support must lie inside the window")
    gamma, pref = _decay_prefactor(alpha, decay, window)
    value = 0.0
    for k, osc in oscillation_vector(h).items():
        value += osc * math.exp(-decay.weight(k - j))
    return BoundReport(
        name="memory-exponential",
        value=pref * value,
        quantities={"gamma_window": gamma, "prefactor": pref, "rate": decay.rate},
    )


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


def _tail_step_base(alpha: SensitivityMatrix) -> float:
    """Per-site geometric factor for past-tail certificates."""
    s = alpha.sup_row_sum()
    if s <= 0.0:
        return 0.0
    return s ** (1.0 / alpha.depth)


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
    osc1 = oscillation_vector(h1)
    osc2 = oscillation_vector(h2)
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
    # the coupling through deeper sites (acc); every tail test reads the
    # whole of term1, so the sweep is buffered down through delta first
    sweep = _paired_influence(alpha, osc1, osc2, lam.hi)
    head = list(islice(sweep, lam.hi - delta.lo + 1))
    term1 = sum(g1 * osc2.get(k, 0.0) for k, g1, _ in head)
    u = _tail_step_base(alpha)
    acc = 0.0
    for k, g1, g2 in chain(head, sweep):
        if k > delta.hi:
            continue
        acc += g1 * (g2 - osc2.get(k, 0.0))
        tail = _tail_certificate((osc1, osc2), s, u, k)
        if tail <= _TAIL_TOL * max(1.0, term1 + acc):
            break
    value = base * (term1 + acc + tail)
    return BoundReport(
        name="correlation",
        value=value,
        quantities={
            "row_sum_sup": s,
            "direct_term": base * term1,
            "coupling_term": base * acc,
            "tail_certificate": base * tail,
            "k_floor": float(k),
        },
    )


def correlation_bound_semi_exact(
    f: KernelSpec,
    alpha: SensitivityMatrix,
    lam: Window,
    delta: Window,
    h1: Observable,
    h2: Observable,
) -> BoundReport:
    """``correlation_bound`` less what exact oscillation factors save.

    Takes the plain bound at the diameter of the kernel's alphabet.  At
    each site ``k < delta.hi``, from the top down while the oracle fits
    under the cap, ``G2(k)`` gives way to the exact oscillation at ``k``
    of the average of ``h2`` over ``(k, delta.hi]``, which is at most
    ``G2(k)`` (dusting); the plain tail still covers deeper sites.
    """
    from .oracle import exact_oscillation_of_average

    diameter = f.alphabet.diameter
    plain = correlation_bound(alpha, lam, delta, h1, h2, diameter)
    osc1 = oscillation_vector(h1)
    osc2 = oscillation_vector(h2)
    saved = 0.0
    exact_terms = 0
    for k, g1, g2 in _paired_influence(alpha, osc1, osc2, lam.hi):
        if k >= delta.hi:
            continue
        try:
            exact = exact_oscillation_of_average(f, Window(k + 1, delta.hi), h2, k)
        except CapExceededError:
            break
        saved += g1 * (g2 - exact)
        exact_terms += 1
    return BoundReport(
        name="correlation-semi-exact",
        value=plain.value - diameter * diameter / 4.0 * saved,
        quantities={**plain.quantities, "exact_terms": float(exact_terms)},
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
    verdict = dobrushin_check(alpha)
    if not verdict.satisfied:
        raise BoundNotApplicableError(
            "the reference kernel fails the row-sum criterion", gamma=alpha.sup_row_sum()
        )
    if not lam.contains_window(h.support):
        raise ValueError("observable support must lie inside the window")
    s = alpha.sup_row_sum()
    osc = oscillation_vector(h)
    if not osc:
        return BoundReport(name="comparison", value=0.0, quantities={"row_sum_sup": s})

    if gap_override is not None:
        gaps = {None: gap_override}
    else:
        # None keys the gap shared by every site without an override, taken
        # below all of them; the sweep never visits sites above the window
        overrides = set(f.override_sites + f_tilde.override_sites)
        plain = min(overrides, default=0) - 1
        gaps = {None: _kernel_gap_sup(f, f_tilde, plain)}
        for site in sorted(overrides):
            if site <= lam.hi:
                gaps[site] = _kernel_gap_sup(f, f_tilde, site)
    gap_sup = max(gaps.values())
    acc = 0.0
    tail = 0.0
    u = _tail_step_base(alpha)
    for k, osc_factor in _influence(alpha, osc, lam.hi):
        acc += gaps.get(k, gaps[None]) * osc_factor
        if k < lam.lo:
            tail = gap_sup * _tail_certificate((osc,), s, u, k)
            if tail <= _TAIL_TOL * max(1.0, acc):
                break
    value = acc + tail
    return BoundReport(
        name="comparison",
        value=value,
        quantities={
            "row_sum_sup": s,
            "gap_sup": gap_sup,
            "tail_certificate": tail,
            "k_floor": float(k),
        },
    )
