"""Dense power-sum references, decay bounds, correlation and comparison bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislab import (
    AlphabetSpec,
    DecaySpec,
    GeneralTable,
    KernelSpec,
    LinearLongMemory,
    MarkovTable,
    SensitivityMatrix,
    SiteIndexed,
    Window,
    build_sensitivity_matrix,
    comparison_bound,
    constant_observable,
    correlation_bound,
    fit_decay_rate,
    indicator,
    kernel_average_observable,
    memory_bound_general,
    memory_bound_rows,
    series_decay_margin,
    vkr_distance,
)
from lislab import bounds
from lislab.bounds import BoundNotApplicableError
from lislab.core import (
    oscillation_vector,
    random_observable,
    shift_observable,
)
from lislab.oracle import (
    _dusting_matrix,
    exact_correlation,
    exact_correlations,
    stationary_expectations,
    stationary_measure,
)
from lislab.specio import power_law_linear, two_state_markov

from conftest import iid_kernel, per_call_columns, product_observable


def random_sub_dobrushin(rng: np.random.Generator, depth: int | None = None) -> SensitivityMatrix:
    depth = int(rng.integers(1, 4)) if depth is None else depth
    row = rng.random(depth)
    row = row / row.sum() * rng.uniform(0.1, 0.9)
    return SensitivityMatrix.from_stationary(tuple(float(x) for x in row))


def random_site_indexed(rng: np.random.Generator, depth: int, sites) -> SensitivityMatrix:
    """Sub-critical matrix whose rows at ``sites`` override a random default."""

    def row() -> tuple[float, ...]:
        r = rng.random(depth)
        return tuple(float(x) for x in r / r.sum() * rng.uniform(0.1, 0.9))

    return SensitivityMatrix(depth, row(), tuple((site, row()) for site in sites))


def dense_sensitivity(alpha: SensitivityMatrix, lo: int, hi: int, row_lo: int | None = None):
    """``alpha`` on the site grid ``[lo, hi]``, rows below ``row_lo`` zeroed."""
    row_lo = lo if row_lo is None else row_lo
    size = hi - lo + 1
    dense = np.zeros((size, size))
    for i in range(row_lo, hi + 1):
        for j in range(lo, i):
            dense[i - lo, j - lo] = alpha.entry(i, j)
    return dense


def spread_entry(alpha: SensitivityMatrix, window: Window, k: int, j: int) -> float:
    """Entry ``(k, j)`` of the window's dense power sum ``oracle._dusting_matrix``.

    No path reaches more than ``depth`` sites below the window, where the entry is 0.
    """
    column = j - (window.lo - alpha.depth)
    return float(_dusting_matrix(alpha, window)[k - window.lo, column]) if column >= 0 else 0.0


# --- neumann power sums -----------------------------------------------------

def test_neumann_banded_powers(k1):
    alpha = build_sensitivity_matrix(k1)
    window = Window(0, 5)
    assert alpha.sup_row_sum() < 1.0
    assert spread_entry(alpha, window, 3, 0) == pytest.approx(0.4**3, abs=1e-12)
    assert spread_entry(alpha, window, 5, 0) == pytest.approx(0.4**5, abs=1e-12)
    assert spread_entry(alpha, window, 2, -1) == pytest.approx(0.4**3, abs=1e-12)
    assert spread_entry(alpha, window, 1, 3) == 0.0


def test_neumann_zero_matrix():
    alpha = SensitivityMatrix.from_stationary((0.0, 0.0))
    assert np.all(_dusting_matrix(alpha, Window(0, 4)) == 0.0)
    assert alpha.sup_row_sum() < 1.0


def test_neumann_divergence_flag():
    alpha = SensitivityMatrix.from_stationary((1.0,))
    assert alpha.sup_row_sum() == 1.0
    # the finite window sum is exact even where the row-sum condition fails
    assert spread_entry(alpha, Window(0, 4), 4, 0) == pytest.approx(1.0)


def _sweep_cases(base_depth: int) -> list:
    """Stationary and site-indexed matrices of depth 0 to 8; ``base_depth`` keeps the bare ids."""
    return [
        pytest.param(site_indexed, depth, id=name if depth == base_depth else f"{name}-depth{depth}")
        for depth in range(9)
        for site_indexed, name in ((False, "stationary"), (True, "site-indexed"))
    ]


@pytest.mark.parametrize("site_indexed, depth", _sweep_cases(2))
def test_neumann_matches_dense_reference(site_indexed, depth):
    # the sweep behind memory_bound_general against the dense power sums of
    # oracle._dusting_matrix: a unit oscillation at k probed at j reads entry
    # (k, j) of the power sum of the window (j, 5], or [0, 5] below 0
    rng = np.random.default_rng(3)
    if site_indexed:
        alpha = random_site_indexed(rng, depth, (-1, 1, 2, 4))
    else:
        alpha = random_sub_dobrushin(rng, depth=depth)
    e = iid_kernel((0.5, 0.5)).alphabet
    for k in range(6):
        h = indicator(k, 1, e)
        for j in range(-depth, k):
            window = Window(max(j + 1, 0), 5)
            rep = memory_bound_general(alpha, window, h, j)
            expected = spread_entry(alpha, window, k, j)
            assert rep.value == pytest.approx(expected, rel=1e-12, abs=1e-15)


# --- memory bounds ----------------------------------------------------------

def test_memory_bound_markov_geometric(k1):
    alpha = build_sensitivity_matrix(k1)
    for n in (1, 2, 4):
        h = indicator(n, 1, k1.alphabet)
        rep = memory_bound_general(alpha, Window(0, n), h, -1)
        assert rep.value == pytest.approx(0.4 ** (n + 1), abs=1e-12)


def test_memory_bound_constant_h(k1):
    alpha = build_sensitivity_matrix(k1)
    h = constant_observable(Window(0, 2), k1.alphabet, 2.5)
    assert memory_bound_general(alpha, Window(0, 2), h, -1).value == 0.0


def test_memory_bound_k2_matches_matrix_power_oracle(k2):
    alpha = build_sensitivity_matrix(k2)
    window = Window(0, 2)
    h = indicator(2, 1, k2.alphabet)
    rep = memory_bound_general(alpha, window, h, -1)
    # independent dense reference over the padded site grid
    lo = window.lo - alpha.depth
    dense = dense_sensitivity(alpha, lo, window.hi, row_lo=window.lo)
    acc = np.zeros_like(dense)
    power = np.eye(len(dense))
    for _ in range(len(window)):
        power = power @ dense
        acc += power
    assert rep.value == pytest.approx(acc[2 - lo, -1 - lo], abs=1e-12)


def test_memory_bound_validates_inputs(k1):
    alpha = build_sensitivity_matrix(k1)
    h = indicator(1, 1, k1.alphabet)
    with pytest.raises(ValueError):
        memory_bound_general(alpha, Window(0, 1), h, 0)
    with pytest.raises(ValueError):
        memory_bound_general(alpha, Window(0, 0), h, -1)


def test_series_decay_margin_rejects_large_rate(k1):
    alpha = build_sensitivity_matrix(k1)
    # 0.4 e^rate >= 1 once rate >= ln 2.5
    decay = DecaySpec("exponential", math.log(2.5) + 0.01)
    with pytest.raises(BoundNotApplicableError) as err:
        series_decay_margin(alpha, decay, Window(0, 2))
    assert err.value.gamma >= 1.0


# --- decay-rate fitting -----------------------------------------------------

def test_fit_decay_rate_markov(k1):
    alpha = build_sensitivity_matrix(k1)
    spec = fit_decay_rate(alpha)
    assert spec.family == "exponential"
    # solves 0.4 e^rate = 1 - 1e-6, minus bisection slack
    assert spec.rate == pytest.approx(math.log(2.5), abs=1e-5)
    assert spec.rate < math.log(2.5)


def test_fit_decay_rate_zero_alpha():
    alpha = SensitivityMatrix.from_stationary((0.0, 0.0))
    assert fit_decay_rate(alpha).rate == 50.0


def test_fit_decay_rate_powerlog_series():
    f = power_law_linear(0.5, 16)
    alpha = build_sensitivity_matrix(f)
    spec = fit_decay_rate(alpha, "powerlog")
    gamma = sum(
        a * math.exp(spec.weight(lag)) for lag, a in enumerate(alpha.stationary_row, start=1)
    )
    assert gamma <= 1.0 - 1e-6 + 1e-12
    # doubling the fitted rate must break feasibility
    worse = DecaySpec("powerlog", spec.rate * 2)
    gamma2 = sum(
        a * math.exp(worse.weight(lag)) for lag, a in enumerate(alpha.stationary_row, start=1)
    )
    assert gamma2 > 1.0 - 1e-6


@pytest.mark.parametrize("depth, rate", [(16, 0.1905), (64, 0.0613)])
def test_fit_decay_rate_exponential_on_deep_rows(depth, rate):
    # the first probe, rate 50, tilts lag 15 and deeper past the float range
    alpha = build_sensitivity_matrix(power_law_linear(0.5, depth))
    spec = fit_decay_rate(alpha, "exponential")
    assert spec.rate == pytest.approx(rate, abs=5e-5)

    def gamma(r):
        return sum(a * math.exp(r * lag) for lag, a in enumerate(alpha.stationary_row, start=1))

    assert gamma(spec.rate) <= 1.0 - 1e-6 + 1e-12
    assert gamma(spec.rate * 1.001) > 1.0 - 1e-6


def test_decay_bounds_refuse_a_rate_whose_tilt_overflows():
    alpha = build_sensitivity_matrix(power_law_linear(0.5, 16))
    decay = DecaySpec("exponential", 60.0)  # exp(60 * 12) is past the float range
    with pytest.raises(BoundNotApplicableError) as err:
        series_decay_margin(alpha, decay, Window(0, 2))
    assert err.value.gamma == math.inf


def test_fit_decay_rate_infeasible():
    alpha = SensitivityMatrix.from_stationary((1.0,))
    with pytest.raises(BoundNotApplicableError):
        fit_decay_rate(alpha)


# --- series decay cross-check -----------------------------------------------

def test_series_decay_markov(k1):
    alpha = build_sensitivity_matrix(k1)
    window = Window(0, 5)
    assert series_decay_margin(alpha, DecaySpec("exponential", 0.5), window) >= -1e-12
    # spot-check one entry against hand values
    gamma = 0.4 * math.exp(0.5)
    lhs = spread_entry(alpha, window, 3, 0)
    rhs = gamma / (1 - gamma) * math.exp(-1.5)
    assert lhs <= rhs


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_series_decay_random_property(seed):
    rng = np.random.default_rng(seed)
    alpha = random_sub_dobrushin(rng)
    decay = fit_decay_rate(alpha)
    window = Window(0, int(rng.integers(1, 7)))
    margin = series_decay_margin(alpha, decay, window)
    assert margin >= -1e-12, f"margin {margin}"


# --- correlation bound ------------------------------------------------------

def test_correlation_bound_dominates_markov_exact(k1):
    alpha = build_sensitivity_matrix(k1)
    h0 = indicator(0, 1, k1.alphabet)
    for lag in (1, 3, 5):
        h_lag = indicator(lag, 1, k1.alphabet)
        rep = correlation_bound(alpha, Window(lag, lag), Window(0, 0), h_lag, h0, 1.0)
        exact = exact_correlation(k1, h0, h0, lag)
        assert rep.value >= exact - 1e-12
        assert rep.quantities["tail_certificate"] >= 0.0


def test_correlation_bound_constant_observable(k1):
    alpha = build_sensitivity_matrix(k1)
    h0 = indicator(0, 1, k1.alphabet)
    const = constant_observable(Window(3, 3), k1.alphabet, 1.0)
    assert correlation_bound(alpha, Window(3, 3), Window(0, 0), const, h0, 1.0).value == 0.0


def test_correlation_bound_iid_zero(k3):
    alpha = build_sensitivity_matrix(k3)
    h0 = indicator(0, 1, k3.alphabet)
    h3 = indicator(3, 1, k3.alphabet)
    rep = correlation_bound(alpha, Window(3, 3), Window(0, 0), h3, h0, 1.0)
    assert rep.value == 0.0
    assert exact_correlation(k3, h0, h0, 3) == pytest.approx(0.0, abs=1e-12)


def test_correlation_bound_validates(k1):
    alpha = build_sensitivity_matrix(k1)
    h0 = indicator(0, 1, k1.alphabet)
    h1 = indicator(1, 1, k1.alphabet)
    with pytest.raises(ValueError, match="left"):
        correlation_bound(alpha, Window(0, 0), Window(1, 1), h0, h1, 1.0)
    bad = SensitivityMatrix.from_stationary((1.0,))
    with pytest.raises(BoundNotApplicableError):
        correlation_bound(bad, Window(1, 1), Window(0, 0), h1, h0, 1.0)


def _grid_columns(alpha: SensitivityMatrix, oscs, lo: int, hi: int) -> list[np.ndarray]:
    """Each oscillation vector through ``(I - A)^{-1}`` on the site grid ``[lo, hi]``."""
    inverse = np.linalg.inv(np.eye(hi - lo + 1) - dense_sensitivity(alpha, lo, hi))
    columns = []
    for osc in oscs:
        w = np.zeros(hi - lo + 1)
        for site, v in osc.items():
            w[site - lo] = v
        columns.append(w @ inverse)
    return columns


# override sites by placement against lam = [3, 4] and delta = [-1, 1]
_OVERRIDES = {
    "inside-lam": lambda depth: (4,),
    "between": lambda depth: (2,),
    "near-below": lambda depth: tuple(sorted({-1 - depth, -2})),
    "far-below": lambda depth: (-3 - depth,),
    "mixed": lambda depth: (-6, -2, 0, 1, 4),
}


@pytest.mark.parametrize("placement", list(_OVERRIDES))
@pytest.mark.parametrize("depth", [1, 3, 8])
def test_correlation_bound_site_indexed_matches_dense_inverse(depth, placement):
    # reference: pair the oscillations through (I - A)^{-1} on the grid
    # [k_floor, lam.hi]; the certified tail covers everything deeper.  The
    # shifted windows read the columns that the first one stored in alpha
    rng = np.random.default_rng(17)
    alpha = random_site_indexed(rng, depth, _OVERRIDES[placement](depth))
    e = iid_kernel((0.5, 0.5)).alphabet
    delta = Window(-1, 1)
    h1 = random_observable(Window(3, 4), e, rng)
    h2 = random_observable(delta, e, rng)
    diameter = 2.5
    for shift in (0, 9, 0, 2):
        lam, h = Window(3 + shift, 4 + shift), shift_observable(h1, shift)
        rep = correlation_bound(alpha, lam, delta, h, h2, diameter)
        k_floor = int(rep.quantities["k_floor"])
        assert k_floor < min(delta.lo, *_OVERRIDES[placement](depth))
        oscs = (oscillation_vector(h), oscillation_vector(h2))
        g1, g2 = _grid_columns(alpha, oscs, k_floor, lam.hi)
        below = slice(None, delta.hi - k_floor + 1)
        expected = diameter**2 / 4.0 * float(g1[below] @ g2[below])
        got = rep.quantities["direct_term"] + rep.quantities["coupling_term"]
        assert got == pytest.approx(expected, rel=1e-12)
        assert rep.value == pytest.approx(got + rep.quantities["tail_certificate"], rel=1e-15)


@pytest.mark.parametrize("placement", list(_OVERRIDES))
@pytest.mark.parametrize("depth", [1, 3, 8])
def test_comparison_bound_site_indexed_matches_dense_inverse(depth, placement):
    # a unit gap at every site leaves acc = the sum of G over [k_floor, lam.hi]
    rng = np.random.default_rng(29)
    alpha = random_site_indexed(rng, depth, _OVERRIDES[placement](depth))
    f = iid_kernel((0.5, 0.5))
    lam = Window(3, 4)
    h = random_observable(lam, f.alphabet, rng)
    rep = comparison_bound(alpha, f, f, lam, h, gap_override=1.0)
    k_floor = int(rep.quantities["k_floor"])
    assert k_floor < min(-1, *_OVERRIDES[placement](depth))
    [g] = _grid_columns(alpha, (oscillation_vector(h),), k_floor, lam.hi)
    tail = rep.quantities["tail_certificate"]
    assert rep.value - tail == pytest.approx(float(g.sum()), rel=1e-12)
    assert 0.0 < tail <= 1e-12 * max(1.0, rep.value - tail)


def _bits(rep) -> list:
    return [rep.value.hex(), *((name, float(x).hex()) for name, x in sorted(rep.quantities.items()))]


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["stationary", *_OVERRIDES, "above-lags"]),
    depth=st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_bounds_from_stored_columns_equal_the_per_call_sweep(seed, kind, depth):
    # every lag, in any order and repeated, reads the columns that one matrix
    # stores; each bound equals the bound from a fresh sweep bit for bit
    rng = np.random.default_rng(seed)
    if kind == "stationary":
        alpha = random_sub_dobrushin(rng, depth)
    else:
        sites = (60,) if kind == "above-lags" else _OVERRIDES[kind](depth)
        alpha = random_site_indexed(rng, depth, sites)
    e = AlphabetSpec.binary()
    f = iid_kernel((0.5, 0.5))
    delta = Window(-1, 1)
    h1 = random_observable(Window(0, int(rng.integers(0, 2))), e, rng)
    h2 = random_observable(Window(int(rng.integers(-1, 1)), int(rng.integers(0, 2))), e, rng)
    lags = rng.integers(1, 50, size=10).tolist()
    lags += [lags[0], 1]
    rng.shuffle(lags)
    gap = float(rng.uniform(0.01, 1.0))
    for lag in lags:
        h = shift_observable(h1, delta.hi + lag)
        lam = Window(delta.hi + lag, delta.hi + lag + 1)
        got = [
            correlation_bound(alpha, lam, delta, h, h2, 1.5),
            comparison_bound(alpha, f, f, lam, h, gap_override=gap),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_columns", per_call_columns)
            expected = [
                correlation_bound(alpha, lam, delta, h, h2, 1.5),
                comparison_bound(alpha, f, f, lam, h, gap_override=gap),
            ]
        assert [_bits(rep) for rep in got] == [_bits(rep) for rep in expected]
        # the direct term sums delta's sites only; the zeros above them add no bit
        [g1] = per_call_columns(alpha, (oscillation_vector(h),), lam.hi, delta.lo)
        direct = np.zeros_like(g1)
        for site, w in oscillation_vector(h2).items():
            direct[lam.hi - site] = w
        term1 = 1.5 * 1.5 / 4.0 * float(np.cumsum(g1 * direct)[-1])
        assert got[0].quantities["direct_term"].hex() == term1.hex()


@pytest.mark.parametrize("site_indexed, depth", _sweep_cases(3))
def test_memory_bound_general_matches_spread_entry(site_indexed, depth):
    # the bound of a window average is its oscillations through the window's power sum
    rng = np.random.default_rng(23)
    if site_indexed:
        alpha = random_site_indexed(rng, depth, (-2, 0, 2, 5))
    else:
        alpha = random_sub_dobrushin(rng, depth=depth)
    window = Window(0, 5)
    h = random_observable(Window(1, 4), iid_kernel((0.5, 0.5)).alphabet, rng)
    osc = oscillation_vector(h)
    for j in range(window.lo - alpha.depth - 1, window.lo):  # one probe below the band
        expected = sum(w * spread_entry(alpha, window, k, j) for k, w in osc.items())
        rep = memory_bound_general(alpha, window, h, j)
        assert rep.value == pytest.approx(expected, rel=1e-12, abs=1e-15)


def _rows_matrix(rng: np.random.Generator, kind: str, depth: int, max_n: int) -> SensitivityMatrix:
    if kind == "linear":
        a = rng.random(depth) * rng.uniform(0.1, 0.9) / max(depth, 1)
        f = KernelSpec(AlphabetSpec.binary(), depth, LinearLongMemory(0.05, tuple(a.tolist())))
        return build_sensitivity_matrix(f)
    if kind == "site-indexed":  # overrides inside [0, max_n] and below it, within a depth
        sites = rng.choice(np.arange(-depth - 2, max_n + 1), size=3, replace=False)
        return random_site_indexed(rng, depth, tuple(sorted(int(x) for x in sites)))
    return random_sub_dobrushin(rng, depth)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["stationary", "site-indexed", "linear"]),
    depth=st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_memory_bound_rows_equal_per_row_bounds(seed, kind, depth):
    # one sweep for every row, equal bit for bit to one bound per row
    rng = np.random.default_rng(seed)
    max_n = int(rng.integers(1, 16))
    alpha = _rows_matrix(rng, kind, depth, max_n)
    h = random_observable(Window(int(rng.integers(-1, 1)), 0), AlphabetSpec.binary(), rng)
    for j in range(-1, -depth - 2, -1):
        rows = memory_bound_rows(alpha, h, j, max_n)
        expected = [
            memory_bound_general(alpha, Window(0, n), shift_observable(h, n), j).value
            for n in range(1, max_n + 1)
        ]
        assert [x.hex() for x in rows] == [x.hex() for x in expected]


def test_memory_bound_rows_validate_like_the_first_row(k1):
    alpha = build_sensitivity_matrix(k1)
    h0 = indicator(0, 1, k1.alphabet)
    with pytest.raises(ValueError, match="left of the window"):
        memory_bound_rows(alpha, h0, 0, 4)
    with pytest.raises(ValueError, match="inside the window"):
        memory_bound_rows(alpha, indicator(1, 1, k1.alphabet), -1, 4)


def test_bounds_past_the_site_budget_raise_before_sweeping(monkeypatch):
    # row sum 1 - 3e-5: the certificate at the budget floor still exceeds
    # what the whole sum can reach, so the bound gives up before any column
    def no_sweep(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(bounds, "_columns", no_sweep)
    slow = two_state_markov(0.00001, 0.99998)
    alpha = build_sensitivity_matrix(slow)
    h0 = indicator(0, 1, slow.alphabet)
    h1 = indicator(1, 1, slow.alphabet)
    with pytest.raises(BoundNotApplicableError, match="within 200000 sites below site 1$"):
        correlation_bound(alpha, Window(1, 1), Window(0, 0), h1, h0, 1.0)
    with pytest.raises(BoundNotApplicableError, match="within 200000 sites below site 0$"):
        comparison_bound(alpha, slow, two_state_markov(0.3, 0.7), Window(0, 0), h0)


def test_correlation_bound_zero_matrix_wide_second_window():
    alpha = SensitivityMatrix.from_stationary((0.0,))
    e = iid_kernel((0.5, 0.5)).alphabet
    h2 = random_observable(Window(0, 2), e, np.random.default_rng(5))
    rep = correlation_bound(alpha, Window(5, 5), Window(0, 2), indicator(5, 1, e), h2, 1.0)
    assert rep.value == 0.0


def _binary_table(rng: np.random.Generator, depth: int) -> GeneralTable:
    """Rows within 0.2 of fair, so every sensitivity row sum stays at most 0.8."""
    return GeneralTable(tuple((p, 1.0 - p) for p in rng.uniform(0.3, 0.7, 2**depth).tolist()))


def _exact_covariance(f: KernelSpec, default: KernelSpec, h1, h2, start: int) -> float:
    """|Cov| of ``h1`` and ``h2`` when every site below ``start`` reads ``default``.

    Each average over ``[start, top]`` lives on sites left of ``start``,
    where the chain of ``f`` is the stationary chain of ``default``.
    """

    def average(h):
        return kernel_average_observable(f, Window(start, h.support.hi), h)

    e12, e1, e2 = stationary_expectations(
        default, [average(product_observable(h1, h2)), average(h1), average(h2)]
    )
    return abs(e12 - e1 * e2)


def test_correlation_bound_dominates_exact_covariance_random_binary_tables():
    rng = np.random.default_rng(2024)
    alphabet = AlphabetSpec.discrete(("0", "1"))
    for case in range(48):
        depth = int(rng.integers(1, 3))
        default = KernelSpec(alphabet, depth, _binary_table(rng, depth))
        delta = Window(0, 0) if case % 2 else Window(0, 2)
        f, start = default, delta.lo
        if case % 4 >= 2:  # overrides at one or two sites in [-2, 4]
            sites = sorted({int(s) for s in rng.integers(-2, 5, 2)})
            overrides = tuple((site, _binary_table(rng, depth)) for site in sites)
            f = KernelSpec(alphabet, depth, SiteIndexed(default.family, overrides))
            start = min(delta.lo, *sites)
        lag = int(rng.integers(1, 5))
        lam = Window(delta.hi + lag, delta.hi + lag)
        h1 = random_observable(lam, alphabet, rng)
        h2 = random_observable(delta, alphabet, rng)
        alpha = build_sensitivity_matrix(f)
        full = correlation_bound(alpha, lam, delta, h1, h2, alphabet.diameter).value
        exact = _exact_covariance(f, default, h1, h2, start)
        if f.stationary:
            separation = lam.lo - delta.lo
            assert exact == pytest.approx(exact_correlation(f, h2, h1, separation), abs=1e-15)
        assert exact - 1e-12 <= full, case


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
def test_correlation_bound_dominates_the_sweep_to_lag_1000(depth):
    # past lag 11, where the joint-window enumeration stopped
    rng = np.random.default_rng(300 + depth)
    half = 0.45 / depth  # each lag moves a row by at most 0.9 / depth: row sums up to 0.9
    rows = tuple((p, 1.0 - p) for p in rng.uniform(0.5 - half, 0.5 + half, 2**depth).tolist())
    f = KernelSpec(AlphabetSpec.discrete(("0", "1")), depth, GeneralTable(rows))
    alpha = build_sensitivity_matrix(f)
    early = random_observable(Window(0, 1), f.alphabet, rng)
    late = random_observable(Window(0, 0), f.alphabet, rng)
    lags = range(1, 1001)  # from the top of early to late
    exact = exact_correlations(f, early, late, [lag + 1 for lag in lags])
    for lag in lags:
        moved = shift_observable(late, lag + 1)
        bound = correlation_bound(alpha, moved.support, early.support, moved, early, 1.0).value
        assert exact[lag + 1] - 1e-12 <= bound, lag
        assert exact[lag + 1] <= bound * (1 + 1e-9), lag  # past lag 20 both lie below 1e-12


# --- comparison bound -------------------------------------------------------

def test_comparison_bound_same_kernel(k1):
    h = indicator(0, 1, k1.alphabet)
    rep = comparison_bound(build_sensitivity_matrix(k1), k1, k1, Window(0, 0), h)
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_comparison_bound_iid_pair():
    f = iid_kernel((0.6, 0.4))
    g = iid_kernel((0.5, 0.5))
    h = indicator(0, 1, f.alphabet)
    rep = comparison_bound(build_sensitivity_matrix(f), f, g, Window(0, 0), h)
    assert rep.value == pytest.approx(0.1, abs=1e-12)  # exact gap for i.i.d.


def test_comparison_bound_markov_perturbation(k1):
    other = two_state_markov(0.31, 0.7)
    h = indicator(0, 1, k1.alphabet)
    rep = comparison_bound(build_sensitivity_matrix(k1), k1, other, Window(0, 0), h)
    mu = stationary_measure(k1)
    mu_t = stationary_measure(other)
    gap = abs(mu.weights[1] - mu_t.weights[1])
    assert rep.value >= gap
    assert rep.value == pytest.approx(0.01 / 0.6, abs=1e-6)
    assert rep.quantities["gap_sup"] == pytest.approx(0.01, abs=1e-12)


def test_comparison_bound_gap_override(k1):
    h = indicator(0, 1, k1.alphabet)
    alpha = build_sensitivity_matrix(k1)
    rep = comparison_bound(alpha, k1, k1, Window(0, 0), h, gap_override=0.02)
    assert rep.value == pytest.approx(0.02 / 0.6, abs=1e-6)


def test_comparison_bound_deep_override_certifies_near_the_window(k1):
    # an override far below the window leaves the tail certificate valid
    # at once, because gap_sup already covers the override's gap
    quiet = MarkovTable(1, ((0.6, 0.4), (0.4, 0.6)))
    f = KernelSpec(k1.alphabet, 1, SiteIndexed(k1.family, ((-300000, quiet),)))
    other = two_state_markov(0.31, 0.7)
    h = indicator(0, 1, k1.alphabet)
    rep = comparison_bound(build_sensitivity_matrix(f), f, other, Window(0, 0), h)
    assert math.isfinite(rep.value)
    assert rep.quantities["k_floor"] > -1000
    assert rep.quantities["gap_sup"] == pytest.approx(0.1, abs=1e-12)
    assert rep.value == pytest.approx(0.01 / 0.6, abs=1e-6)


@pytest.mark.parametrize("markov_is_reference", [True, False], ids=["markov-ref", "table-ref"])
def test_comparison_bound_mixed_depths_matches_per_past_loop(markov_is_reference):
    e = AlphabetSpec.discrete(("a", "b", "c"))
    markov_rows = ((0.5, 0.3, 0.2), (0.3, 0.4, 0.3), (0.25, 0.25, 0.5))
    rng = np.random.default_rng(17)
    noise = rng.random((9, 3)) + 0.1
    noise = noise / noise.sum(axis=1, keepdims=True)
    # weak dependence on the older site keeps the table's row sum below 1
    table_rows = tuple(
        tuple(float(x) for x in 0.9 * np.array(markov_rows[code % 3]) + 0.1 * noise[code])
        for code in range(9)
    )
    markov = KernelSpec(e, 1, MarkovTable(1, markov_rows))
    table = KernelSpec(e, 2, MarkovTable(2, table_rows))
    # the depth-1 rows tiled by hand over the older of the two past sites
    tiled = [markov_rows[code % 3] for code in range(9)]
    gap = max(vkr_distance(tiled[code], table_rows[code], e) for code in range(9))
    f, g = (markov, table) if markov_is_reference else (table, markov)
    h = indicator(0, 1, e)
    alpha = build_sensitivity_matrix(f)
    rep = comparison_bound(alpha, f, g, Window(0, 0), h)
    assert rep.quantities["gap_sup"] == pytest.approx(gap, rel=1e-15, abs=0.0)
    reference = comparison_bound(alpha, f, g, Window(0, 0), h, gap_override=gap)
    assert rep.value == pytest.approx(reference.value, rel=1e-15, abs=0.0)


def test_comparison_bound_requires_criterion():
    flip = two_state_markov(1.0, 0.0)
    h = indicator(0, 1, flip.alphabet)
    with pytest.raises(BoundNotApplicableError):
        comparison_bound(build_sensitivity_matrix(flip), flip, flip, Window(0, 0), h)


# --- linearity of bounds in the oscillation vector ---------------------------

def test_memory_bound_linear_in_h(k1):
    alpha = build_sensitivity_matrix(k1)
    rng = np.random.default_rng(11)
    h = random_observable(Window(0, 2), k1.alphabet, rng)
    scaled = type(h)(h.support, h.alphabet, tuple(3.0 * v for v in h.table))
    b1 = memory_bound_general(alpha, Window(0, 2), h, -1).value
    b3 = memory_bound_general(alpha, Window(0, 2), scaled, -1).value
    assert b3 == pytest.approx(3.0 * b1, rel=1e-12)
