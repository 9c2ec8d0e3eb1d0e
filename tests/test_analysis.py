"""Variations, transport distances, sensitivity, and criteria."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislab import (
    AlphabetSpec,
    KernelSpec,
    MarkovTable,
    SensitivityMatrix,
    SiteIndexed,
    Window,
    boundary_uniformity_check,
    build_sensitivity_matrix,
    correlation_bound,
    dobrushin_check,
    ergodic_coefficient,
    indicator,
    sensitivity_estimator,
    variation,
    vkr_distance,
)
from lislab.analysis import _vkr_linprog
from lislab.bounds import BoundNotApplicableError
from lislab.kernels import GeneralTable, LinearLongMemory
from lislab.oracle import _vkr_vertex_enum
from lislab.specio import power_law_linear, two_state_markov

from conftest import random_distribution, random_table_kernel


def _as_general_table(f: KernelSpec, i: int) -> GeneralTable:
    rows = f.table_at(i)
    return GeneralTable(tuple(tuple(float(x) for x in row) for row in rows))


def _variation_enumerated(f: KernelSpec, i: int, j: int) -> float:
    """Variation of the kernel re-declared as a full table (no closed form)."""
    if isinstance(f.family_at(i), LinearLongMemory):
        f = KernelSpec(f.alphabet, f.memory_depth, _as_general_table(f, i))
    return variation(f, i, j)


# --- variations -------------------------------------------------------------

def test_variation_markov(k1):
    # agreement on [j, i] pins the conditioning site for any j <= i - 1
    assert variation(k1, 0, -1) == 0.0
    assert variation(k1, 5, 2) == 0.0
    # lag 0 frees the whole past
    assert variation(k1, 0, 0) == pytest.approx(0.4)


def test_variation_beyond_depth_is_zero(k2):
    assert variation(k2, 0, -4) == 0.0
    assert variation(k2, 0, -7) == 0.0


def test_variation_linear_closed_form_matches_enumeration():
    f = power_law_linear(0.5, 4, normalization="partial")
    for lag in range(0, 5):
        closed = variation(f, 0, -lag)
        enumerated = _variation_enumerated(f, 0, -lag)
        assert closed == pytest.approx(enumerated, abs=1e-12)


def test_variation_linear_dominates_single_flip():
    # at lag 3 on a depth-8 kernel the variation (sum of deeper
    # coefficients) exceeds the single lag-3 coefficient
    f = power_law_linear(0.5, 8, normalization="partial")
    lag = 3
    coeff = f.family.coefficients[lag - 1]
    assert variation(f, 0, -lag) >= coeff


def test_variation_requires_order(k1):
    with pytest.raises(ValueError):
        variation(k1, 0, 1)


# --- transport distance -----------------------------------------------------

def test_vkr_discrete_examples():
    e = AlphabetSpec.binary()
    assert vkr_distance((0.3, 0.7), (0.7, 0.3), e) == pytest.approx(0.4, abs=1e-15)
    assert vkr_distance((0.3, 0.7), (0.3, 0.7), e) == 0.0


def test_vkr_scaled_metric():
    e = AlphabetSpec(("0", "1"), ((0.0, 2.0), (2.0, 0.0)))
    assert vkr_distance((0.3, 0.7), (0.7, 0.3), e) == pytest.approx(0.8, abs=1e-15)


def test_vkr_solvers_agree():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        symbols = tuple(str(i) for i in range(n))
        # a random metric: distances 1 or 2 keep the triangle inequality
        table = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                table[a][b] = table[b][a] = float(rng.integers(1, 3))
        e = AlphabetSpec(symbols, tuple(tuple(r) for r in table))
        for _ in range(25):
            p = np.array(random_distribution(rng, n))
            q = np.array(random_distribution(rng, n))
            dist = e.metric_array()
            assert _vkr_vertex_enum(p, q, dist) == pytest.approx(
                _vkr_linprog(p, q, dist), abs=1e-9
            )


@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_vkr_is_a_metric(seed, n):
    rng = np.random.default_rng(seed)
    e = AlphabetSpec.discrete(tuple(str(i) for i in range(n)))
    p, q, r = (random_distribution(rng, n) for _ in range(3))
    dpq = vkr_distance(p, q, e)
    assert dpq >= 0.0
    assert vkr_distance(p, p, e) == pytest.approx(0.0, abs=1e-12)
    assert dpq == pytest.approx(vkr_distance(q, p, e), abs=1e-12)
    assert dpq <= vkr_distance(p, r, e) + vkr_distance(r, q, e) + 1e-12


@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_vkr_discrete_equals_half_l1(seed, n):
    rng = np.random.default_rng(seed)
    e = AlphabetSpec.discrete(tuple(str(i) for i in range(n)))
    p = random_distribution(rng, n)
    q = random_distribution(rng, n)
    half_l1 = 0.5 * sum(abs(a - b) for a, b in zip(p, q))
    assert vkr_distance(p, q, e) == pytest.approx(half_l1, abs=1e-12)


def _metric_alphabet(table) -> AlphabetSpec:
    return AlphabetSpec(
        tuple(str(i) for i in range(len(table))), tuple(tuple(float(x) for x in r) for r in table)
    )


def _random_metric(rng: np.random.Generator, n: int) -> AlphabetSpec:
    # off-diagonal distances in [1, 2] always satisfy the triangle inequality
    table = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            table[a, b] = table[b, a] = rng.uniform(1.0, 2.0)
    return _metric_alphabet(table)


_PATH4 = _metric_alphabet([[abs(a - b) for b in range(4)] for a in range(4)])


@pytest.mark.parametrize("n", [2, 3])
def test_vkr_star_form_matches_vertex_enumeration(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        e = _random_metric(rng, n)
        for _ in range(10):
            p = np.array(random_distribution(rng, n))
            q = np.array(random_distribution(rng, n))
            assert vkr_distance(p, q, e) == pytest.approx(
                _vkr_vertex_enum(p, q, e.metric_array()), abs=1e-12
            )


@pytest.mark.parametrize(
    "e",
    [
        AlphabetSpec.discrete(("0", "1", "2", "3")),
        AlphabetSpec.discrete(("0", "1", "2", "3", "4")),
        _PATH4,
    ],
    ids=["discrete4", "discrete5", "path4"],
)
def test_vkr_matches_linprog_beyond_three_symbols(e):
    rng = np.random.default_rng(e.size)
    for _ in range(25):
        p = np.array(random_distribution(rng, e.size))
        q = np.array(random_distribution(rng, e.size))
        assert vkr_distance(p, q, e) == pytest.approx(
            _vkr_linprog(p, q, e.metric_array()), abs=1e-9
        )


def test_vkr_path_metric_equals_cdf_gap():
    # on points of a line the transport cost is the L1 gap of the two CDFs
    rng = np.random.default_rng(44)
    for _ in range(25):
        p = np.array(random_distribution(rng, 4))
        q = np.array(random_distribution(rng, 4))
        cdf_gap = float(np.abs(np.cumsum(p - q))[:-1].sum())
        assert vkr_distance(p, q, _PATH4) == pytest.approx(cdf_gap, abs=1e-9)


@pytest.mark.parametrize(
    "e", [AlphabetSpec.discrete(("0", "1", "2", "3")), _PATH4], ids=["star", "linprog"]
)
def test_vkr_batch_equals_pair_loop(e):
    rng = np.random.default_rng(45)
    p = np.array([[random_distribution(rng, 4) for _ in range(3)] for _ in range(2)])
    q = np.array(random_distribution(rng, 4))
    batch = vkr_distance(p, q, e)
    assert batch.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = vkr_distance(p[idx], q, e)
        assert isinstance(single, float)
        assert batch[idx] == pytest.approx(single, abs=1e-15)


def test_vkr_rejects_laws_off_the_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        vkr_distance((0.5, 0.5), (0.2, 0.3, 0.5), AlphabetSpec.binary())


# --- sensitivity ------------------------------------------------------------

def _sensitivity_pair_loop(f: KernelSpec, lag: int) -> float:
    """Sensitivity at ``lag`` by one reference transport solve per past and pair."""
    n, depth = f.alphabet.size, f.memory_depth
    dist = f.alphabet.metric_array()
    solve = _vkr_vertex_enum if n <= 3 else _vkr_linprog
    worst = 0.0
    for rest in range(n ** (depth - 1)):
        high, low = divmod(rest, n ** (lag - 1))
        for a in range(n):
            for b in range(a + 1, n):
                past_a = (high * n + a) * n ** (lag - 1) + low
                past_b = (high * n + b) * n ** (lag - 1) + low
                p = np.array(f.family.rows[past_a])
                q = np.array(f.family.rows[past_b])
                worst = max(worst, solve(p, q, dist) / dist[a, b])
    return worst


@pytest.mark.parametrize("n", [3, 4])
def test_sensitivity_matches_pair_loop(n):
    rng = np.random.default_rng(50 + n)
    for metric in ("discrete", "random"):
        f = random_table_kernel(rng, n_symbols=n, depth=2)
        if metric == "random":
            f = KernelSpec(_random_metric(rng, n), 2, f.family)
        for lag in (1, 2):
            assert sensitivity_estimator(f, 0, -lag) == pytest.approx(
                _sensitivity_pair_loop(f, lag), rel=1e-12, abs=1e-12
            )


def test_sensitivity_markov(k1):
    assert sensitivity_estimator(k1, 0, -1) == pytest.approx(0.4)
    assert sensitivity_estimator(k1, 0, -2) == 0.0
    with pytest.raises(ValueError):
        sensitivity_estimator(k1, 0, 0)


def test_sensitivity_linear_equals_coefficients(k2):
    for lag in range(1, 5):
        assert sensitivity_estimator(k2, 0, -lag) == k2.family.coefficients[lag - 1]


def test_sensitivity_linear_fast_path_matches_enumeration(k2):
    table_kernel = KernelSpec(k2.alphabet, 4, _as_general_table(k2, 0))
    for lag in range(1, 5):
        assert sensitivity_estimator(k2, 0, -lag) == pytest.approx(
            sensitivity_estimator(table_kernel, 0, -lag), abs=1e-12
        )


def test_build_sensitivity_matrix(k1, k2, k3):
    a1 = build_sensitivity_matrix(k1)
    assert a1.stationary_row == pytest.approx((0.4,))
    a2 = build_sensitivity_matrix(k2)
    assert a2.stationary_row == k2.family.coefficients
    a3 = build_sensitivity_matrix(k3)
    assert a3.stationary_row == ()
    assert a3.sup_row_sum() == 0.0


def test_sensitivity_nonnegative_and_banded(k2):
    a = build_sensitivity_matrix(k2)
    assert a.entry(0, -5) == 0.0
    assert a.entry(0, 1) == 0.0
    assert all(x >= 0.0 for x in a.stationary_row)


def test_sensitivity_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        SensitivityMatrix.from_stationary((math.nan,))
    with pytest.raises(ValueError, match="finite"):
        SensitivityMatrix(1, (0.2,), ((3, (math.inf,)),))


def test_sensitivity_matrix_rejects_a_repeated_site():
    # one row per site, so row(), entry(), sup_row_sum() and the bounds read the same row
    with pytest.raises(ValueError, match="duplicate override site"):
        SensitivityMatrix(1, (0.1,), ((0, (0.2,)), (0, (0.9,))))
    alpha = SensitivityMatrix(1, (0.1,), ((0, (0.2,)), (1, (0.9,))))
    assert (alpha.row(0), alpha.entry(1, 0), alpha.sup_row_sum()) == ((0.2,), 0.9, 0.9)


def test_sensitivity_matrix_refuses_non_integer_sites():
    alpha = SensitivityMatrix(1, (0.1,), ((1, (0.9,)),))
    for read in (lambda: alpha.entry(1.5, 0.5), lambda: alpha.entry(2, 1.0),
                 lambda: alpha.row(math.nan), lambda: alpha.row_sum(1.0)):
        with pytest.raises(ValueError, match="a site must be an integer"):
            read()
    assert (alpha.entry(np.int64(1), np.int64(0)), alpha.row_sum(np.int64(1))) == (0.9, 0.9)


def test_neumann_columns_are_not_shared_between_equal_matrices():
    a = SensitivityMatrix.from_stationary((0.2, 0.3))
    b = SensitivityMatrix.from_stationary((0.2, 0.3))
    h0, h3 = indicator(0, 1, AlphabetSpec.binary()), indicator(3, 1, AlphabetSpec.binary())
    value = correlation_bound(a, Window(3, 3), Window(0, 0), h3, h0, 1.0).value
    # the store sits outside the dataclass fields
    assert a._neumann and not b._neumann
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert correlation_bound(b, Window(3, 3), Window(0, 0), h3, h0, 1.0).value == value
    assert b._neumann is not a._neumann
    [(column, _)] = b._neumann.values()
    assert all(column is not other for other, _ in a._neumann.values())


def test_site_indexed_default_row_ignores_far_override():
    # a stay-put chain (row sum 1) with an i.i.d. override far to the right:
    # the default row must come from the default family, not from the
    # family found at some probe site
    e = AlphabetSpec.binary()
    stay = MarkovTable(1, ((1.0, 0.0), (0.0, 1.0)))
    iid = MarkovTable(1, ((0.5, 0.5), (0.5, 0.5)))
    f = KernelSpec(e, 1, SiteIndexed(stay, ((10**9, iid),)))
    alpha = build_sensitivity_matrix(f)
    assert alpha.stationary_row == (1.0,)
    assert alpha.row(10**9) == (0.0,)
    assert not dobrushin_check(alpha).satisfied


# --- criteria ---------------------------------------------------------------

def test_dobrushin_examples(k1, k2):
    v1 = dobrushin_check(build_sensitivity_matrix(k1))
    assert v1.satisfied and v1.scalars["row_sum_sup"] == pytest.approx(0.4)
    v2 = dobrushin_check(build_sensitivity_matrix(k2))
    assert v2.satisfied
    assert v2.scalars["row_sum_sup"] == pytest.approx(0.5, abs=1e-12)
    boundary = dobrushin_check(SensitivityMatrix.from_stationary((1.0,)))
    assert not boundary.satisfied  # strict inequality at the boundary


def test_dobrushin_truncated_tail_reported():
    f = power_law_linear(0.5, 4, normalization="full")
    v = dobrushin_check(build_sensitivity_matrix(f))
    assert v.satisfied
    assert v.scalars["row_sum_sup"] < 0.5
    assert v.truncation_tail > 0.0
    assert v.scalars["row_sum_sup"] + v.truncation_tail == pytest.approx(0.5, abs=1e-12)


@given(
    row=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=3),
    bump_idx=st.integers(0, 2),
    bump=st.floats(0.0, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_dobrushin_monotone(row, bump_idx, bump):
    base = SensitivityMatrix.from_stationary(tuple(row))
    bumped_row = list(row)
    bumped_row[bump_idx % len(row)] += bump
    bumped = SensitivityMatrix.from_stationary(tuple(bumped_row))
    if not dobrushin_check(base).satisfied:
        assert not dobrushin_check(bumped).satisfied


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
    excess=st.sampled_from([0.0, 2.0**-60, 2.0**-52, 1e-13, 9e-13]),
)
@settings(max_examples=200, deadline=None)
def test_no_row_whose_exact_sum_reaches_one_passes(weights, excess):
    # the last coefficient makes the exact sum at least 1 + excess, which the spec admits
    first = [w / sum(weights) for w in weights[:-1]]
    rest = sum(map(Fraction, first))
    last = float(1 + Fraction(excess) - rest)
    while rest + Fraction(last) < 1 + Fraction(excess):
        last = math.nextafter(last, math.inf)
    coefficients = (*first, last)
    assert sum(map(Fraction, coefficients)) >= 1
    f = KernelSpec(AlphabetSpec.binary(), len(coefficients), LinearLongMemory(0.0, coefficients))
    alpha = build_sensitivity_matrix(f)
    assert alpha.sup_row_sum() >= 1.0
    assert not dobrushin_check(alpha).satisfied
    e = AlphabetSpec.binary()
    with pytest.raises(BoundNotApplicableError, match="row-sum criterion"):
        correlation_bound(alpha, Window(3, 3), Window(0, 0), indicator(3, 1, e), indicator(0, 1, e), 1.0)


def test_boundary_uniformity_markov(k1):
    v = boundary_uniformity_check(k1)
    assert v.satisfied
    assert v.scalars["min_probability"] == pytest.approx(0.3, abs=1e-12)
    assert v.scalars["variation_sum"] == pytest.approx(0.4, abs=1e-12)
    assert v.scalars["constant"] == pytest.approx(math.exp(-4.0 / 3.0), abs=1e-12)


def test_boundary_uniformity_zero_entry():
    f = two_state_markov(0.0, 0.7)
    v = boundary_uniformity_check(f)
    assert not v.satisfied
    assert v.scalars["min_probability"] == 0.0


def test_boundary_uniformity_iid(k3):
    v = boundary_uniformity_check(k3)
    assert v.satisfied
    assert v.scalars["min_probability"] == 0.5
    assert v.scalars["variation_sum"] == 0.0
    assert v.scalars["constant"] == 1.0


def _contiguous_variation_sum(f: KernelSpec) -> float:
    """Largest ``V`` over every window start from below the overrides to past them, one by one."""
    depth = f.memory_depth
    sites = f.override_sites or (0,)
    starts = range(min(sites) - depth - 1, max(sites) + depth + 3)
    return max(sum(variation(f, i, n) for i in range(n, n + depth + 1)) for n in starts)


def test_boundary_uniformity_reads_the_windows_around_each_override():
    rng = np.random.default_rng(12)
    for case in range(60):
        n, depth = int(rng.integers(2, 4)), int(rng.integers(0, 3))
        f = random_table_kernel(rng, n, depth)
        if case % 4:
            sites = sorted({int(s) for s in rng.integers(-6, 7, rng.integers(1, 4))})
            families = [random_table_kernel(rng, n, depth).family for _ in sites]
            f = KernelSpec(f.alphabet, depth, SiteIndexed(f.family, tuple(zip(sites, families))))
        v = boundary_uniformity_check(f).scalars
        assert v["variation_sum"] == _contiguous_variation_sum(f), case
        assert v["constant"] == math.exp(-v["variation_sum"] / v["min_probability"])


def test_boundary_uniformity_with_overrides_far_apart_is_quick(k1):
    override = MarkovTable(1, ((0.9, 0.1), (0.2, 0.8)))  # varies by 0.7 against k1's 0.4
    f = KernelSpec(k1.alphabet, 1, SiteIndexed(k1.family, ((-10**9, override), (10**9, override))))
    start = time.perf_counter()
    v = boundary_uniformity_check(f).scalars
    assert time.perf_counter() - start < 1.0
    near = KernelSpec(k1.alphabet, 1, SiteIndexed(k1.family, ((-3, override), (3, override))))
    assert v == boundary_uniformity_check(near).scalars
    assert v["variation_sum"] == pytest.approx(0.7, abs=1e-12)


def test_ergodic_coefficient_examples(k1, k3):
    assert ergodic_coefficient(k1) == pytest.approx(0.4)
    assert ergodic_coefficient(k3) == 0.0
    flip = two_state_markov(1.0, 0.0)
    assert ergodic_coefficient(flip) == 1.0


def test_ergodic_coefficient_rejects_long_memory(k2):
    with pytest.raises(ValueError):
        ergodic_coefficient(k2)


def test_ergodic_equals_lag_one_sensitivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_table_kernel(rng, depth=1)
        assert ergodic_coefficient(f) == pytest.approx(
            build_sensitivity_matrix(f).stationary_row[0], abs=1e-12
        )


def test_min_probability_nan_fails_the_boundary_check(k1, monkeypatch):
    from lislab import KernelSpec, MarkovTable
    from lislab.analysis import _min_probability

    # min() keeps the 1.0 and drops the NaN behind it
    rows = ((0.5, 0.5), (1.0, math.nan))
    monkeypatch.setattr(KernelSpec, "families", lambda self: (MarkovTable(1, rows),))
    assert math.isnan(_min_probability(k1))
    with pytest.raises(ValueError, match="min_probability"):
        boundary_uniformity_check(k1)
