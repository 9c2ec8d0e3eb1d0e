"""Brute-force oracles: exact oscillations, dusting, stationary measures."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lislab import (
    AlphabetSpec,
    KernelSpec,
    LinearLongMemory,
    MarkovTable,
    SensitivityMatrix,
    SiteIndexed,
    Window,
    build_sensitivity_matrix,
    compose_window,
    exact_correlation,
    exact_correlations,
    exact_oscillation_of_average,
    exact_oscillation_rows,
    indicator,
    memory_bound_general,
    memory_bound_rows,
    stationary_expectations,
    stationary_measure,
    verify_dusting,
)
from lislab.core import (
    WORK_CAP,
    CapExceededError,
    Observable,
    axis_oscillation,
    config_code,
    random_observable,
    shift_observable,
)
from lislab.kernels import kernel_average_observable
from lislab.oracle import ChainStructureError
from lislab.specio import power_law_linear, two_state_markov

from conftest import enumerate_configs, iid_kernel, product_observable, random_table_kernel


def test_exact_oscillation_markov(k1):
    h = indicator(1, 1, k1.alphabet)
    assert exact_oscillation_of_average(k1, Window(0, 1), h, -1) == pytest.approx(
        0.16, abs=1e-12
    )


def test_exact_oscillation_inside_window_is_zero(k1):
    h = indicator(1, 1, k1.alphabet)
    assert exact_oscillation_of_average(k1, Window(0, 1), h, 0) == 0.0
    assert exact_oscillation_of_average(k1, Window(0, 1), h, 1) == 0.0


def test_exact_oscillation_iid_no_past_dependence(k3):
    h = indicator(2, 1, k3.alphabet)
    assert exact_oscillation_of_average(k3, Window(0, 2), h, -1) == 0.0
    assert exact_oscillation_of_average(k3, Window(0, 2), h, -3) == 0.0


def test_exact_oscillation_beyond_memory_is_zero(k1):
    h = indicator(1, 1, k1.alphabet)
    assert exact_oscillation_of_average(k1, Window(0, 1), h, -2) == 0.0


def _enumerated_oscillation(f, window, h, j) -> float:
    """The reference: tabulate the window average over the past, read the axis of ``j``."""
    if window.contains(j):
        return 0.0
    g = kernel_average_observable(f, window, h)
    if j < g.support.lo:  # the average does not read the site
        return 0.0
    return axis_oscillation(g.table, g.alphabet, j - g.support.lo)


def _random_kernel(rng: np.random.Generator, n: int, depth: int, stationary: bool) -> KernelSpec:
    """A full table, or a lower-order one at the same depth, with overrides when not stationary."""

    def family():
        order = depth if rng.random() < 0.5 else int(rng.integers(0, depth + 1))
        return MarkovTable(order, random_table_kernel(rng, n, order).family.rows)

    f = family()
    if not stationary:
        sites = sorted({int(s) for s in rng.integers(-4, 4, rng.integers(1, 3))})
        f = SiteIndexed(f, tuple((site, family()) for site in sites))
    return KernelSpec(AlphabetSpec.discrete(tuple(str(i) for i in range(n))), depth, f)


def test_backward_sweep_equals_the_enumeration():
    rng = np.random.default_rng(31)
    seen = {"overhang": 0, "wholly left": 0, "past the block": 0, "site-indexed": 0, "3 symbols": 0}
    for case in range(320):
        n, depth = int(rng.integers(2, 4)), int(rng.integers(0, 4))
        f = _random_kernel(rng, n, depth, stationary=case % 2 == 0)
        window = Window(0, int(rng.integers(0, 3)))
        lo = int(rng.integers(-3, window.hi + 1))
        hi = int(rng.integers(lo, min(lo + 3, window.hi) + 1))
        h = random_observable(Window(lo, hi), f.alphabet, rng)
        j = int(rng.integers(-depth - 5, window.hi + 1))
        got = exact_oscillation_of_average(f, window, h, j)
        assert got == pytest.approx(_enumerated_oscillation(f, window, h, j), rel=0.0, abs=1e-14)
        if window.contains(j) or j < window.lo - max(f.effective_order, window.lo - h.support.lo):
            assert got == 0.0  # the average cannot depend on the site
            seen["past the block"] += j < window.lo - max(f.effective_order, len(h.support))
        seen["overhang"] += h.support.lo < window.lo <= h.support.hi
        seen["wholly left"] += h.support.hi < window.lo
        seen["site-indexed"] += not f.stationary
        seen["3 symbols"] += n == 3
    assert min(seen.values()) >= 20, seen


def test_exact_oscillation_calls_no_enumeration(monkeypatch):
    import lislab.kernels
    import lislab.oracle

    def enumeration(*args, **kwargs):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(lislab.oracle, "kernel_average_observable", enumeration)
    monkeypatch.setattr(lislab.kernels, "window_weights", enumeration)
    f = random_table_kernel(np.random.default_rng(3), n_symbols=2, depth=2)
    h = random_observable(Window(-1, 2), f.alphabet, np.random.default_rng(4))
    for window, j in ((Window(0, 2), -2), (Window(3, 5), -1), (Window(0, 30), -1)):
        assert exact_oscillation_of_average(f, window, h, j) > 0.0


def test_exact_oscillation_rows_markov_decay(k1):
    # the bound is attained on this chain: the oscillation at n is 0.4**(n + 1)
    rows = exact_oscillation_rows(k1, indicator(0, 1, k1.alphabet), -1, 1000)
    assert len(rows) == 1000
    for n, exact in enumerate(rows, 1):
        if 0.4 ** (n + 1) > 1e-300:
            assert exact == pytest.approx(0.4 ** (n + 1), rel=1e-12, abs=0.0), n
    assert rows[-1] == 0.0  # the sweep stopped once the centred vector underflowed to 0


def test_exact_oscillation_rows_stop_at_the_first_subnormal_vector():
    # 0.4**(n + 1) passes below the smallest normal float near row 773; a
    # sweep that kept subnormals read 5e-324 from row 811 to row 200000
    f = two_state_markov(0.2, 0.6)
    start = time.perf_counter()
    rows = exact_oscillation_rows(f, indicator(0, 1, f.alphabet), -1, 200000)
    assert time.perf_counter() - start < 0.3
    first_zero = rows.index(0.0) + 1
    assert first_zero <= 811
    assert set(rows[first_zero - 1 :]) == {0.0}
    for n in range(1, 753):  # every row whose value is at least 1e-300
        assert rows[n - 1] == pytest.approx(0.4 ** (n + 1), rel=1e-13, abs=0.0), n


@pytest.mark.parametrize("seed", range(12))
def test_exact_oscillation_rows_attain_the_bound_on_linear_kernels(seed):
    # the average is affine in the past, so the memory bound is attained; the
    # sweep rounds on the scale of the row's largest oscillation, so deeper
    # probes are held to that scale and the nearest one (the largest) to its own
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 9))
    a = rng.random(depth) * rng.uniform(0.1, 0.9) / depth
    f = KernelSpec(AlphabetSpec.binary(), depth, LinearLongMemory(0.05, tuple(a.tolist())))
    alpha = build_sensitivity_matrix(f)
    h0 = indicator(0, 1, f.alphabet)
    probes = range(-1, -depth - 2, -1)
    exact = np.array([exact_oscillation_rows(f, h0, j, 1000) for j in probes])
    bound = np.array([memory_bound_rows(alpha, h0, j, 1000) for j in probes])
    scale = bound.max(axis=0)
    kept = scale > 1e-300
    assert (np.abs(exact - bound)[:, kept] <= 1e-12 * scale[kept]).all()
    assert (np.abs(exact[0] - bound[0])[kept] <= 1e-12 * bound[0, kept]).all()
    assert (exact[-1] == 0.0).all()  # one site past the depth


def test_exact_oscillation_rows_are_one_call_per_row():
    rng = np.random.default_rng(8)
    for stationary in (True, False):
        f = _random_kernel(rng, 2, 2, stationary)
        h = random_observable(Window(-1, 0), f.alphabet, rng)
        for j in (-1, -2, -3):
            rows = exact_oscillation_rows(f, h, j, 11)
            calls = [
                exact_oscillation_of_average(f, Window(0, n), shift_observable(h, n), j)
                for n in range(1, 12)
            ]
            assert [x.hex() for x in rows] == [x.hex() for x in calls]
            expected = [
                _enumerated_oscillation(f, Window(0, n), shift_observable(h, n), j)
                for n in range(1, 12)
            ]
            assert rows == pytest.approx(expected, rel=0.0, abs=1e-14)


def _rows_case(rng: np.random.Generator, case: int):
    """A kernel, observable, probe and row count; overrides fall below 0, in the rows and above."""
    if case % 4 == 3:  # stationary linear, depth 0-8
        depth = int(rng.integers(0, 9))
        a = rng.random(depth) * rng.uniform(0.1, 0.9) / max(depth, 1)
        f = KernelSpec(AlphabetSpec.binary(), depth, LinearLongMemory(0.05, tuple(a.tolist())))
    else:
        n, depth = int(rng.integers(2, 5)), int(rng.integers(0, 4))
        f = _random_kernel(rng, n, depth, stationary=True)
        if case % 4:  # 1-3 overrides in [-4, 45]
            sites = sorted({int(s) for s in rng.integers(-4, 46, rng.integers(1, 4))})
            families = [_random_kernel(rng, n, depth, stationary=True).family for _ in sites]
            f = KernelSpec(f.alphabet, depth, SiteIndexed(f.family, tuple(zip(sites, families))))
    hi = int(rng.integers(-1, 1))
    h = random_observable(Window(int(rng.integers(-1, hi + 1)), hi), f.alphabet, rng)
    width = max(f.effective_order, len(h.support))
    return f, h, -int(rng.integers(1, width + 2)), int(rng.integers(1, 41))


def test_rows_are_their_per_row_averages_bit_for_bit():
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(
        ("below 0", "in the rows", "above the rows", "two-site h", "h at -1", "past the block"), 0
    )
    for case in range(480):
        f, h, j, max_n = _rows_case(rng, case)
        rows = exact_oscillation_rows(f, h, j, max_n)
        calls = [
            exact_oscillation_of_average(f, Window(0, n), shift_observable(h, n), j)
            for n in range(1, max_n + 1)
        ]
        assert [x.hex() for x in rows] == [x.hex() for x in calls], case
        top = h.support.hi + max_n
        seen["below 0"] += any(s < 0 for s in f.override_sites)
        seen["in the rows"] += any(0 <= s <= top for s in f.override_sites)
        seen["above the rows"] += any(s > top for s in f.override_sites)
        seen["two-site h"] += len(h.support) == 2
        seen["h at -1"] += h.support.hi == -1
        seen["past the block"] += -j > max(f.effective_order, len(h.support))
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("depth", [0, 4, 8])
def test_stationary_rows_are_their_per_row_averages_at_3000_rows(depth):
    rng = np.random.default_rng(depth)
    markov = random_table_kernel(rng, 2, depth)
    a = rng.random(depth) * 0.5 / max(depth, 1)
    linear = KernelSpec(AlphabetSpec.binary(), depth, LinearLongMemory(0.05, tuple(a.tolist())))
    for f in (markov, linear):
        h0 = indicator(0, 1, f.alphabet)
        rows = exact_oscillation_rows(f, h0, -1, 3000)
        for n in (1, 2, 17, 500, 2999, 3000):
            assert rows[n - 1] == exact_oscillation_of_average(
                f, Window(0, n), shift_observable(h0, n), -1
            ), n


def _sticky(override_site: int | None) -> KernelSpec:
    """Binary depth-12 table that keeps its last symbol with probability 0.999."""
    rows = tuple((0.999, 0.001) if code % 2 == 0 else (0.001, 0.999) for code in range(4096))
    f = MarkovTable(12, rows)
    if override_site is not None:
        f = SiteIndexed(f, ((override_site, MarkovTable(0, ((0.5, 0.5),))),))
    return KernelSpec(AlphabetSpec.binary(), 12, f)


@pytest.mark.parametrize("override_site", [None, 10**6])
def test_rows_stop_at_the_work_cap(override_site):
    # 4096 blocks: a stationary row n steps n + 1 sites in all, one more than
    # row n - 1; below an override at 10**6 every row steps its own n + 1 sites
    f = _sticky(override_site)
    h0 = indicator(0, 1, f.alphabet)
    rows = exact_oscillation_rows(f, h0, -1, 2 * 10**6)
    cost = (lambda m: m + 1) if override_site is None else (lambda m: m * (m + 3) // 2)
    last = max(m for m in range(1, 2000) if cost(m) * 4096 <= WORK_CAP)
    assert len(rows) == last == (1023 if override_site is None else 43)
    h_last = shift_observable(h0, last)
    assert rows[-1] == exact_oscillation_of_average(f, Window(0, last), h_last, -1) > 0.0


@pytest.mark.parametrize("max_n", [0, -1, 2.5, "3", None])
def test_both_row_functions_refuse_a_max_n_below_1_or_not_an_integer(k1, max_n):
    h0 = indicator(0, 1, k1.alphabet)
    with pytest.raises(ValueError, match="max_n"):
        exact_oscillation_rows(k1, h0, -1, max_n)
    with pytest.raises(ValueError, match="max_n"):
        memory_bound_rows(build_sensitivity_matrix(k1), h0, -1, max_n)


def test_both_row_functions_take_numpy_integers(k1):
    h0 = indicator(0, 1, k1.alphabet)
    exact = exact_oscillation_rows(k1, h0, -1, np.int64(3))
    bound = memory_bound_rows(build_sensitivity_matrix(k1), h0, -1, np.int64(3))
    assert exact == exact_oscillation_rows(k1, h0, -1, 3) and len(exact) == 3
    assert bound == memory_bound_rows(build_sensitivity_matrix(k1), h0, -1, 3) and len(bound) == 3


def test_exact_oscillation_past_the_cap():
    f = power_law_linear(0.5, 64)
    h0 = indicator(0, 1, f.alphabet)
    with pytest.raises(CapExceededError):
        exact_oscillation_of_average(f, Window(0, 1), shift_observable(h0, 1), -1)
    assert exact_oscillation_rows(f, h0, -1, 5) == []
    # the averages read only the 64 sites left of the window
    assert exact_oscillation_of_average(f, Window(0, 1), shift_observable(h0, 1), -65) == 0.0
    assert exact_oscillation_rows(f, h0, -65, 5) == [0.0] * 5


def test_dusting_markov_singleton(k1):
    alpha = build_sensitivity_matrix(k1)
    rep = verify_dusting(k1, Window(0, 0), alpha, trials=500, seed=0)
    assert rep.passed
    assert rep.min_slack >= -1e-12


def test_dusting_negative_control(k1):
    zero = SensitivityMatrix.from_stationary((0.0,))
    rep = verify_dusting(k1, Window(0, 0), zero, trials=200, seed=0)
    assert rep.violations >= 1


def test_dusting_iid_reduces_to_direct_term(k3):
    alpha = build_sensitivity_matrix(k3)
    rep = verify_dusting(k3, Window(0, 1), alpha, trials=200, seed=1)
    assert rep.passed


def test_dusting_multisite(k1, k2):
    for f, window in ((k1, Window(0, 2)), (k2, Window(0, 1))):
        alpha = build_sensitivity_matrix(f)
        rep = verify_dusting(f, window, alpha, trials=200, seed=3)
        assert rep.passed, f"{f.label}: slack {rep.min_slack}"


def test_stationary_measure_markov(k1):
    mu = stationary_measure(k1)
    assert mu.weights == pytest.approx((0.5, 0.5), abs=1e-12)


def test_stationary_measure_iid():
    mu = stationary_measure(iid_kernel((0.3, 0.7)))
    assert mu.weights == pytest.approx((0.3, 0.7), abs=1e-12)


def test_stationary_measure_rejects_reducible():
    from lislab import AlphabetSpec, KernelSpec, MarkovTable

    e = AlphabetSpec.binary()
    stuck = KernelSpec(e, 1, MarkovTable(1, ((1.0, 0.0), (0.0, 1.0))))
    with pytest.raises(ChainStructureError, match="reducible"):
        stationary_measure(stuck)


def test_stationary_measure_rejects_periodic():
    flip = two_state_markov(1.0, 0.0)
    with pytest.raises(ChainStructureError, match="periodic"):
        stationary_measure(flip)


def test_stationary_measure_is_invariant(k1):
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_table_kernel(rng, depth=1)
        mu = stationary_measure(f)
        rows = np.array([f.family.rows[s] for s in range(f.alphabet.size)])
        assert np.abs(mu.weights @ rows - mu.weights).max() <= 1e-12


def test_stationary_measure_consistent_with_kernel(k1):
    # averaging a small observable under the kernel preserves expectations
    mu = stationary_measure(k1)
    h = indicator(0, 1, k1.alphabet)
    g = kernel_average_observable(k1, Window(0, 0), h)
    e_h = sum(mu.weights[s] * h.table[s] for s in range(2))
    e_g = sum(mu.weights[s] * g.table[s] for s in range(2))
    assert e_h == pytest.approx(e_g, abs=1e-12)


def test_exact_correlation_markov_decay(k1):
    h = indicator(0, 1, k1.alphabet)
    assert exact_correlation(k1, h, h, 3) == pytest.approx(0.25 * 0.4**3, abs=1e-12)
    assert exact_correlation(k1, h, h, 0) == pytest.approx(0.25, abs=1e-12)


def test_exact_correlation_iid(k3):
    h = indicator(0, 1, k3.alphabet)
    assert exact_correlation(k3, h, h, 4) == pytest.approx(0.0, abs=1e-12)


def test_exact_correlation_depth_two():
    rng = np.random.default_rng(23)
    f = random_table_kernel(rng, n_symbols=2, depth=2)
    h = indicator(0, 1, f.alphabet)
    mu = stationary_measure(f)
    assert len(mu.weights) == 4
    var = exact_correlation(f, h, h, 0)
    p1 = mu.weights[1] + mu.weights[3]  # blocks 01 and 11
    assert var == pytest.approx(p1 * (1 - p1), abs=1e-12)


def test_stationary_expectations_match_block_law(k1):
    mu = stationary_measure(k1)
    observables = [indicator(0, s, k1.alphabet) for s in range(2)]
    assert stationary_expectations(k1, observables) == pytest.approx(mu.weights, abs=1e-12)


def _block_flow(f, mu: np.ndarray) -> np.ndarray:
    """``mu P`` on the block chain, one (block, symbol) move at a time."""
    rows = f.table_at(0)
    size, n = rows.shape
    blocks = np.arange(size)[:, None]
    flow = np.zeros(size)
    np.add.at(flow, (blocks * n + np.arange(n)) % size, mu[:, None] * rows)
    return flow


@pytest.mark.parametrize(
    ("n_symbols", "depth"),
    [(2, 1), (2, 6), (3, 4), (5, 3), (7, 2), (16, 1), (16, 2), (16, 3)],
)
def test_stationary_solve_is_a_law_with_small_residual(n_symbols, depth):
    f = random_table_kernel(np.random.default_rng(n_symbols * 100 + depth), n_symbols, depth)
    mu = stationary_measure(f).weights
    assert mu.size == n_symbols**depth
    assert mu.min() >= 0.0
    assert np.abs(_block_flow(f, mu) - mu).sum() <= 1e-12


@pytest.mark.parametrize(
    ("p01", "p11"), [(1e-5, 0.99998), (1e-9, 1 - 2e-9), (1e-300, 0.5)]
)
def test_stationary_solve_on_slow_two_state_chains(p01, p11):
    f = two_state_markov(p01, p11)
    mu = stationary_measure(f).weights
    p10 = 1.0 - p11
    assert mu.min() >= 0.0
    # a diagonal (1 - p01) - 1 would keep p01 only to about 2**-53 / p01 relative
    assert mu[1] == pytest.approx(p01 / (p01 + p10), rel=1e-9)
    assert mu[0] == pytest.approx(p10 / (p01 + p10), rel=1e-9)
    assert np.abs(_block_flow(f, mu) - mu).sum() <= 1e-12


def test_shift_and_product():
    e = AlphabetSpec.binary()
    h = indicator(0, 1, e)
    g = shift_observable(h, 3)
    assert g.support == Window(3, 3)
    prod = product_observable(h, g)
    assert prod.support == Window(0, 3)
    assert prod.table[config_code((1, 0, 0, 1), 2)] == 1.0
    assert prod.table[config_code((1, 0, 0, 0), 2)] == 0.0
    with pytest.raises(CapExceededError):  # a hull longer than sys.maxsize sites
        product_observable(h, shift_observable(h, 2**63))


@given(
    n=st.integers(2, 4),
    len1=st.integers(1, 3),
    lo2=st.integers(-4, 4),
    len2=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_product_matches_pointwise_values(n, len1, lo2, len2, seed):
    # lo2 spans supports that are disjoint, gapped, overlapping and nested in either order
    hull = Window(min(0, lo2), max(len1 - 1, lo2 + len2 - 1))
    assume(n ** len(hull) <= 4096)
    e = AlphabetSpec.discrete([str(a) for a in range(n)])
    rng = np.random.default_rng(seed)
    h1 = Observable(Window(0, len1 - 1), e, rng.uniform(-1.0, 1.0, n**len1))
    h2 = Observable(Window(lo2, lo2 + len2 - 1), e, rng.uniform(-1.0, 1.0, n**len2))
    prod = product_observable(h1, h2)
    assert prod.support == hull
    at1, at2 = slice(-hull.lo, len1 - hull.lo), slice(lo2 - hull.lo, lo2 + len2 - hull.lo)
    expected = [
        h1.table[config_code(cfg[at1], n)] * h2.table[config_code(cfg[at2], n)]
        for cfg in enumerate_configs(hull, e)
    ]
    assert prod.table.tobytes() == np.array(expected).tobytes()


@given(
    n=st.integers(2, 3),
    depth=st.integers(0, 4),
    lo1=st.integers(-3, 3),
    len1=st.integers(1, 3),
    len2=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_joint_window_enumeration(n, depth, lo1, len1, len2, seed):
    # separations 0-11 take in overlapping supports and an h2 that ends before h1
    rng = np.random.default_rng(seed)
    f = random_table_kernel(rng, n_symbols=n, depth=depth)
    h1 = random_observable(Window(lo1, lo1 + len1 - 1), f.alphabet, rng)
    h2 = random_observable(Window(5, 4 + len2), f.alphabet, rng)
    law = stationary_measure(f)
    sweep = exact_correlations(f, h1, h2, range(12), law)
    assert sweep.keys() == set(range(12))
    # centred before the product: uncentred, E[h1 h2] - E h1 E h2 on a 12-site law loses 3e-15
    means = stationary_expectations(f, [h1, h2], law)
    c1, c2 = (Observable(h.support, h.alphabet, h.table - e) for h, e in zip((h1, h2), means))
    for separation in range(12):
        if n ** max(len1, separation + len2, depth) > 4096:
            continue
        moved = shift_observable(c2, lo1 + separation - 5)
        [cov] = stationary_expectations(f, [product_observable(c1, moved)], law)
        assert sweep[separation] == pytest.approx(abs(cov), rel=0.0, abs=1e-15)
    separation = int(rng.integers(12))
    assert exact_correlation(f, h1, h2, separation, law) == sweep[separation]


def test_expectations_batch_over_4096_blocks():
    f = random_table_kernel(np.random.default_rng(12), n_symbols=2, depth=12)
    law = stationary_measure(f)
    h = indicator(0, 1, f.alphabet)
    joint = product_observable(h, shift_observable(h, 11))  # 12 sites, 4096 configurations
    blocks = itertools.product(range(2), repeat=12)  # in code order
    loop = sum(
        w * compose_window(f, joint.support, past, joint)
        for past, w in zip(blocks, law.weights)
    )
    [batched] = stationary_expectations(f, [joint], law)
    assert batched == pytest.approx(loop, rel=0.0, abs=1e-13)
    [e1] = stationary_expectations(f, [h], law)
    assert exact_correlation(f, h, h, 11, law) == pytest.approx(abs(batched - e1 * e1), abs=1e-15)
    # the sweep has no joint window: lag 12 steps the same 4096 blocks, and so does lag 1000
    sweep = exact_correlations(f, h, h, range(1, 2000), law)
    assert sweep.keys() == set(range(1, WORK_CAP // 4096 + 1))  # lags 1-1024, in steps x blocks
    assert exact_correlation(f, h, h, 12, law) == sweep[12] > 0.0
    with pytest.raises(CapExceededError, match="work cap"):
        exact_correlation(f, h, h, 1025, law)
    wide = Observable(Window(0, 12), f.alphabet, np.random.default_rng(13).random(2**13))
    with pytest.raises(CapExceededError):  # 13 sites: 8192 blocks
        exact_correlation(f, wide, h, 12, law)


def test_finite_volume_convergence_gap(k1):
    h = indicator(0, 1, k1.alphabet)
    for n in range(0, 6):
        window = Window(-n, 0)
        lo = compose_window(k1, window, (0,), h)
        hi = compose_window(k1, window, (1,), h)
        assert abs(hi - lo) == pytest.approx(0.4 ** (n + 1), abs=1e-12)


def test_finite_volume_iid_constant(k3):
    h = indicator(0, 1, k3.alphabet)
    values = [
        compose_window(k3, Window(-n, 0), (), h)
        for n in range(4)
    ]
    assert values == pytest.approx([0.5] * 4)


def test_finite_volume_stabilizes_at_memory_depth(k2):
    h = indicator(0, 1, k2.alphabet)
    values = [
        compose_window(k2, Window(-n, 0), (1,) * (4 + n), h)
        for n in range(8)
    ]
    # once the window is deeper than the memory, widening from a frozen
    # past continues to mix rather than jump: successive gaps shrink
    gaps = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    assert gaps[-1] < gaps[0]


def test_memory_domination_random(k1, k2):
    rng = np.random.default_rng(5)
    kernels = [k1, k2] + [random_table_kernel(rng, label=f"R{i}") for i in range(5)]
    for f in kernels:
        alpha = build_sensitivity_matrix(f)
        for _ in range(30):
            hi = int(rng.integers(0, 3))
            window = Window(0, hi)
            h = random_observable(window, f.alphabet, rng)
            j = -int(rng.integers(1, f.memory_depth + 2))
            exact = exact_oscillation_of_average(f, window, h, j)
            bound = memory_bound_general(alpha, window, h, j).value
            assert exact <= bound + 1e-12, f"{f.label}: {exact} > {bound}"


def test_verify_dusting_nan_slack_fails(k1, monkeypatch):
    import lislab.oracle

    monkeypatch.setattr(lislab.oracle, "exact_oscillation_of_average", lambda *a: math.nan)
    rep = verify_dusting(k1, Window(0, 1), build_sensitivity_matrix(k1), trials=10)
    assert rep.violations == 10
    assert math.isnan(rep.min_slack)
    assert rep.worst_case == (0, rep.worst_case[1])
    assert not rep.passed


def test_worst_residual_fold():
    from lislab.oracle import _worst

    assert _worst([]) == 0.0
    assert math.isnan(_worst([1e-3, math.nan, 2.0]))  # NaN wins even after a larger number
    assert math.isnan(_worst([5.0, math.nan]))
    assert _worst([-3.0, -1e-17]) == 0.0  # all negative: the memory-domination clamp
    assert _worst([1e-15, 3e-13, 2e-14]) == 3e-13
