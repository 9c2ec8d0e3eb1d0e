"""Brute-force oracles: exact oscillations, dusting, stationary measures."""

import itertools
import math

import numpy as np
import pytest

from lislab import (
    SensitivityMatrix,
    Window,
    build_sensitivity_matrix,
    compose_window,
    exact_correlation,
    exact_oscillation_of_average,
    indicator,
    memory_bound_general,
    stationary_expectations,
    stationary_measure,
    verify_dusting,
)
from lislab.core import (
    CapExceededError,
    product_observable,
    random_observable,
    shift_observable,
)
from lislab.kernels import kernel_average_observable
from lislab.oracle import ChainStructureError
from lislab.specio import iid_kernel, two_state_markov

from conftest import random_table_kernel


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
    assert exact_correlation(f, h, h, 11, law) > 0.0
    with pytest.raises(CapExceededError):
        exact_correlation(f, h, h, 12, law)


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
