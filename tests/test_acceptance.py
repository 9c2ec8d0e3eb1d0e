"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from lislab import (
    SensitivityMatrix,
    Window,
    boundary_uniformity_check,
    build_sensitivity_matrix,
    comparison_bound,
    correlation_bound,
    dobrushin_check,
    ergodic_coefficient,
    estimate_correlation,
    fit_decay_rate,
    indicator,
    marginal_distribution,
    memory_bound_general,
    sample_path,
    series_decay_margin,
    verify_consistency,
    verify_dusting,
    vkr_distance,
)
from lislab.analysis import _vkr_linprog
from lislab.core import AlphabetSpec, random_observable
from lislab.kernels import compose_window, kernel_average_observable
from lislab.oracle import exact_correlation, exact_oscillation_of_average
from lislab.sim import default_burn_in
from lislab.specio import power_law_linear, two_state_markov

from conftest import random_distribution, random_table_kernel


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def _kernel_pool(rng: np.random.Generator, count: int):
    return [random_table_kernel(rng, label=f"rand{i}") for i in range(count)]


def _nested_pairs(max_len: int):
    for d in range(1, max_len + 1):
        delta = Window(0, d - 1)
        for lo in range(0, d):
            for hi in range(lo, d):
                yield delta, Window(lo, hi)


def test_criterion_01_consistency(k1, k2, k3):
    started = time.monotonic()
    rng = np.random.default_rng(101)
    kernels = [k1, k2, k3] + _kernel_pool(rng, 20)
    worst = 0.0
    for f in kernels:
        for delta, lam in _nested_pairs(4):
            rep = verify_consistency(f, delta, lam, trials=100, seed=7)
            worst = max(worst, rep.max_residual)
    elapsed = time.monotonic() - started
    _report(
        1,
        "consistency",
        worst <= 1e-12 and elapsed <= 30.0,
        f"max residual {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_factorization(k1, k2, k3):
    rng = np.random.default_rng(202)
    kernels = [k1, k2, k3] + _kernel_pool(rng, 20)
    worst = 0.0
    for f in kernels:
        n = f.alphabet.size
        for d in range(2, 5):
            window = Window(0, d - 1)
            for split in range(0, d - 1):
                for _ in range(100):
                    lo = int(rng.integers(-2, d))
                    h = random_observable(Window(lo, d - 1), f.alphabet, rng)
                    right = kernel_average_observable(f, Window(split + 1, d - 1), h)
                    past_len = max(f.memory_depth, -min(lo, 0), 1)
                    past = tuple(int(s) for s in rng.integers(0, n, past_len))
                    lhs = compose_window(f, window, past, h)
                    rhs = compose_window(f, Window(0, split), past, right)
                    worst = max(worst, abs(lhs - rhs))
    _report(2, "factorization", worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_03_dusting(k1, k2, k3):
    rng = np.random.default_rng(303)
    pool = [k1, k2, k3] + _kernel_pool(rng, 7)
    alphas = {f.label: build_sensitivity_matrix(f) for f in pool}
    instances = 0
    violations = 0
    min_slack = math.inf
    for i in range(100):
        f = pool[i % len(pool)]
        window = Window(0, int(rng.integers(0, 3)))
        rep = verify_dusting(f, window, alphas[f.label], trials=10, seed=i)
        instances += rep.instances
        violations += rep.violations
        min_slack = min(min_slack, rep.min_slack)
    zero = SensitivityMatrix.from_stationary((0.0,))
    control = verify_dusting(k1, Window(0, 0), zero, trials=200, seed=1)
    passed = instances == 1000 and violations == 0 and control.violations >= 1
    _report(
        3,
        "dusting",
        passed,
        f"{instances} instances, {violations} violations, min slack {min_slack:.2e}, "
        f"control violations {control.violations}",
    )


def test_criterion_04_memory_soundness(k1, k2):
    started = time.monotonic()
    alpha1 = build_sensitivity_matrix(k1)
    worst_slack = math.inf
    exact_ok = True
    for n in range(1, 9):
        window = Window(0, n)
        for site in range(0, n + 1):
            for symbol in (0, 1):
                h = indicator(site, symbol, k1.alphabet)
                exact = exact_oscillation_of_average(k1, window, h, -1)
                bound = memory_bound_general(alpha1, window, h, -1).value
                worst_slack = min(worst_slack, bound - exact)
        h_n = indicator(n, 1, k1.alphabet)
        exact_n = exact_oscillation_of_average(k1, window, h_n, -1)
        if abs(exact_n - 0.4 ** (n + 1)) > 1e-12:
            exact_ok = False
    rng = np.random.default_rng(404)
    kernels = [k2] + _kernel_pool(rng, 10)
    for f in kernels:
        alpha = build_sensitivity_matrix(f)
        for _ in range(200):
            hi = int(rng.integers(0, 3))
            window = Window(0, hi)
            lo = int(rng.integers(0, hi + 1))
            h = random_observable(Window(lo, hi), f.alphabet, rng)
            j = -int(rng.integers(1, f.memory_depth + 2))
            exact = exact_oscillation_of_average(f, window, h, j)
            bound = memory_bound_general(alpha, window, h, j).value
            worst_slack = min(worst_slack, bound - exact)
    elapsed = time.monotonic() - started
    passed = worst_slack >= -1e-12 and exact_ok and elapsed <= 60.0
    _report(
        4,
        "loss-of-memory soundness",
        passed,
        f"min slack {worst_slack:.3e}, geometric exact {exact_ok}, {elapsed:.1f}s",
    )


def test_criterion_05_markov_contraction(k1):
    gamma = ergodic_coefficient(k1)
    rng = np.random.default_rng(505)
    worst = -math.inf
    from lislab.core import Observable, oscillation

    for n in range(1, 11):
        window = Window(0, n)
        tables = [(0.0, 1.0), (1.0, 0.0), tuple(rng.random(2).tolist())]
        for table in tables:
            h = Observable(Window(n, n), k1.alphabet, table)
            exact = exact_oscillation_of_average(k1, window, h, -1)
            limit = gamma**n * oscillation(h, n)
            worst = max(worst, exact - limit)
    _report(5, "one-step contraction", worst <= 1e-12, f"max excess {worst:.3e}")


def test_criterion_06_powerlaw_family():
    ok = True
    details = []
    for eps in (0.25, 0.5, 0.75):
        f = power_law_linear(eps, 64)
        alpha = build_sensitivity_matrix(f)
        if alpha.stationary_row != f.family.coefficients:
            ok = False
        verdict = dobrushin_check(alpha)
        m_full = mpmath.zeta(1 + eps)
        partial = mpmath.fsum(mpmath.mpf(k) ** (-(1 + eps)) for k in range(1, 65))
        expected_sum = float((1 - eps) * partial / m_full)
        expected_tail = float((1 - eps) * (m_full - partial) / m_full)
        sum_ok = (
            abs(verdict.scalars["row_sum_sup"] - expected_sum) <= 1e-12
            and verdict.scalars["row_sum_sup"] < 1 - eps + 1e-12
            and verdict.satisfied
        )
        tail_ok = abs(verdict.truncation_tail - expected_tail) <= 1e-9
        ok = ok and sum_ok and tail_ok
        details.append(f"eps={eps}: sum {verdict.scalars['row_sum_sup']:.6f}")
    _report(6, "power-law family", ok, "; ".join(details))


def test_criterion_07_boundary_uniformity(k1):
    verdict = boundary_uniformity_check(k1)
    m = verdict.scalars["min_probability"]
    v = verdict.scalars["variation_sum"]
    c = verdict.scalars["constant"]
    scalars_ok = (
        abs(m - 0.3) <= 1e-12
        and abs(v - 0.4) <= 1e-12
        and abs(c - math.exp(-4.0 / 3.0)) <= 1e-12
    )
    # stationarity lets [n, m] sit anywhere; enumerate [0, L-1]
    ratio_min = math.inf
    for length in range(1, 6):
        window = Window(0, length - 1)
        laws = [marginal_distribution(k1, window, [s]).weights for s in (0, 1)]
        for idx in range(2**length):
            for a in (0, 1):
                for b in (0, 1):
                    if laws[b][idx] > 0:
                        ratio_min = min(ratio_min, laws[a][idx] / laws[b][idx])
    passed = scalars_ok and ratio_min >= c - 1e-12
    _report(
        7,
        "boundary uniformity",
        passed,
        f"m={m:.3f} V={v:.3f} c={c:.6f}, window ratio min {ratio_min:.6f}",
    )


def test_criterion_08_vkr_correctness():
    rng = np.random.default_rng(808)
    worst_disc = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        e = AlphabetSpec.discrete(tuple(str(i) for i in range(n)))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        half_l1 = 0.5 * sum(abs(a - b) for a, b in zip(p, q))
        worst_disc = max(worst_disc, abs(vkr_distance(p, q, e) - half_l1))
    worst_gen = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        table = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                table[a][b] = table[b][a] = float(rng.integers(1, 3))
        e = AlphabetSpec(tuple(str(i) for i in range(n)), tuple(tuple(r) for r in table))
        p = np.array(random_distribution(rng, n))
        q = np.array(random_distribution(rng, n))
        got = vkr_distance(p, q, e)
        if n == 2:
            reference = abs(p[0] - q[0]) * e.distance(0, 1)
        else:
            reference = _vkr_linprog(p, q, e.metric_array())
        worst_gen = max(worst_gen, abs(got - reference))
    passed = worst_disc <= 1e-12 and worst_gen <= 1e-9
    _report(
        8,
        "transport distance",
        passed,
        f"discrete gap {worst_disc:.2e}, general gap {worst_gen:.2e}",
    )


def test_criterion_09_correlation_bound(k1):
    rng = np.random.default_rng(909)
    kernels = [k1] + [
        random_table_kernel(rng, n_symbols=2, depth=1, label=f"c{i}") for i in range(10)
    ]
    worst_slack = math.inf
    for f in kernels:
        alpha = build_sensitivity_matrix(f)
        h0 = indicator(0, 1, f.alphabet)
        for lag in range(1, 9):
            h_lag = indicator(lag, 1, f.alphabet)
            bound = correlation_bound(
                alpha, Window(lag, lag), Window(0, 0), h_lag, h0, f.alphabet.diameter
            ).value
            exact = exact_correlation(f, h0, h0, lag)
            worst_slack = min(worst_slack, bound - exact)
    h0 = indicator(0, 1, k1.alphabet)
    lag3 = exact_correlation(k1, h0, h0, 3)
    lag3_ok = abs(lag3 - 0.016) <= 1e-12
    passed = worst_slack >= -1e-12 and lag3_ok
    _report(
        9,
        "correlation bound",
        passed,
        f"min slack {worst_slack:.3e}, lag-3 exact {lag3:.12f}",
    )


def test_criterion_10_comparison_bound(k1):
    shifts = [(0.01, 0.0), (-0.05, 0.03), (0.05, 0.05), (0.02, -0.04), (0.0, -0.05)]
    worst_slack = math.inf
    from lislab.oracle import stationary_measure

    mu = stationary_measure(k1)
    alpha = build_sensitivity_matrix(k1)
    for d0, d1 in shifts:
        other = two_state_markov(0.3 + d0, 0.7 + d1)
        mu_t = stationary_measure(other)
        for symbol in (0, 1):
            h = indicator(0, symbol, k1.alphabet)
            bound = comparison_bound(alpha, k1, other, Window(0, 0), h).value
            exact = abs(mu.weights[symbol] - mu_t.weights[symbol])
            worst_slack = min(worst_slack, bound - exact)
    _report(10, "comparison bound", worst_slack >= -1e-12, f"min slack {worst_slack:.3e}")


def test_criterion_11_simulation_concordance(k1):
    started = time.monotonic()
    h = indicator(0, 1, k1.alphabet)
    exact = {lag: exact_correlation(k1, h, h, lag) for lag in range(1, 6)}
    burn = default_burn_in(build_sensitivity_matrix(k1))
    good_runs = 0
    for seed in range(1, 21):
        path = sample_path(k1, 10**6, seed)
        ok = True
        for lag in range(1, 6):
            est = estimate_correlation(path, h, h, lag, burn)
            if abs(est.estimate - exact[lag]) > 3.0 * est.standard_error:
                ok = False
        good_runs += ok
    elapsed = time.monotonic() - started
    passed = good_runs >= 19 and elapsed <= 60.0
    _report(
        11,
        "simulation concordance",
        passed,
        f"{good_runs}/20 runs within 3 SE, {elapsed:.1f}s",
    )


def test_criterion_12_series_decay():
    rng = np.random.default_rng(1212)
    violations = 0
    worst = math.inf
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        row = rng.random(depth)
        row = row / row.sum() * rng.uniform(0.1, 0.9)
        alpha = SensitivityMatrix.from_stationary(tuple(float(x) for x in row))
        decay = fit_decay_rate(alpha)
        window = Window(0, int(rng.integers(1, 8)))
        margin = series_decay_margin(alpha, decay, window)
        worst = min(worst, margin)
        if not margin >= -1e-12:
            violations += 1
    _report(
        12,
        "power-sum decay envelope",
        violations == 0,
        f"0 expected violations, got {violations}; min margin {worst:.3e}",
    )
