"""Path sampling reproducibility and correlation estimation."""

import time
import tracemalloc

import numpy as np
import pytest

from lislab import Window, build_sensitivity_matrix, estimate_correlation, indicator, sample_path
from lislab import sim
from lislab.core import AlphabetSpec
from lislab.kernels import GeneralTable, KernelSpec, LinearLongMemory, MarkovTable, SiteIndexed
from lislab.oracle import exact_correlation, sample_path_stepwise
from lislab.sim import default_burn_in, evaluate_along
from lislab.specio import power_law_linear, two_state_markov

from conftest import random_distribution, tabulate


def test_reproducible_paths(k1):
    a = sample_path(k1, 1000, seed=42)
    b = sample_path(k1, 1000, seed=42)
    assert np.array_equal(a, b)
    c = sample_path(k1, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_fair_coin_statistics(k3):
    path = sample_path(k3, 10000, seed=7)
    assert set(np.unique(path)) <= {0, 1}
    assert abs(path.mean() - 0.5) < 0.02


def test_deterministic_flip_alternates():
    flip = two_state_markov(1.0, 0.0)
    path = sample_path(flip, 10, seed=3, initial_past=[0])
    assert path.tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_markov_empirical_mean(k1):
    path = sample_path(k1, 10**5, seed=1)
    # stationary mean 0.5; autocorrelated, so allow a generous band
    assert abs(path.mean() - 0.5) < 0.02


def test_linear_kernel_sampling_direct_path():
    f = power_law_linear(0.5, 64)
    path = sample_path(f, 2000, seed=5, initial_past=(1,) * 64)
    assert len(path) == 2000
    assert set(np.unique(path)) <= {0, 1}
    again = sample_path(f, 2000, seed=5, initial_past=(1,) * 64)
    assert np.array_equal(path, again)


def test_default_burn_in(k1, k3):
    assert default_burn_in(build_sensitivity_matrix(k1)) == int(10 / 0.6) + 1
    assert default_burn_in(build_sensitivity_matrix(k3)) == 11


def test_evaluate_along_multisite(k1):
    h = indicator(0, 1, k1.alphabet)
    path = np.array([0, 1, 1, 0], dtype=np.int8)
    assert evaluate_along(path, h).tolist() == [0.0, 1.0, 1.0, 0.0]

    pair = tabulate(Window(0, 1), k1.alphabet, lambda c: float(c[0] * c[1]))
    assert evaluate_along(path, pair).tolist() == [0.0, 1.0, 0.0]


def test_estimate_matches_exact_within_3se(k1):
    h = indicator(0, 1, k1.alphabet)
    path = sample_path(k1, 10**5, seed=11)
    burn = default_burn_in(build_sensitivity_matrix(k1))
    for lag in (1, 3):
        est = estimate_correlation(path, h, h, lag, burn)
        exact = exact_correlation(k1, h, h, lag)
        assert abs(est.estimate - exact) <= 4.0 * est.standard_error


def test_estimate_lag0_variance(k1):
    h = indicator(0, 1, k1.alphabet)
    path = sample_path(k1, 10**5, seed=13)
    est = estimate_correlation(path, h, h, 0, default_burn_in(build_sensitivity_matrix(k1)))
    assert est.estimate == pytest.approx(0.25, abs=0.01)


def test_estimate_iid_zero(k3):
    h = indicator(0, 1, k3.alphabet)
    path = sample_path(k3, 10**5, seed=17)
    est = estimate_correlation(path, h, h, 2, 10)
    assert abs(est.estimate) <= 3.0 * est.standard_error


def test_long_path_memory_is_bounded(k1):
    # the int8 path (1 B/site) and one batch of values; no uniform or value array as long as the path
    h = indicator(0, 1, k1.alphabet)
    tracemalloc.start()
    try:
        path = sample_path(k1, 10**6, seed=19)
        for lag in range(1, 6):
            estimate_correlation(path, h, h, lag, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_estimate_rejects_short_path(k1):
    h = indicator(0, 1, k1.alphabet)
    path = sample_path(k1, 100, seed=1)
    with pytest.raises(ValueError, match="too short"):
        estimate_correlation(path, h, h, 1, 90)


def test_estimate_rejects_negative_lag_and_burn_in(k1):
    h = indicator(0, 1, k1.alphabet)
    path = sample_path(k1, 1000, seed=1)
    with pytest.raises(ValueError, match="lag must be non-negative"):
        estimate_correlation(path, h, h, -1, 10)
    with pytest.raises(ValueError, match="burn-in must be non-negative"):
        estimate_correlation(path, h, h, 1, -5)


def test_estimate_rejects_a_path_off_the_alphabet(k1):
    h = indicator(0, 1, k1.alphabet)
    path = sample_path(k1, 1000, seed=1)
    path[::7] = -1  # evaluate_along would read -1 as the last symbol
    with pytest.raises(ValueError, match="symbol"):
        estimate_correlation(path, h, h, 1, 10)
    path[::7] = 2
    with pytest.raises(ValueError, match="symbol"):
        estimate_correlation(path, h, h, 1, 10)
    with pytest.raises(ValueError, match="symbol"):
        estimate_correlation(sample_path(k1, 1000, seed=1).astype(float), h, h, 1, 10)


def _whole_path_estimate(path, h1, h2, lag, burn_in):
    """Reference estimator: both observables over the whole path, one centred product array."""
    y1 = evaluate_along(path, h1)
    y2 = evaluate_along(path, h2)
    t_max = min(len(y1), len(y2) - lag)
    w1 = y1[burn_in:t_max]
    w2 = y2[burn_in + lag : t_max + lag]
    z = (w1 - w1.mean()) * (w2 - w2.mean())
    usable = (len(z) // sim.BATCH_COUNT) * sim.BATCH_COUNT
    z = z[:usable]
    means = z.reshape(sim.BATCH_COUNT, -1).mean(axis=1)
    se = float(means.std(ddof=1) / np.sqrt(sim.BATCH_COUNT))
    return float(z.mean()), se, usable


def test_estimate_matches_whole_path_formula():
    e = AlphabetSpec.discrete(("a", "b", "c"))
    rng = np.random.default_rng(41)
    kernels = [
        KernelSpec(AlphabetSpec.binary(), 6, _linear_kernel(6, 0.2, seed=5)),
        KernelSpec(e, 2, GeneralTable(_random_rows(rng, 3, 2))),
    ]
    for f in kernels:
        ind = indicator(0, 1, f.alphabet)
        pair = tabulate(Window(0, 1), f.alphabet, lambda c: np.sin(c[0] + 0.3) * (1.7 + c[1]) / 3.0)
        for length in (20011, 45005):
            path = sample_path(f, length, seed=length)
            for h1, h2 in ((ind, ind), (pair, pair), (ind, pair), (pair, ind)):
                for burn_in in (0, 37, 10001):
                    for lag in range(4):
                        est = estimate_correlation(path, h1, h2, lag, burn_in)
                        estimate, se, usable = _whole_path_estimate(path, h1, h2, lag, burn_in)
                        assert (est.lag, est.samples, est.batches) == (lag, usable, sim.BATCH_COUNT)
                        assert est.estimate == pytest.approx(estimate, rel=1e-14, abs=0.0)
                        assert est.standard_error == pytest.approx(se, rel=1e-14, abs=0.0)
                        if h1 is h2 is ind:
                            assert est.standard_error == se


def _slices(u: np.ndarray):
    """A sampler's ``draw``: hands out successive slices of the fixed uniforms ``u``."""
    taken = [0]

    def draw(n: int) -> np.ndarray:
        taken[0] += n
        return u[taken[0] - n : taken[0]]

    return draw


def _linear_kernel(depth: int, intercept: float, seed: int) -> LinearLongMemory:
    """Random coefficients of spread magnitudes, summing with the intercept to below 1."""
    rng = np.random.default_rng(seed)
    raw = rng.random(depth) * 10.0 ** rng.integers(-3, 1, depth)
    coeffs = raw * (0.97 * (1.0 - intercept) / raw.sum())
    return LinearLongMemory(intercept, tuple(float(a) for a in coeffs))


@pytest.mark.parametrize("intercept", [0.0, 0.05, 0.3, 0.6])
@pytest.mark.parametrize("depth", [1, 2, 11, 12, 13, 24, 64])
def test_linear_block_sampler_matches_stepwise(depth, intercept):
    fam = _linear_kernel(depth, intercept, seed=depth)
    f = KernelSpec(AlphabetSpec.binary(), depth, fam)
    rng = np.random.default_rng(100 + depth)
    for seed in (1, 2):
        past = tuple(int(s) for s in rng.integers(0, 2, depth))
        # 4500 sites: four whole draws of 1027 sites (79 blocks of 13) and a partial fifth
        path = sample_path(f, 4500, seed, initial_past=past)
        u = np.random.default_rng(seed).random(4500)
        assert np.array_equal(path, sample_path_stepwise(f, u, past))


@pytest.mark.parametrize("depth", [2, 12, 24])
def test_linear_block_sampler_with_overrides_inside_the_path(depth):
    default = _linear_kernel(depth, 0.1, seed=7)
    # a table family at site 0 must not take the linear default sites off the block sampler
    first = _linear_kernel(depth, 0.0, seed=9)
    if depth == 2:
        first = MarkovTable(1, ((0.3, 0.7), (0.6, 0.4)))
    overrides = (
        (-4, _linear_kernel(depth, 0.6, seed=8)),
        (0, first),
        (5, MarkovTable(2, ((0.1, 0.9), (0.8, 0.2), (0.4, 0.6), (0.5, 0.5)))),
        (13, _linear_kernel(depth, 0.3, seed=10)),
        (14, MarkovTable(0, ((0.0, 1.0),))),
        (999, _linear_kernel(depth, 0.5, seed=11)),
        (5000, MarkovTable(0, ((1.0, 0.0),))),
    )
    f = KernelSpec(AlphabetSpec.binary(), depth, SiteIndexed(default, overrides))
    past = tuple(int(s) for s in np.random.default_rng(depth).integers(0, 2, depth))
    path = sample_path(f, 1000, 4, initial_past=past)
    u = np.random.default_rng(4).random(1000)
    assert np.array_equal(path, sample_path_stepwise(f, u, past))
    assert path[14] == 1


def test_linear_block_sampler_decides_ties_exactly(monkeypatch):
    depth = 24
    fam = _linear_kernel(depth, 0.05, seed=3)
    f = KernelSpec(AlphabetSpec.binary(), depth, fam)
    past = tuple(int(s) for s in np.random.default_rng(5).integers(0, 2, depth))
    # u_t equal to the stepwise P(1) or one ulp below it, alternating
    history = list(past)
    u = []
    for t in range(600):
        p1 = fam.intercept
        for k, a in enumerate(fam.coefficients, start=1):
            p1 += a * history[-k]
        u.append(p1 if t % 2 else float(np.nextafter(p1, -np.inf)))
        history.append(1 if u[-1] < p1 else 0)
    u = np.array(u)
    calls = []
    decide = sim._decide
    monkeypatch.setattr(sim, "_decide", lambda *args: calls.append(args[1]) or decide(*args))
    path = sim._sample_linear(f, _slices(u), len(u), past)
    assert path.tolist() == history[depth:]
    assert np.array_equal(path, sample_path_stepwise(f, u, past))
    assert calls == list(range(600))


def _random_rows(rng: np.random.Generator, n: int, order: int) -> tuple[tuple[float, ...], ...]:
    return tuple(random_distribution(rng, n) for _ in range(n**order))


def test_tabulated_sampler_matches_stepwise(k1, monkeypatch):
    rng = np.random.default_rng(31)
    kernels = [k1]
    for n in (3, 4, 5):
        e = AlphabetSpec.discrete(tuple("abcde"[:n]))
        for depth in range(4):
            order = int(rng.integers(0, depth + 1))
            kernels.append(KernelSpec(e, depth, GeneralTable(_random_rows(rng, n, depth))))
            kernels.append(KernelSpec(e, depth, MarkovTable(order, _random_rows(rng, n, order))))
    e = AlphabetSpec.discrete(("a", "b", "c"))
    # overrides before the path, at its first site, across block boundaries and past its end
    overrides = (
        (-1, GeneralTable(_random_rows(rng, 3, 3))),
        (0, MarkovTable(0, ((0.0, 0.0, 1.0),))),
        (1023, GeneralTable(_random_rows(rng, 3, 3))),
        (1024, MarkovTable(1, _random_rows(rng, 3, 1))),
        (2999, MarkovTable(3, _random_rows(rng, 3, 3))),
        (5000, MarkovTable(0, ((1.0, 0.0, 0.0),))),
    )
    default = MarkovTable(2, _random_rows(rng, 3, 2))
    kernels.append(KernelSpec(e, 3, SiteIndexed(default, overrides)))
    calls = []
    tabulated = sim._sample_tabulated
    monkeypatch.setattr(sim, "_sample_tabulated", lambda *args: calls.append(1) or tabulated(*args))
    for seed, f in enumerate(kernels):
        past = tuple(int(s) for s in rng.integers(0, f.alphabet.size, f.memory_depth))
        path = sample_path(f, 3000, seed, initial_past=past)
        u = np.random.default_rng(seed).random(3000)
        assert np.array_equal(path, sample_path_stepwise(f, u, past)), seed
    assert len(calls) == len(kernels) == 26
    assert path[0] == 2
    # a row total rounded short of 1: a uniform above it takes the last symbol
    short = KernelSpec(e, 0, MarkovTable(0, ((0.25, 0.25, 0.5 - 1e-13),)))
    u = np.array([0.2, 0.4, 1.0 - 2.0**-53])
    assert (
        tabulated(short, _slices(u), len(u), ()).tolist()
        == sample_path_stepwise(short, u, ()).tolist()
        == [0, 1, 2]
    )


@pytest.mark.parametrize("depth", [2, 13])
def test_table_default_with_linear_overrides_matches_stepwise(depth):
    # the default's own rows serve its sites at any declared depth; linear sites take 1 iff u < P(1)
    rows = ((0.2, 0.8), (0.7, 0.3), (0.5, 0.5), (0.9, 0.1))
    linear = _linear_kernel(depth, 0.2, seed=12)
    default = MarkovTable(2, rows)
    for family in (default, SiteIndexed(default, ((3, linear), (40, linear)))):
        f = KernelSpec(AlphabetSpec.binary(), depth, family)
        past = tuple(int(s) for s in np.random.default_rng(6).integers(0, 2, depth))
        path = sample_path(f, 2000, 8, initial_past=past)
        u = np.random.default_rng(8).random(2000)
        assert np.array_equal(path, sample_path_stepwise(f, u, past))


def test_huge_memory_depth_samples_without_the_power():
    spec = KernelSpec(
        AlphabetSpec.discrete(("a", "b", "c")), 3_000_000, MarkovTable(0, ((0.2, 0.3, 0.5),))
    )
    started = time.monotonic()
    path = sample_path(spec, 1000, 1)
    assert time.monotonic() - started < 5.0
    u = np.random.default_rng(1).random(1000)
    assert path.tolist() == [0 if x < 0.2 else 1 if x < 0.5 else 2 for x in u]
