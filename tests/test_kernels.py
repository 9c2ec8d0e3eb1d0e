"""Kernel families, window composition, marginals, and consistency."""

import importlib
import inspect
import itertools
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislab import (
    AlphabetSpec,
    CapExceededError,
    GeneralTable,
    KernelSpec,
    LinearLongMemory,
    MarkovTable,
    SiteIndexed,
    Window,
    compose_window,
    constant_observable,
    eval_singleton,
    indicator,
    kernel_average_observable,
    marginal_distribution,
    sample_path,
    verify_consistency,
)
import lislab
from lislab.analysis import build_sensitivity_matrix, variation
from lislab.core import random_observable
from lislab.kernels import family_row
from lislab.specio import power_law_linear, two_state_markov

from conftest import random_table_kernel


def test_eval_singleton_markov_lookup(k1):
    assert eval_singleton(k1, 0, [1]).weights == pytest.approx((0.3, 0.7))
    assert eval_singleton(k1, 7, [0]).weights == pytest.approx((0.7, 0.3))


def test_eval_singleton_iid(k3):
    assert eval_singleton(k3, 0, []).weights.tolist() == [0.5, 0.5]


def test_eval_singleton_linear_all_ones(k2):
    # coefficients sum to 1 - eps = 0.5 by construction
    assert eval_singleton(k2, 0, [1, 1, 1, 1]).weights == pytest.approx((0.5, 0.5))
    assert eval_singleton(k2, 0, [0, 0, 0, 0]).weights == pytest.approx((1.0, 0.0))


def test_eval_singleton_rejects_bad_input(k1):
    with pytest.raises(ValueError, match="length"):
        eval_singleton(k1, 0, [1, 0])
    with pytest.raises(ValueError, match="symbol"):
        eval_singleton(k1, 0, [3])


def _random_past_kernel(kind: str, seed: int) -> KernelSpec:
    """A table, linear or site-indexed kernel of depth 1 to 3, for the past-rule tests."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 4))
    if kind == "linear":
        a = rng.random(depth) * rng.random() / depth
        fam = LinearLongMemory(float(rng.random() * (1.0 - a.sum())), tuple(a.tolist()))
        return KernelSpec(AlphabetSpec.binary(), depth, fam)
    table = random_table_kernel(rng, depth=depth)
    if kind == "table":
        return table
    override = random_table_kernel(rng, table.alphabet.size, depth).family
    return KernelSpec(table.alphabet, depth, SiteIndexed(table.family, ((0, override),)))


def _past_readers(f: KernelSpec, past) -> list:
    """The four readers of a past, each a call giving plain Python values."""
    h = indicator(1, 1, f.alphabet)
    return [
        lambda: eval_singleton(f, 0, past).weights.tolist(),
        lambda: marginal_distribution(f, Window(0, 1), past).weights.tolist(),
        lambda: compose_window(f, Window(0, 1), past, h),
        lambda: sample_path(f, 40, 3, initial_past=past).tolist(),
    ]


@given(
    kind=st.sampled_from(["table", "linear", "site-indexed"]),
    seed=st.integers(0, 10**6),
    bad=st.sampled_from([-1, "|E|", 1.5, 1.0, math.nan, math.inf, np.float64(1.0)]),
    position=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_every_past_reader_refuses_a_bad_symbol(kind, seed, bad, position):
    f = _random_past_kernel(kind, seed)
    past = np.random.default_rng(seed).integers(0, f.alphabet.size, f.memory_depth).tolist()
    past[position % len(past)] = f.alphabet.size if bad == "|E|" else bad
    for read in _past_readers(f, past):
        with pytest.raises(ValueError, match="symbol"):
            read()


@given(kind=st.sampled_from(["table", "linear", "site-indexed"]), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_every_past_reader_reads_lists_tuples_and_integer_arrays_alike(kind, seed):
    f = _random_past_kernel(kind, seed)
    past = np.random.default_rng(seed).integers(0, f.alphabet.size, f.memory_depth).tolist()
    expected = [read() for read in _past_readers(f, past)]
    for same in (tuple(past), np.array(past, dtype=np.int8), np.array(past, dtype=np.int64)):
        assert [read() for read in _past_readers(f, same)] == expected


def test_kernel_validation():
    e = AlphabetSpec.binary()
    with pytest.raises(ValueError, match="sums to"):
        KernelSpec(e, 1, MarkovTable(1, ((0.5, 0.6), (0.3, 0.7))))
    # the same table is accepted unchecked, for negative controls
    KernelSpec(e, 1, MarkovTable(1, ((0.5, 0.6), (0.3, 0.7))), check=False)
    with pytest.raises(ValueError, match="rows"):
        KernelSpec(e, 1, MarkovTable(1, ((0.5, 0.5),)))
    with pytest.raises(ValueError, match="binary"):
        KernelSpec(AlphabetSpec.discrete(("a", "b", "c")), 1, LinearLongMemory(0.0, (0.5,)))
    with pytest.raises(ValueError, match="mass"):
        KernelSpec(e, 1, LinearLongMemory(0.6, (0.5,)))


def test_compose_window_markov_example(k1):
    h = indicator(1, 1, k1.alphabet)
    assert compose_window(k1, Window(0, 1), [1], h) == pytest.approx(0.58, abs=1e-15)


def test_compose_window_normalization(k1, k2, k3):
    for f in (k1, k2, k3):
        one = constant_observable(Window(0, 2), f.alphabet, 1.0)
        past = [1] * max(f.memory_depth, 1)
        assert compose_window(f, Window(0, 2), past, one) == pytest.approx(1.0, abs=1e-12)


def test_compose_window_iid_marginal(k3):
    h = indicator(2, 1, k3.alphabet)
    assert compose_window(k3, Window(0, 2), [], h) == pytest.approx(0.5, abs=1e-15)


def test_compose_window_rejects_right_overhang(k1):
    h = indicator(3, 1, k1.alphabet)
    with pytest.raises(ValueError, match="right of the window"):
        compose_window(k1, Window(0, 1), [1], h)


def test_compose_window_requires_deep_past(k1):
    # support reaches 2 sites left of the window: past of length 1 is short
    h = random_observable(Window(-2, 0), k1.alphabet, np.random.default_rng(0))
    with pytest.raises(ValueError, match="need at least"):
        compose_window(k1, Window(0, 1), [1], h)
    compose_window(k1, Window(0, 1), [0, 1], h)


def test_compose_window_cap(k1):
    h = indicator(20, 1, k1.alphabet)
    with pytest.raises(CapExceededError):
        compose_window(k1, Window(0, 20), [1], h)


def test_marginal_distribution_examples(k1, k3):
    assert marginal_distribution(k1, Window(0, 0), [0]).weights == pytest.approx((0.7, 0.3))
    assert marginal_distribution(k3, Window(0, 1), []).weights == pytest.approx((0.25,) * 4)
    w = marginal_distribution(k1, Window(0, 1), [1]).weights
    assert w == pytest.approx((0.3 * 0.7, 0.3 * 0.3, 0.7 * 0.3, 0.7 * 0.7))


def test_measurability_only_declared_depth_matters(k1, k2):
    # symbols older than the declared depth must not change the average
    for f in (k1, k2):
        h = indicator(1, 1, f.alphabet)
        base = [1] * (f.memory_depth + 4)
        other = [0, 1, 0, 1] + base[4:]
        assert compose_window(f, Window(0, 1), base, h) == pytest.approx(
            compose_window(f, Window(0, 1), other, h), abs=1e-15
        )


def test_kernel_average_observable_support(k1):
    h = indicator(1, 1, k1.alphabet)
    g = kernel_average_observable(k1, Window(0, 1), h)
    assert g.support == Window(-1, -1)
    assert g.table == pytest.approx((0.42, 0.58))


def test_verify_consistency_reference_kernels(k1, k2, k3):
    for f in (k1, k2, k3):
        rep = verify_consistency(f, Window(0, 3), Window(1, 2), trials=100, seed=5)
        assert rep.passed, f"{f.label}: residual {rep.max_residual}"
        assert rep.max_residual <= 1e-12


def test_verify_consistency_negative_control():
    e = AlphabetSpec.binary()
    broken = KernelSpec(e, 1, MarkovTable(1, ((0.6, 0.6), (0.3, 0.7))), check=False)
    rep = verify_consistency(broken, Window(0, 2), Window(1, 1), trials=50, seed=2)
    assert not rep.passed
    assert rep.max_residual > 1e-6


def test_verify_consistency_requires_nesting(k1):
    with pytest.raises(ValueError, match="contained"):
        verify_consistency(k1, Window(0, 1), Window(0, 2))


def test_site_indexed_dispatch():
    e = AlphabetSpec.binary()
    default = MarkovTable(1, ((0.7, 0.3), (0.3, 0.7)))
    override = MarkovTable(1, ((0.5, 0.5), (0.5, 0.5)))
    f = KernelSpec(e, 1, SiteIndexed(default, ((2, override),)))
    assert not f.stationary
    assert eval_singleton(f, 2, [1]).weights.tolist() == [0.5, 0.5]
    assert eval_singleton(f, 3, [1]).weights == pytest.approx((0.3, 0.7))
    rep = verify_consistency(f, Window(0, 3), Window(1, 2), trials=60, seed=9)
    assert rep.passed


@pytest.mark.parametrize("site", [1.5, math.nan, "1", None], ids=repr)
def test_site_lookups_refuse_non_integer_sites(site):
    # a float site once fell through to the default family instead of raising
    e = AlphabetSpec.binary()
    default = MarkovTable(1, ((0.9, 0.1), (0.9, 0.1)))
    f = KernelSpec(e, 1, SiteIndexed(default, ((1, MarkovTable(1, ((0.5, 0.5),) * 2)),)))
    with pytest.raises(ValueError, match="a site must be an integer"):
        eval_singleton(f, site, [0])
    with pytest.raises(ValueError, match="a site must be an integer"):
        f.table_at(site)
    assert eval_singleton(f, np.int64(1), [0]).weights.tolist() == [0.5, 0.5]
    assert f.table_at(np.int64(1)) is f.table_at(1)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_factorization_property(seed):
    rng = np.random.default_rng(seed)
    f = random_table_kernel(rng)
    hi = int(rng.integers(1, 4))
    split = int(rng.integers(0, hi))
    h = random_observable(Window(int(rng.integers(0, hi + 1)), hi), f.alphabet, rng)
    right = kernel_average_observable(f, Window(split + 1, hi), h)
    past = tuple(int(s) for s in rng.integers(0, f.alphabet.size, max(f.memory_depth, 1)))
    lhs = compose_window(f, Window(0, hi), past, h)
    rhs = compose_window(f, Window(0, split), past, right)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_normalization_property(seed):
    rng = np.random.default_rng(seed)
    f = random_table_kernel(rng)
    length = int(rng.integers(1, 4))
    one = constant_observable(Window(0, length - 1), f.alphabet, 1.0)
    past = tuple(int(s) for s in rng.integers(0, f.alphabet.size, max(f.memory_depth, 1)))
    assert compose_window(f, Window(0, length - 1), past, one) == pytest.approx(1.0, abs=1e-12)


def test_general_table_roundtrip():
    e = AlphabetSpec.binary()
    rows = tuple(
        (p, 1.0 - p) for p in (0.1, 0.2, 0.3, 0.4)
    )
    f = KernelSpec(e, 2, GeneralTable(rows))
    assert eval_singleton(f, 0, [0, 1]).weights.tolist() == [0.2, 0.8]
    assert eval_singleton(f, 0, [1, 1]).weights.tolist() == [0.4, 0.6]


# --- dense tables owned by the spec ------------------------------------------

def test_table_at_is_built_once_and_read_only():
    f = two_state_markov(0.3, 0.7)
    table = f.table_at(0)
    assert f.table_at(7) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.5
    assert table.tolist() == [list(row) for row in f.family.rows]


def test_table_at_is_not_shared_between_equal_specs():
    f = two_state_markov(0.3, 0.7)
    g = two_state_markov(0.3, 0.7)
    table = f.table_at(0)
    # the tables sit outside the dataclass fields
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert g.table_at(0) is not table
    assert np.array_equal(g.table_at(0), table)


def test_table_at_rows_match_family_row():
    e = AlphabetSpec.discrete(("a", "b", "c"))
    rng = np.random.default_rng(3)
    rows = [tuple(float(x) for x in w / w.sum()) for w in rng.random((9, 3)) + 0.1]
    default = MarkovTable(1, tuple(rows[:3]))
    override = GeneralTable(tuple(rows))
    f = KernelSpec(e, 2, SiteIndexed(default, ((4, override),)))
    assert f.family_at(4) is override and f.family_at(3) is default
    assert f.table_at(3) is f.table_at(-10)
    assert f.table_at(4) is not f.table_at(3)
    for site in (3, 4):
        for code, past in enumerate(itertools.product(range(3), repeat=2)):
            assert tuple(f.table_at(site)[code]) == family_row(f.family_at(site), e, past)
    lin = power_law_linear(0.5, 3)
    for code, past in enumerate(itertools.product(range(2), repeat=3)):
        assert tuple(lin.table_at(0)[code]) == family_row(lin.family, lin.alphabet, past)


def test_deep_linear_kernel_keeps_its_closed_forms():
    f = power_law_linear(0.5, 64)
    with pytest.raises(CapExceededError):
        f.table_at(0)  # 2**64 pasts
    assert build_sensitivity_matrix(f).stationary_row == f.family.coefficients
    assert variation(f, 0, -1) == pytest.approx(sum(f.family.coefficients[1:]))


def test_no_process_wide_caches():
    for info in pkgutil.iter_modules(lislab.__path__, "lislab."):
        module = importlib.import_module(info.name)
        cached = [
            name
            for name, value in vars(module).items()
            if callable(value) and hasattr(value, "cache_clear")
        ]
        assert cached == [], info.name


def test_no_function_takes_a_cap():
    # every enumeration reads the one DEFAULT_CONFIG_CAP that reports state
    for info in pkgutil.iter_modules(lislab.__path__, "lislab."):
        members = list(vars(importlib.import_module(info.name)).values())
        for cls in [v for v in members if inspect.isclass(v)]:
            members.extend(getattr(cls, name) for name in vars(cls))
        for fn in members:
            if inspect.isfunction(fn) and fn.__module__.startswith("lislab"):
                assert "cap" not in inspect.signature(fn).parameters, fn.__qualname__


def test_verify_consistency_nan_residual_fails(k1, monkeypatch):
    import lislab.oracle

    monkeypatch.setattr(lislab.oracle, "compose_window", lambda *a, **k: float("nan"))
    rep = verify_consistency(k1, Window(0, 2), Window(1, 1), trials=5)
    assert np.isnan(rep.max_residual)
    assert not rep.passed
