"""Alphabets, windows, enumeration, and oscillations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lislab import (
    AlphabetSpec,
    CapExceededError,
    FiniteDistribution,
    Observable,
    Window,
    constant_observable,
    indicator,
    oscillation,
)

from conftest import enumerate_configs, tabulate


def test_discrete_alphabet_basics():
    e = AlphabetSpec.discrete(("a", "b", "c"))
    assert e.size == 3
    assert e.diameter == 1.0
    assert e.distance(0, 1) == 1.0
    assert e.distance(2, 2) == 0.0
    assert e.index_of("c") == 2
    with pytest.raises(ValueError):
        e.index_of("z")


def test_symbol_pairs_are_built_once_and_read_only():
    e = AlphabetSpec(("x", "y", "z"), ((0.0, 1.0, 2.0), (1.0, 0.0, 1.5), (2.0, 1.5, 0.0)))
    a, b, dist = e.symbol_pairs
    triples = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.5)]
    assert list(zip(a.tolist(), b.tolist(), dist.tolist())) == triples
    assert all(not array.flags.writeable for array in (a, b, dist))
    assert e.symbol_pairs is e.symbol_pairs
    assert e == AlphabetSpec(e.symbols, e.metric)  # the cached pairs are not a field


def test_alphabet_rejects_broken_triangle():
    # d(0,2) = 5 > d(0,1) + d(1,2) = 2
    metric = ((0.0, 1.0, 5.0), (1.0, 0.0, 1.0), (5.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="triangle"):
        AlphabetSpec(("x", "y", "z"), metric)


def test_alphabet_rejects_bad_tables():
    with pytest.raises(ValueError):
        AlphabetSpec(("a",), ((0.0,),))  # too small
    with pytest.raises(ValueError, match="symmetric"):
        AlphabetSpec(("a", "b"), ((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(ValueError, match="diagonal"):
        AlphabetSpec(("a", "b"), ((1.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="positive"):
        AlphabetSpec(("a", "b"), ((0.0, 0.0), (0.0, 0.0)))


def test_window_and_past():
    w = Window(-2, 1)
    assert len(w) == 4
    assert list(w.sites()) == [-2, -1, 0, 1]
    assert w.contains(0) and not w.contains(2)
    with pytest.raises(ValueError):
        Window(3, 1)


@pytest.mark.parametrize("lo, hi", [(1.5, 1.5), (math.nan, math.nan), (0, 2.0), (None, 1)])
def test_window_refuses_non_integer_bounds(lo, hi):
    with pytest.raises(ValueError, match="must be an integer"):
        Window(lo, hi)


def test_window_reads_numpy_integer_bounds():
    w = Window(np.int64(-1), np.int8(2))
    assert w == Window(-1, 2)
    assert type(w.lo) is int and type(w.hi) is int


def test_enumerate_configs_order_and_count():
    e = AlphabetSpec.binary()
    configs = list(enumerate_configs(Window(0, 1), e))
    assert configs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    e3 = AlphabetSpec.discrete(("a", "b", "c"))
    assert list(enumerate_configs(Window(3, 3), e3)) == [(0,), (1,), (2,)]
    assert len(set(enumerate_configs(Window(0, 2), e3))) == 27


def test_enumerate_configs_cap():
    e = AlphabetSpec.binary()
    with pytest.raises(CapExceededError, match="2097152"):
        list(enumerate_configs(Window(0, 20), e))


def test_finite_distribution_invariants():
    FiniteDistribution((0.25, 0.75))
    with pytest.raises(ValueError):
        FiniteDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        FiniteDistribution((-0.1, 1.1))


@pytest.mark.parametrize("weights", [(math.nan, math.nan), (0.5, math.nan), (math.inf, 0.0)])
def test_finite_distribution_rejects_non_finite(weights):
    # NaN fails every comparison, so neither the sign nor the sum test saw it
    for convert in (tuple, list, np.array):
        with pytest.raises(ValueError, match="finite"):
            FiniteDistribution(convert(weights))


@pytest.mark.parametrize("convert", [tuple, list, np.array])
def test_tables_are_read_only_and_take_any_sequence(convert):
    e = AlphabetSpec.binary()
    law = FiniteDistribution(convert((0.25, 0.75)))
    h = Observable(Window(0, 0), e, convert((0.5, -2.0)))
    assert law.weights.tolist() == [0.25, 0.75]
    assert h.table.tolist() == [0.5, -2.0]
    for table in (law.weights, h.table, h.oscillations):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    # an array argument is copied, so the caller's array stays writable and unaliased
    values = np.array([0.5, -2.0])
    g = Observable(Window(0, 0), e, values)
    values[0] = 1.0
    assert g.table.tolist() == [0.5, -2.0]


@pytest.mark.parametrize("values", [((0.5, 0.5), (0.5, 0.5)), ("0.5", "0.5"), 0.5])
def test_tables_reject_what_is_not_a_flat_sequence_of_reals(values):
    with pytest.raises(TypeError):
        FiniteDistribution(values)
    with pytest.raises(TypeError):
        Observable(Window(0, 0), AlphabetSpec.binary(), values)


def test_oscillation_single_site_indicator():
    e = AlphabetSpec.binary()
    h = indicator(0, 1, e)
    assert oscillation(h, 0) == 1.0
    assert oscillation(h, 5) == 0.0


def test_oscillation_constant_is_zero():
    e = AlphabetSpec.binary()
    h = constant_observable(Window(0, 2), e, 3.7)
    for j in range(-1, 4):
        assert oscillation(h, j) == 0.0


def test_oscillation_product_function():
    e = AlphabetSpec.binary()
    h = tabulate(Window(0, 1), e, lambda cfg: float(cfg[0] * cfg[1]))
    assert oscillation(h, 0) == 1.0  # attained with the other site at 1
    assert oscillation(h, 1) == 1.0


def test_oscillation_respects_metric_scale():
    e = AlphabetSpec(("0", "1"), ((0.0, 2.0), (2.0, 0.0)))
    h = indicator(0, 1, e)
    assert oscillation(h, 0) == pytest.approx(0.5)


def test_observable_table_size_checked():
    e = AlphabetSpec.binary()
    with pytest.raises(ValueError, match="entries"):
        Observable(Window(0, 1), e, (1.0, 2.0))


@pytest.mark.parametrize("table", [(math.nan, 1.0), (0.0, -math.inf)])
def test_observable_rejects_non_finite(table):
    # a NaN value read as oscillation 0 and made every bound on it 0
    for convert in (tuple, list, np.array):
        with pytest.raises(ValueError, match="finite"):
            Observable(Window(0, 0), AlphabetSpec.binary(), convert(table))


@given(
    values=st.lists(st.floats(0, 1), min_size=4, max_size=4),
    j=st.integers(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_oscillation_zero_iff_coordinate_free(values, j):
    e = AlphabetSpec.binary()
    h = Observable(Window(0, 1), e, tuple(values))
    osc = oscillation(h, j)
    assert osc >= 0.0
    arr = np.array(values).reshape(2, 2)
    moved = np.moveaxis(arr, j, -1)
    depends = bool(np.any(moved[..., 0] != moved[..., 1]))
    assert (osc > 0.0) == depends
