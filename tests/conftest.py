"""Shared fixtures: the three reference kernels, random-kernel factories and test helpers."""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np
import pytest

from lislab import AlphabetSpec, GeneralTable, KernelSpec, MarkovTable, Observable, Window
from lislab.core import check_cap
from lislab.specio import power_law_linear, two_state_markov


def iid_kernel(probabilities, label: str = "") -> KernelSpec:
    """Memoryless kernel on the symbols ``"0"``, ``"1"``, ... with the given law."""
    probs = tuple(float(p) for p in probabilities)
    alphabet = AlphabetSpec.discrete(tuple(str(i) for i in range(len(probs))))
    return KernelSpec(alphabet, 0, MarkovTable(0, (probs,)), label=label)


def enumerate_configs(window: Window, alphabet: AlphabetSpec) -> Iterator[tuple[int, ...]]:
    """Yield every configuration of ``window`` once, in increasing ``config_code`` order."""
    length = window.hi - window.lo + 1  # len() overflows before the cap check past sys.maxsize
    check_cap(alphabet.size, length)
    yield from itertools.product(range(alphabet.size), repeat=length)


def tabulate(
    window: Window, alphabet: AlphabetSpec, fn: Callable[[tuple[int, ...]], float]
) -> Observable:
    """The observable on ``window`` whose value at each configuration is ``fn`` of it."""
    table = tuple(float(fn(cfg)) for cfg in enumerate_configs(window, alphabet))
    return Observable(window, alphabet, table)


def product_observable(h1: Observable, h2: Observable) -> Observable:
    """Pointwise product on the hull of the two supports: the joint-window enumeration reference.

    ``stationary_expectations`` of it, less the product of the two means, is
    the covariance that ``oracle.exact_correlations`` sweeps without a hull.
    """
    if h1.alphabet != h2.alphabet:
        raise ValueError("observables live on different alphabets")
    hull = Window(min(h1.support.lo, h2.support.lo), max(h1.support.hi, h2.support.hi))
    n = h1.alphabet.size
    check_cap(n, hull.hi - hull.lo + 1)  # len() overflows before the cap check past sys.maxsize

    def on_hull(h: Observable) -> np.ndarray:
        # one axis per hull site, of length 1 where h does not depend on the site
        shape = (1,) * (h.support.lo - hull.lo) + (n,) * len(h.support)
        return h.table.reshape(shape + (1,) * (hull.hi - h.support.hi))

    product = np.broadcast_to(on_hull(h1) * on_hull(h2), (n,) * len(hull))
    return Observable(hull, h1.alphabet, product.reshape(-1))


@pytest.fixture(scope="session")
def k1() -> KernelSpec:
    """Two-state chain, P(1|0) = 0.3, P(1|1) = 0.7."""
    return two_state_markov(0.3, 0.7, label="K1")


@pytest.fixture(scope="session")
def k2() -> KernelSpec:
    """Depth-4 linear long-memory kernel with power-law lags (eps = 0.5).

    Normalised by the partial sum, so the coefficients add to exactly
    1 - eps = 0.5 and the all-ones past gives P(1) = 0.5.
    """
    return power_law_linear(0.5, 4, normalization="partial", label="K2")


@pytest.fixture(scope="session")
def k3() -> KernelSpec:
    """Fair i.i.d. coin."""
    return iid_kernel((0.5, 0.5), label="K3")


def random_table_kernel(
    rng: np.random.Generator,
    n_symbols: int | None = None,
    depth: int | None = None,
    floor: float = 0.05,
    label: str = "",
) -> KernelSpec:
    """Random full-table kernel with a probability floor on every entry."""
    n = int(rng.integers(2, 4)) if n_symbols is None else n_symbols
    r = int(rng.integers(0, 3)) if depth is None else depth
    rows = []
    for _ in range(n**r):
        w = floor + rng.random(n)
        w = w / w.sum()
        rows.append(tuple(float(x) for x in w))
    alphabet = AlphabetSpec.discrete(tuple(str(i) for i in range(n)))
    return KernelSpec(alphabet, r, GeneralTable(tuple(rows)), label=label)


def random_distribution(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    w = rng.random(n) + 1e-3
    w = w / w.sum()
    return tuple(float(x) for x in w)


def per_call_columns(alpha, oscs, hi: int, floor: int) -> np.ndarray:
    """``bounds._columns`` swept afresh from the top of ``oscs`` on every call, with no store.

    The sweep the stored columns replaced, kept as their reference: ``G``
    at the sites ``top .. floor``, ``top`` the highest of ``hi`` and every
    oscillation site, cut to the sites ``hi .. floor``.
    """
    top = max(hi, *(max(osc) for osc in oscs))
    depth = alpha.depth
    g = np.zeros((len(oscs), depth + top - floor + 1))
    for row, osc in zip(g, oscs):
        for site, w in osc.items():
            if floor <= site <= top:
                row[depth + top - site] = w
    if not depth:
        return g[:, top - hi :]
    stationary = np.array(alpha.stationary_row)
    overrides = {
        depth + top - k: np.array([alpha.entry(k + lag, k) for lag in range(1, depth + 1)])
        for k in {k for site, _ in alpha.site_rows for k in range(site - depth, site)}
        if floor <= k <= top
    }
    for i in range(depth, g.shape[1]):
        terms = g[:, i - depth : i][:, ::-1] * overrides.get(i, stationary)  # lag 1 first
        g[:, i] += np.cumsum(terms, axis=1)[:, -1]
    return g[:, depth + top - hi :]
