"""Alphabets, site windows, configurations, distributions, and observables.

Everything downstream (kernel composition, sensitivity analysis, decay
bounds) works over a finite alphabet carrying a bounded metric and over
finite windows of sites, so every supremum in the theory collapses to an
exact finite maximum.  The enumeration cap keeps those maxima at desk
scale and makes cap violations loud instead of slow.

Conventions used throughout the package:

* symbols are handled as integer indices into ``AlphabetSpec.symbols``;
* a configuration of a window is a tuple of symbol indices, ordered left
  to right, and its integer code is the big-endian base-``|E|`` number of
  that tuple (leftmost site most significant);
* value tables list configurations in increasing ``config_code`` order,
  which is exactly lexicographic symbol order.  This order is part of the
  contract: reports built from it are reproducible bit for bit;
* distribution weights and observable tables are read-only float64 arrays
  in code order; an observable's oscillations are computed once per table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: Default ceiling on the number of configurations any single window may
#: enumerate (2**12, i.e. 12 binary sites).
DEFAULT_CONFIG_CAP = 4096

#: Ceiling on the total work (pasts x window configurations) of a
#: vectorised sweep; guards tabulation loops rather than single windows.
WORK_CAP = 1 << 22

#: Probability vectors must normalise this tightly.
SUM_TOL = 1e-12

#: Default absolute tolerance for scalar comparisons.
ABS_TOL = 1e-9


class CapExceededError(ValueError):
    """An enumeration would exceed the configured cap."""


def exceeds_cap(n_symbols: int, length: int, limit: int) -> bool:
    """Whether ``n_symbols**length > limit``, without forming a huge power."""
    # with two or more symbols the power passes limit once length passes its bit length
    return n_symbols > 1 and (length > limit.bit_length() or n_symbols**length > limit)


def check_cap(n_symbols: int, length: int) -> int:
    """Return ``n_symbols**length`` or raise if it exceeds ``DEFAULT_CONFIG_CAP``."""
    if exceeds_cap(n_symbols, length, DEFAULT_CONFIG_CAP):
        # the power is written out only while it is short (at most 78 digits)
        size = f" = {n_symbols**length}" if length <= 64 else ""
        raise CapExceededError(
            f"{n_symbols}**{length}{size} configurations exceeds the cap of {DEFAULT_CONFIG_CAP}"
        )
    return n_symbols**length


def worse(x: float, than: float) -> bool:
    """Whether residual ``x`` is worse (larger) than ``than``; NaN is worse than any number.

    Residual folds and tolerance tests go through this, so that a NaN
    residual fails its check: ``max`` and ``<`` both drop NaN silently.
    """
    return x > than or (x != x and than == than)


@dataclass(frozen=True)
class AlphabetSpec:
    """Finite symbol set with a bounded metric on symbols.

    ``metric[a][b]`` is the distance between the symbols with indices
    ``a`` and ``b``.  The table must be symmetric, zero exactly on the
    diagonal, strictly positive off it, and satisfy the triangle
    inequality on all triples.
    """

    symbols: tuple[str, ...]
    metric: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.symbols)
        if not 2 <= n <= 16:
            raise ValueError(f"alphabet size must be in 2..16, got {n}")
        if len(set(self.symbols)) != n:
            raise ValueError("alphabet symbols must be distinct")
        if len(self.metric) != n or any(len(row) != n for row in self.metric):
            raise ValueError("metric table must be square of alphabet size")
        d = self.metric
        for a in range(n):
            if d[a][a] != 0.0:
                raise ValueError(f"metric diagonal must vanish, d({a},{a}) = {d[a][a]}")
            for b in range(n):
                if not np.isfinite(d[a][b]):
                    raise ValueError("metric entries must be finite")
                if a != b and d[a][b] <= 0.0:
                    raise ValueError(f"metric must be positive off-diagonal, d({a},{b}) = {d[a][b]}")
                if d[a][b] != d[b][a]:
                    raise ValueError(f"metric must be symmetric, d({a},{b}) != d({b},{a})")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if d[a][b] > d[a][c] + d[c][b] + 1e-15:
                        raise ValueError(
                            f"metric violates the triangle inequality on ({a},{b},{c})"
                        )

    @staticmethod
    def discrete(symbols: Sequence[str]) -> "AlphabetSpec":
        """Canonical default: distance 1 between any two distinct symbols."""
        n = len(symbols)
        metric = tuple(
            tuple(0.0 if a == b else 1.0 for b in range(n)) for a in range(n)
        )
        return AlphabetSpec(tuple(symbols), metric)

    @staticmethod
    def binary() -> "AlphabetSpec":
        return AlphabetSpec.discrete(("0", "1"))

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def diameter(self) -> float:
        return max(max(row) for row in self.metric)

    def distance(self, a: int, b: int) -> float:
        return self.metric[a][b]

    def metric_array(self) -> np.ndarray:
        return np.asarray(self.metric, dtype=float)

    @cached_property
    def symbol_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(a, b, d)``: every symbol pair ``a < b`` and its distance ``d(a, b)``."""
        a, b = np.triu_indices(self.size, k=1)
        pairs = (a, b, self.metric_array()[a, b])
        for array in pairs:
            array.setflags(write=False)
        return pairs

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None


def site_index(site: int) -> int:
    """``site`` as a Python int by ``operator.index`` (numpy integers too); else ``ValueError``."""
    try:
        return operator.index(site)
    except TypeError:
        raise ValueError(f"a site must be an integer, got {site!r}") from None


@dataclass(frozen=True, order=True)
class Window:
    """Finite integer interval of sites ``[lo, hi]``, both bounds read by ``site_index``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", site_index(self.lo))
        object.__setattr__(self, "hi", site_index(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"window requires lo <= hi, got [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def sites(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, j: int) -> bool:
        return self.lo <= j <= self.hi

    def contains_window(self, other: "Window") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def shifted(self, offset: int) -> "Window":
        return Window(self.lo + offset, self.hi + offset)


def config_code(config: Sequence[int], n_symbols: int) -> int:
    """Big-endian integer code of a configuration tuple."""
    code = 0
    for s in config:
        code = code * n_symbols + int(s)
    return code


def _read_only_floats(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """A read-only float64 copy of a flat sequence of reals."""
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.dtype.kind in "SUc":
        raise TypeError("values must be a flat sequence of real numbers")
    table = raw.astype(float)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability weights over alphabet symbols or window configurations (read-only array)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = _read_only_floats(self.weights)
        object.__setattr__(self, "weights", weights)
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ValueError("distribution weights must be finite and non-negative")
        total = sum(weights.tolist())  # left to right; numpy's pairwise sum can differ
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"distribution weights sum to {total!r}, expected 1")


@dataclass(frozen=True, eq=False)
class Observable:
    """Local function on a finite window, stored as a value table.

    ``table[code]`` is the value at the configuration with that code; the
    table is a read-only float64 array, and any sequence is converted once.
    """

    support: Window
    alphabet: AlphabetSpec
    table: np.ndarray

    def __post_init__(self) -> None:
        table = _read_only_floats(self.table)
        object.__setattr__(self, "table", table)
        expected = self.alphabet.size ** len(self.support)
        if len(table) != expected:
            raise ValueError(f"observable table has {len(table)} entries, expected {expected}")
        if not np.isfinite(table).all():
            raise ValueError("observable values must be finite")

    @cached_property
    def oscillations(self) -> np.ndarray:
        """Read-only oscillation at each support site, left to right (see ``oscillation``)."""
        axes = range(len(self.support))
        out = np.array([axis_oscillation(self.table, self.alphabet, axis) for axis in axes])
        out.setflags(write=False)
        return out


def axis_oscillation(table: np.ndarray, alphabet: AlphabetSpec, axis: int) -> float:
    """Oscillation at the ``axis``-th site of a value table in code order (see ``oscillation``)."""
    n = alphabet.size
    a, b, dist = alphabet.symbol_pairs
    # axis 1 is the site's symbol; the sites left and right of it run on axes 0 and 2
    t = table.reshape(n**axis, n, -1)
    gaps = np.abs(t[:, a] - t[:, b]).max(axis=(0, 2))  # each symbol pair's largest gap
    return float((gaps / dist).max())


def oscillation(h: Observable, j: int) -> float:
    """Worst change of ``h`` per unit metric distance at site ``j``.

    Exhaustive maximum over configuration pairs equal off ``j``; sites
    outside the support contribute 0 by definition (and 0/0 counts as 0,
    which never arises since the metric is positive off-diagonal).  The
    oscillations of every support site are computed once per observable.
    """
    if not h.support.contains(j):
        return 0.0
    return float(h.oscillations[j - h.support.lo])


def oscillation_vector(h: Observable) -> dict[int, float]:
    """Oscillations of ``h`` at every site of its support (zeros dropped)."""
    return {k: v for k, v in zip(h.support.sites(), h.oscillations.tolist()) if v > 0.0}


def constant_observable(window: Window, alphabet: AlphabetSpec, value: float) -> Observable:
    size = alphabet.size ** len(window)
    return Observable(window, alphabet, (float(value),) * size)


def indicator(site: int, symbol: int, alphabet: AlphabetSpec) -> Observable:
    """Indicator of the event ``sigma_site == symbol``."""
    if not 0 <= symbol < alphabet.size:
        raise ValueError(f"symbol index {symbol} outside the alphabet")
    table = tuple(1.0 if x == symbol else 0.0 for x in range(alphabet.size))
    return Observable(Window(site, site), alphabet, table)


def random_observable(
    window: Window, alphabet: AlphabetSpec, rng: np.random.Generator
) -> Observable:
    """Value table drawn i.i.d. uniform on [0, 1)."""
    size = check_cap(alphabet.size, len(window))
    return Observable(window, alphabet, rng.random(size))


def shift_observable(h: Observable, offset: int) -> Observable:
    return Observable(h.support.shifted(offset), h.alphabet, h.table)
