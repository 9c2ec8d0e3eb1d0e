"""Single-site transition kernels and their exact interval composition.

A kernel specification declares a memory depth ``R`` and one of four
families of conditional laws for the symbol at a site given the ``R``
preceding symbols.  The spec owns the dense conditional table of each of
its families: ``KernelSpec.table_at(site)`` builds the read-only
``(|E|**R, |E|)`` array of the site's family on first use, keeps it for
the life of the spec, and is where every criterion, bound and oracle
reads conditional laws.  Interval kernels are products of singletons
swept left to right; composition against an observable is an exact
enumeration over the window, vectorised over pasts so that tabulating a
kernel average over every relevant past costs about as much as one
evaluation.  One rule reads a past (``_read_past``): a composition needs
the memory depth or the observable's overhang left of the window,
whichever is longer, and codes only those last symbols, so a past of any
length gives the value of its tail.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    SUM_TOL,
    WORK_CAP,
    AlphabetSpec,
    CapExceededError,
    FiniteDistribution,
    Observable,
    Window,
    check_cap,
    config_code,
    exceeds_cap,
    site_index,
)

#: Largest conditional table that may be materialised as a dense array.
TABLE_CAP = 1 << 20


@dataclass(frozen=True)
class MarkovTable:
    """Conditional law depending on the last ``order`` symbols only.

    ``rows[p]`` is the distribution of the next symbol given the past
    whose lexicographic code is ``p`` (over the ``order`` trailing sites,
    oldest first).  ``order`` may be smaller than the declared memory
    depth of the enclosing spec.
    """

    order: int
    rows: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class GeneralTable:
    """Full conditional table over every depth-``R`` past."""

    rows: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class LinearLongMemory:
    """Binary kernel, affine in each past coordinate.

    ``P(1 | past) = intercept + sum_k coefficients[k-1] * past[-k]`` where
    ``past[-k]`` is the symbol ``k`` sites back.  ``coefficient_tail``
    records the mass of any discarded coefficients beyond the depth when
    the family is a truncation of an infinite sequence; it is reported,
    never renormalised away, so criterion sums match the truncated object.
    """

    intercept: float
    coefficients: tuple[float, ...]
    coefficient_tail: float = 0.0


@dataclass(frozen=True)
class SiteIndexed:
    """Finite list of per-site overrides over a stationary default."""

    default: Union[MarkovTable, GeneralTable, LinearLongMemory]
    overrides: tuple[tuple[int, Union[MarkovTable, GeneralTable, LinearLongMemory]], ...]


Family = Union[MarkovTable, GeneralTable, LinearLongMemory, SiteIndexed]
SingleFamily = Union[MarkovTable, GeneralTable, LinearLongMemory]


def family_order(family: SingleFamily) -> int:
    """Number of trailing past sites the family actually reads."""
    if isinstance(family, MarkovTable):
        return family.order
    if isinstance(family, GeneralTable):
        rows = len(family.rows)
        return 0 if rows == 1 else int(round(math.log(rows, len(family.rows[0]))))
    return len(family.coefficients)


def _validate_single(family: SingleFamily, alphabet: AlphabetSpec, depth: int, check: bool) -> None:
    if isinstance(family, SiteIndexed):
        raise ValueError("site-indexed families cannot be nested")
    n = alphabet.size
    if isinstance(family, LinearLongMemory):
        if n != 2:
            raise ValueError("linear long-memory kernels require a binary alphabet")
        if len(family.coefficients) != depth:
            raise ValueError(
                f"linear kernel declares {len(family.coefficients)} coefficients "
                f"for memory depth {depth}"
            )
        values = (family.intercept, *family.coefficients, family.coefficient_tail)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("linear kernel parameters must be finite")
        if check:
            if family.intercept < 0.0 or any(a < 0.0 for a in family.coefficients):
                raise ValueError("linear kernel coefficients must be non-negative")
            total = family.intercept + sum(family.coefficients)
            if total > 1.0 + SUM_TOL:
                raise ValueError(f"linear kernel mass {total!r} exceeds 1")
            if family.coefficient_tail < 0.0:
                raise ValueError("coefficient tail must be non-negative")
        return
    order = family.order if isinstance(family, MarkovTable) else depth
    if not 0 <= order <= depth:
        raise ValueError(f"table order {order} outside 0..{depth}")
    # n**order > len(rows) once order passes its bit length: skip the power
    if order > len(family.rows).bit_length() or len(family.rows) != n**order:
        raise ValueError(f"table has {len(family.rows)} rows, expected {n}**{order}")
    for p, row in enumerate(family.rows):
        if len(row) != n:
            raise ValueError(f"row {p} has {len(row)} entries, expected {n}")
        if not all(math.isfinite(x) for x in row):
            raise ValueError(f"row {p} has a non-finite entry")
        if check:
            if any(x < 0.0 for x in row):
                raise ValueError(f"row {p} has a negative probability")
            total = sum(row)
            if abs(total - 1.0) > SUM_TOL:
                raise ValueError(f"row {p} sums to {total!r}, expected 1")


def _dense_table(family: SingleFamily, n: int, depth: int) -> np.ndarray:
    """Read-only ``(n**depth, n)`` conditional table, rows by big-endian past code."""
    if exceeds_cap(n, depth, TABLE_CAP):
        raise CapExceededError(
            f"conditional table over {n}**{depth} pasts exceeds the table cap"
        )
    if isinstance(family, LinearLongMemory):
        codes = np.arange(n**depth, dtype=np.int64)
        p1 = np.full(len(codes), family.intercept, dtype=float)
        for k, a in enumerate(family.coefficients, start=1):
            p1 += a * ((codes >> (k - 1)) & 1)
        out = np.column_stack([1.0 - p1, p1])
    else:
        base = np.asarray(family.rows, dtype=float)
        # the family reads the trailing sites, the low digits of the code
        reps = n ** (depth - family_order(family))
        out = np.tile(base, (reps, 1)) if reps > 1 else base.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class KernelSpec:
    """A stationary or site-indexed family of singleton kernels.

    ``check=False`` skips normalisation validation; it exists so that
    deliberately corrupted kernels can be fed to the verification
    routines as negative controls.  Non-finite entries are always
    rejected.  The dense tables behind ``table_at`` live on the instance,
    outside the dataclass fields, so equality, hashing and ``repr`` see
    only the declaration.
    """

    alphabet: AlphabetSpec
    memory_depth: int
    family: Family
    label: str = ""
    check: bool = True

    def __post_init__(self) -> None:
        if self.memory_depth < 0:
            raise ValueError("memory depth must be non-negative")
        if isinstance(self.family, SiteIndexed):
            default, overrides = self.family.default, self.family.overrides
        else:
            default, overrides = self.family, ()
        # position in ``families`` of each override site; 0 is the default
        sites = {site: index for index, (site, _) in enumerate(overrides, start=1)}
        if len(sites) < len(overrides):
            raise ValueError("duplicate override site")
        families = (default, *(fam for _, fam in overrides))
        for fam in families:
            _validate_single(fam, self.alphabet, self.memory_depth, self.check)
        object.__setattr__(self, "_families", families)
        object.__setattr__(self, "_site_index", sites)
        object.__setattr__(self, "_tables", [None] * len(families))

    @property
    def stationary(self) -> bool:
        return not isinstance(self.family, SiteIndexed)

    @property
    def override_sites(self) -> tuple[int, ...]:
        return tuple(self._site_index)

    def family_at(self, site: int) -> SingleFamily:
        return self._families[self._site_index.get(site_index(site), 0)]

    def table_at(self, site: int) -> np.ndarray:
        """Dense read-only ``(|E|**R, |E|)`` conditional table of the site's family.

        Built on first use at the spec's memory depth and kept for the
        life of the spec; rows are indexed by big-endian past code.
        """
        index = self._site_index.get(site_index(site), 0)
        table = self._tables[index]
        if table is None:
            table = _dense_table(self._families[index], self.alphabet.size, self.memory_depth)
            self._tables[index] = table
        return table

    def families(self) -> tuple[SingleFamily, ...]:
        return self._families

    @property
    def effective_order(self) -> int:
        return max(family_order(f) for f in self.families())

    @property
    def truncation_tail(self) -> float:
        return max(
            (f.coefficient_tail for f in self.families() if isinstance(f, LinearLongMemory)),
            default=0.0,
        )


def family_row(family: SingleFamily, alphabet: AlphabetSpec, past: Sequence[int]) -> tuple[float, ...]:
    """Conditional law given a full-depth past (reads its trailing sites)."""
    if isinstance(family, LinearLongMemory):
        p1 = family.intercept
        coeffs = family.coefficients
        for k, a in enumerate(coeffs, start=1):
            p1 += a * past[-k]
        return (1.0 - p1, p1)
    order = family_order(family)
    trailing = past[len(past) - order :] if order else ()
    return family.rows[config_code(trailing, alphabet.size)]


def _read_past(f: KernelSpec, past: Sequence[int], need: int, exact: bool = False) -> tuple[int, ...]:
    """The last ``need`` symbols of ``past`` as Python ints, the one rule for a past.

    At least ``need`` symbols (exactly ``need`` with ``exact``), each an integer by
    ``operator.index`` (no float, ``nan`` or numpy float) in ``0 .. |E| - 1``;
    else ``ValueError``.  Every symbol is checked, and only the last ``need``
    are returned, so a past of any length codes to ``|E|**need`` at most.
    """
    try:
        symbols = tuple(map(operator.index, past))
    except TypeError as exc:
        raise ValueError(f"past symbols must be integers: {exc}") from None
    if len(symbols) != need if exact else len(symbols) < need:
        rule = "" if exact else "at least "
        raise ValueError(f"past has length {len(symbols)}, need {rule}{need}")
    if min(symbols, default=0) < 0 or max(symbols, default=0) >= f.alphabet.size:
        raise ValueError("past contains a symbol outside the alphabet")
    return symbols[len(symbols) - need :]


def eval_singleton(f: KernelSpec, i: int, past: Sequence[int]) -> FiniteDistribution:
    """Law of the symbol at site ``i`` given exactly R past symbols (``_read_past``)."""
    symbols = _read_past(f, past, f.memory_depth, exact=True)
    return FiniteDistribution(family_row(f.family_at(i), f.alphabet, symbols))


def window_weights(
    f: KernelSpec,
    window: Window,
    past_codes: np.ndarray,
    past_len: int,
) -> np.ndarray:
    """Product-of-singletons weights over the window, one row per past.

    ``past_codes`` are big-endian codes of depth-``past_len`` pasts with
    ``past_len >= memory_depth``.  Returns shape ``(n_pasts, |E|**|W|)``.
    The state of window site ``t`` is the code of its ``R`` preceding
    sites: the past's last ``R - t`` symbols, then the window's first ``t``.
    """
    n = f.alphabet.size
    length = len(window)
    size = check_cap(n, length)
    if past_codes.size * size > WORK_CAP:
        raise CapExceededError(
            f"{past_codes.size} pasts x {size} configurations exceeds the work cap"
        )
    depth = f.memory_depth
    if past_len < depth:
        raise ValueError(f"past has length {past_len}, kernel memory depth is {depth}")
    w = np.ones((past_codes.size, 1), dtype=float)
    for t, site in enumerate(window.sites()):
        kernel = f.table_at(site)
        c = np.arange(n**t, dtype=np.int64)
        if t >= depth:  # the state lies in the window: one row for every past
            states = np.broadcast_to(c % n**depth, (past_codes.size, c.size))
        else:
            offsets = (past_codes % n ** (depth - t)) * n**t
            states = offsets[:, None] + c[None, :]
        w = (w[:, :, None] * kernel[states]).reshape(past_codes.size, n ** (t + 1))
    return w


def _observable_values(
    h: Observable, window: Window, past_codes: np.ndarray, past_len: int
) -> np.ndarray:
    """Values of ``h`` on (past, window configuration) pairs.

    Returns shape ``(n_pasts, |E|**|W|)`` broadcastable against weights.
    The support may overlap the window and reach into the past, but not
    extend right of the window.  A support inside the window is one row for
    every past; one reaching into the past is read off the joint past and
    window code, a broadcast view where it reads no window site.
    """
    n = h.alphabet.size
    a, b = h.support.lo, h.support.hi
    size = n ** len(window)
    step = n ** (window.hi - b)  # window codes that agree on every site of h
    if a >= window.lo:
        idx = (np.arange(size, dtype=np.int64) // step) % (n ** (b - a + 1))
        return np.broadcast_to(h.table[idx], (past_codes.size, size))
    if window.lo - a > past_len:
        raise ValueError(
            f"past has length {past_len} but the observable reaches {window.lo - a} sites back"
        )
    joint = (past_codes % n ** (window.lo - a))[:, None] * size + np.arange(0, size, step)
    vals = h.table[joint // step]  # one column per run of window codes that agree on h
    runs = vals.shape[1]
    return np.broadcast_to(vals[:, :, None], (*vals.shape, size // runs)).reshape(-1, size)


def _check_compose_args(f: KernelSpec, window: Window, h: Observable) -> int:
    """Past an average of ``h`` reads: the memory depth, or the support's overhang if longer."""
    if h.alphabet.size != f.alphabet.size:
        raise ValueError("observable alphabet does not match the kernel alphabet")
    if h.support.hi > window.hi:
        raise ValueError(
            f"observable depends on site {h.support.hi}, right of the window end {window.hi}"
        )
    return max(f.memory_depth, window.lo - h.support.lo)


def compose_window(
    f: KernelSpec,
    window: Window,
    past: Sequence[int],
    h: Observable,
) -> float:
    """Exact kernel average of ``h`` over the window given ``past``.

    Sums ``h`` against the product of singleton conditionals over every
    window configuration; dependence of ``h`` left of the window is
    resolved against the last symbols of ``past`` that ``_read_past``
    returns: enough to cover both the kernel memory and the support
    overhang, so a longer past gives the same value.
    """
    need = _check_compose_args(f, window, h)
    symbols = _read_past(f, past, need)
    codes = np.array([config_code(symbols, f.alphabet.size)], dtype=np.int64)
    w = window_weights(f, window, codes, need)
    vals = _observable_values(h, window, codes, need)
    return float((w * vals).sum(axis=1)[0])


def marginal_distribution(
    f: KernelSpec, window: Window, past: Sequence[int]
) -> FiniteDistribution:
    """Law of the window configuration (lexicographic) given at least R past symbols."""
    symbols = _read_past(f, past, f.memory_depth)
    codes = np.array([config_code(symbols, f.alphabet.size)], dtype=np.int64)
    w = window_weights(f, window, codes, f.memory_depth)[0]
    return FiniteDistribution(w)


def kernel_average_observable(f: KernelSpec, window: Window, h: Observable) -> Observable:
    """Tabulate the kernel average of ``h`` as an observable on the past.

    The result lives on the sites left of the window that the average
    depends on (at least one), so the tabulation is exact.
    """
    depth = max(_check_compose_args(f, window, h), 1)
    n = f.alphabet.size
    n_pasts = check_cap(n, depth)
    codes = np.arange(n_pasts, dtype=np.int64)
    w = window_weights(f, window, codes, depth)
    vals = _observable_values(h, window, codes, depth)
    table = (w * vals).sum(axis=1)
    support = Window(window.lo - depth, window.lo - 1)
    return Observable(support, h.alphabet, table)


def __getattr__(name: str):
    # the benchmark's per-layer trace (perfbench/layers.py) wraps verify_consistency
    # under this module's name; the function is defined in oracle
    if name == "verify_consistency":
        from .oracle import verify_consistency

        return verify_consistency
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
