"""Forward sampling and time-average correlation estimation.

Paths are drawn with numpy's default PCG64 generator seeded explicitly,
so identical (seed, kernel, length, initial past) inputs reproduce the
path bit for bit.  Two samplers, picked by the kernel's default family,
both give the path of ``oracle.sample_path_stepwise``.  Correlation
estimates use global-mean-centred products with batch-means standard
errors over ``BATCH_COUNT`` (32) batches.

Finite-volume averages from two extreme pasts (see the oracle module)
converge toward the stationary expectation as the window deepens; the
sampler is the empirical counterpart of that limit and the convergence
sweep script demonstrates both side by side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Observable, PastConfig, as_symbols
from .kernels import KernelSpec, LinearLongMemory, family_order, family_row
from .analysis import SensitivityMatrix

#: Number of batches used for batch-means standard errors.
BATCH_COUNT = 32

#: Lags a linear kernel reads from its table of partial sums.
_NEAR_LAGS = 12

#: Uniforms converted to Python floats at a time by the per-site loops
#: that have no block of their own, so a long path never becomes one list.
_CHUNK = 1024


def default_burn_in(alpha: SensitivityMatrix) -> int:
    """Crude mixing heuristic: 10 * depth / (1 - row sum), else explicit.

    Takes the kernel's sensitivity matrix, which callers build once for
    the bounds too.  This is a heuristic default, not a theorem; kernels
    at or above row sum 1 must supply their own burn-in.
    """
    gamma = alpha.sup_row_sum()
    if gamma >= 1.0:
        raise ValueError("no default burn-in at row sum >= 1, pass one explicitly")
    return int(10 * max(alpha.depth, 1) / (1.0 - gamma)) + 1


def sample_path(
    f: KernelSpec,
    length: int,
    seed: int,
    initial_past: "PastConfig | None" = None,
) -> np.ndarray:
    """Draw ``length`` symbols site by site from sites 0, 1, ....

    The initial past defaults to the all-first-symbol configuration.
    Site ``t`` is decided by the ``t``-th uniform of the seeded generator.
    The default family picks the sampler: a linear one takes the block
    sampler, any other reads cumulative rows of its own table.  Override
    sites inside the path are decided from their own family, so both
    give the path of the per-step reference
    ``oracle.sample_path_stepwise`` bit for bit.
    """
    if length < 1:
        raise ValueError("path length must be at least 1")
    depth = f.memory_depth
    if initial_past is None:
        initial_past = PastConfig.fill(0, depth)
    past = as_symbols(initial_past)
    if len(past) != depth:
        raise ValueError(f"initial past has length {len(past)}, expected {depth}")
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    if isinstance(f.families()[0], LinearLongMemory):
        return _sample_linear(f, u, past)
    return _sample_tabulated(f, u, past)


def _sample_tabulated(f: KernelSpec, u: np.ndarray, past: tuple[int, ...]) -> np.ndarray:
    """Per-site sampler for a table default family.

    A default site takes the first symbol whose cumulative mass in the
    family's own row passes ``u_t``, the row indexed by the trailing
    ``family_order`` symbols; only the ``effective_order`` symbols that
    any family reads are kept, so a deep declared memory costs nothing.
    """
    fam = f.families()[0]
    n = f.alphabet.size
    order = family_order(fam)
    size = n**order
    rows = np.cumsum(np.asarray(fam.rows, dtype=float), axis=1)
    rows[:, -1] = np.inf  # a uniform past a total rounded short of 1 takes the last symbol
    rows = rows.tolist()
    keep = f.effective_order
    length = len(u)
    overrides = {site for site in f.override_sites if 0 <= site < length}
    # hist[keep + t] is the symbol at site t
    hist = np.empty(keep + length, dtype=np.int8)
    hist[:keep] = past[len(past) - keep :]
    state = 0
    for s in past[len(past) - order :]:
        state = state * n + s
    for t0 in range(0, length, _CHUNK):
        block = []
        for t, u_t in enumerate(u[t0 : t0 + _CHUNK].tolist(), start=t0):
            if t in overrides:
                hist[keep + t0 : keep + t] = block
                x = _decide(f, t, hist[t : keep + t].tolist(), u_t)
            else:
                x = bisect_right(rows[state], u_t)
            block.append(x)
            state = (state * n + x) % size
        hist[keep + t0 : keep + t0 + len(block)] = block
    return hist[keep:]


def _decide(f: KernelSpec, t: int, trailing, u_t: float) -> int:
    """Symbol at site ``t`` from its own family, given at least its order of trailing symbols.

    A linear family takes 1 iff ``u_t`` is below ``P(1)``, summed from the
    intercept, nearest lag first; any other family takes the first symbol
    whose cumulative mass passes ``u_t``.
    """
    fam = f.family_at(t)
    if isinstance(fam, LinearLongMemory):
        return 1 if u_t < family_row(fam, f.alphabet, trailing)[1] else 0
    acc = 0.0
    for i, p in enumerate(family_row(fam, f.alphabet, trailing)):
        acc += p
        if u_t < acc:
            return i
    return f.alphabet.size - 1


def _sample_linear(f: KernelSpec, u: np.ndarray, past: tuple[int, ...]) -> np.ndarray:
    """Exact block sampler for a linear default family.

    ``P(1)`` at a site is the intercept plus the coefficients of the past
    ones.  Blocks of ``K + 1`` sites, ``K = min(R, 12)``: the ``K`` nearest
    lags come from a table of ``2**K`` partial sums indexed by the last
    ``K`` symbols, and the farther lags of the whole block from one
    product of their coefficients with symbols drawn before the block.
    That sum rounds differently from the reference sum (intercept first,
    nearest lag first), but both add the same ``R + 1`` terms, so each
    lies within ``gamma_R * (|c| + sum |a_k|)`` of the exact value, with
    ``gamma_n = n u / (1 - n u)`` and ``u = 2**-53``.  So ``u_t < p`` is
    taken from the block sum unless ``u_t`` lies within
    ``2 gamma_{R+2} * (|c| + sum |a_k|)`` of it (the two extra terms
    cover the rounding of the bound itself); there the reference sum is
    recomputed, and every path equals the per-step one bit for bit.
    Override sites inside the path are decided from their own family.
    """
    fam = f.families()[0]
    depth = f.memory_depth
    length = len(u)
    coeffs = np.asarray(fam.coefficients, dtype=float)
    near = min(depth, _NEAR_LAGS)
    codes = np.arange(1 << near)
    table = np.full(len(codes), fam.intercept)
    for k in range(near):
        table += coeffs[k] * ((codes >> k) & 1)
    table = table.tolist()
    far = coeffs[near:]
    unit = 2.0**-53
    gamma = (depth + 2) * unit / (1.0 - (depth + 2) * unit)
    tol = 2.0 * gamma * (abs(fam.intercept) + float(np.abs(coeffs).sum()))
    overrides = {site for site in f.override_sites if 0 <= site < length}
    # hist[depth + t] is the symbol at site t
    hist = np.empty(depth + length, dtype=np.int8)
    hist[:depth] = past
    state = 0
    for k in range(near):
        state |= past[depth - 1 - k] << k
    mask = (1 << near) - 1
    step = near + 1 if len(far) else _CHUNK
    for t0 in range(0, length, step):
        stop = min(t0 + step, length)
        if len(far):
            # site t0 + j reads lags near + 1 .. depth, sites t0 + j - depth .. t0 + j - near - 1
            far_sums = np.convolve(hist[t0 : t0 + depth], far, "valid").tolist()
        else:
            far_sums = [0.0] * step
        block = []
        for u_t, far_t in zip(u[t0:stop].tolist(), far_sums):
            t = t0 + len(block)
            p = table[state] + far_t
            if t in overrides or -tol <= u_t - p <= tol:
                hist[depth + t0 : depth + t] = block
                x = _decide(f, t, hist[t:depth + t].tolist(), u_t)
            else:
                x = 1 if u_t < p else 0
            block.append(x)
            state = ((state << 1) | x) & mask
        hist[depth + t0 : depth + stop] = block
    return hist[depth:]


def evaluate_along(path: np.ndarray, h: Observable) -> np.ndarray:
    """Values of ``h`` over every placement of its support along the path."""
    n = h.alphabet.size
    span = len(h.support)
    if len(path) < span:
        raise ValueError("path shorter than the observable support")
    codes = np.zeros(len(path) - span + 1, dtype=np.int64)
    for i in range(span):
        codes = codes * n + path[i : len(path) - span + 1 + i]
    return h.table_array()[codes]


@dataclass(frozen=True)
class CorrelationEstimate:
    lag: int
    estimate: float
    standard_error: float
    samples: int
    batches: int


def estimate_correlation(
    path: np.ndarray,
    h1: Observable,
    h2: Observable,
    lag: int,
    burn_in: int,
) -> CorrelationEstimate:
    """Time-average covariance of ``h1`` and ``h2`` shifted ``lag`` sites.

    Centred with global means; the standard error comes from the means of
    ``BATCH_COUNT`` batches of the centred product stream.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    y1 = evaluate_along(path, h1)
    y2 = evaluate_along(path, h2)
    t_max = min(len(y1), len(y2) - lag)
    if t_max - burn_in < BATCH_COUNT * 2:
        raise ValueError("path too short for the requested burn-in and batches")
    w1 = y1[burn_in:t_max]
    w2 = y2[burn_in + lag : t_max + lag]
    z = (w1 - w1.mean()) * (w2 - w2.mean())
    usable = (len(z) // BATCH_COUNT) * BATCH_COUNT
    z = z[:usable]
    means = z.reshape(BATCH_COUNT, -1).mean(axis=1)
    estimate = float(z.mean())
    se = float(means.std(ddof=1) / np.sqrt(BATCH_COUNT))
    return CorrelationEstimate(lag, estimate, se, usable, BATCH_COUNT)
