"""Forward sampling and time-average correlation estimation.

Paths are drawn with numpy's default PCG64 generator seeded explicitly,
so identical (seed, kernel, length, initial past) inputs reproduce the
path bit for bit.  Two samplers, picked by the kernel's default family,
both give the path of ``oracle.sample_path_stepwise``; they draw their
uniforms about ``_CHUNK`` at a time, so a path costs one byte per site
and nothing else grows with it.  Correlation estimates use
window-mean-centred products with batch-means standard errors over
``BATCH_COUNT`` (32) batches, and evaluate the observables one chunk or
one batch of the path at a time.

Finite-volume averages from two extreme pasts (see the oracle module)
converge toward the stationary expectation as the window deepens; the
sampler is the empirical counterpart of that limit and the convergence
sweep script demonstrates both side by side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Observable
from .kernels import KernelSpec, LinearLongMemory, _dense_table, _read_past
from .kernels import family_order, family_row
from .analysis import SensitivityMatrix

#: Number of batches used for batch-means standard errors.
BATCH_COUNT = 32

#: Lags a linear kernel reads from its table of partial sums.
_NEAR_LAGS = 12

#: Fewest uniforms drawn and converted to Python floats at a time, so a
#: long path never holds its uniforms as one array or one list.
_CHUNK = 1024

#: Sites of the path evaluated at a time for the window means of an estimate.
_MEAN_CHUNK = 8192


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
    initial_past: Sequence[int] | None = None,
) -> np.ndarray:
    """Draw ``length`` symbols site by site from sites 0, 1, ....

    The initial past defaults to the all-first-symbol configuration; a
    given one is read by ``kernels._read_past``, exactly R symbols.
    Site ``t`` is decided by the ``t``-th uniform of the seeded generator;
    the samplers draw them as they go, ``_CHUNK`` or a few more at a
    time, which gives the same doubles in the same order as one draw of
    ``length``, and the returned int8 path is the only array as long as
    the path.  The default family picks the sampler: a linear one takes
    the block sampler, any other reads cumulative rows of its own table.
    Override sites inside the path are decided from their own family, so
    both give the path of the per-step reference
    ``oracle.sample_path_stepwise`` bit for bit.
    """
    if length < 1:
        raise ValueError("path length must be at least 1")
    depth = f.memory_depth
    past = (0,) * depth if initial_past is None else _read_past(f, initial_past, depth, exact=True)
    draw = np.random.default_rng(seed).random
    if isinstance(f.families()[0], LinearLongMemory):
        return _sample_linear(f, draw, length, past)
    return _sample_tabulated(f, draw, length, past)


def _sample_tabulated(f: KernelSpec, draw, length: int, past: tuple[int, ...]) -> np.ndarray:
    """Per-site sampler for a table default family.

    ``draw(n)`` returns the next ``n`` uniforms; they are drawn
    ``_CHUNK`` sites at a time.  A default site takes the first symbol
    whose cumulative mass in the family's own row passes ``u_t``, the row
    indexed by the trailing ``family_order`` symbols; only the
    ``effective_order`` symbols that any family reads are kept, so a deep
    declared memory costs nothing.
    """
    fam = f.families()[0]
    n = f.alphabet.size
    order = family_order(fam)
    size = n**order
    rows = np.cumsum(np.asarray(fam.rows, dtype=float), axis=1)
    rows[:, -1] = np.inf  # a uniform past a total rounded short of 1 takes the last symbol
    rows = rows.tolist()
    keep = f.effective_order
    overrides = {site for site in f.override_sites if 0 <= site < length}
    # hist[keep + t] is the symbol at site t
    hist = np.empty(keep + length, dtype=np.int8)
    hist[:keep] = past[len(past) - keep :]
    state = 0
    for s in past[len(past) - order :]:
        state = state * n + s
    for t0 in range(0, length, _CHUNK):
        block = []
        for t, u_t in enumerate(draw(min(_CHUNK, length - t0)).tolist(), start=t0):
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


def _sample_linear(f: KernelSpec, draw, length: int, past: tuple[int, ...]) -> np.ndarray:
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
    ``draw(n)`` returns the next ``n`` uniforms; they are drawn a whole
    number of blocks, at least ``_CHUNK`` sites, at a time.
    """
    fam = f.families()[0]
    depth = f.memory_depth
    coeffs = np.asarray(fam.coefficients, dtype=float)
    near = min(depth, _NEAR_LAGS)
    near_fam = LinearLongMemory(fam.intercept, fam.coefficients[:near])
    table = _dense_table(near_fam, 2, near)[:, 1].tolist()
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
    step = near + 1
    span = step * -(-_CHUNK // step)
    if not len(far):
        step = span
    for c0 in range(0, length, span):
        u = draw(min(span, length - c0)).tolist()
        for t0 in range(c0, c0 + len(u), step):
            if len(far):
                # site t0 + j reads lags near + 1 .. depth, sites t0 + j - depth .. t0 + j - near - 1
                far_sums = np.convolve(hist[t0 : t0 + depth], far, "valid").tolist()
            else:
                far_sums = [0.0] * step
            block = []
            for u_t, far_t in zip(u[t0 - c0 : t0 - c0 + step], far_sums):
                t = t0 + len(block)
                p = table[state] + far_t
                if t in overrides or -tol <= u_t - p <= tol:
                    hist[depth + t0 : depth + t] = block
                    x = _decide(f, t, hist[t:depth + t].tolist(), u_t)
                else:
                    x = 1 if u_t < p else 0
                block.append(x)
                state = ((state << 1) | x) & mask
            hist[depth + t0 : depth + t0 + len(block)] = block
    return hist[depth:]


def evaluate_along(path: np.ndarray, h: Observable) -> np.ndarray:
    """Values of ``h`` over every placement of its support along the path."""
    n = h.alphabet.size
    span = len(h.support)
    if len(path) < span:
        raise ValueError("path shorter than the observable support")
    count = len(path) - span + 1
    codes = path[:count].astype(np.int64)
    for i in range(1, span):
        codes *= n
        codes += path[i : count + i]
    return h.table[codes]


@dataclass(frozen=True)
class CorrelationEstimate:
    lag: int
    estimate: float
    standard_error: float
    samples: int
    batches: int


def _window_mean(path: np.ndarray, h: Observable, start: int, count: int) -> float:
    """Mean of ``h`` over its ``count`` placements from site ``start``, ``_MEAN_CHUNK`` at a time."""
    extra = len(h.support) - 1
    total = 0.0
    for t in range(start, start + count, _MEAN_CHUNK):
        stop = min(t + _MEAN_CHUNK, start + count)
        total += float(evaluate_along(path[t : stop + extra], h).sum())
    return total / count


def estimate_correlation(
    path: np.ndarray,
    h1: Observable,
    h2: Observable,
    lag: int,
    burn_in: int,
) -> CorrelationEstimate:
    """Time-average covariance of ``h1`` and ``h2`` shifted ``lag`` sites.

    The placements of ``h1`` from ``burn_in`` and those of ``h2`` ``lag``
    sites on are centred with their own window means, which are summed
    ``_MEAN_CHUNK`` sites at a time.  The first ``BATCH_COUNT`` equal
    batches of the centred product are built one at a time; the standard
    error comes from their means, and the estimate is the mean of those
    means.  Only one batch of values is ever held beside the path, an
    integer array of symbols in ``0 .. |E| - 1``.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if burn_in < 0:
        raise ValueError("burn-in must be non-negative")
    span1, span2 = len(h1.support), len(h2.support)
    if len(path) < max(span1, span2):
        raise ValueError("path shorter than the observable support")
    n = min(h1.alphabet.size, h2.alphabet.size)
    if path.dtype.kind not in "iu" or path.min() < 0 or path.max() >= n:
        raise ValueError(f"path symbols must be integers in 0 .. {n - 1}")
    t_max = min(len(path) - span1 + 1, len(path) - span2 + 1 - lag)
    if t_max - burn_in < BATCH_COUNT * 2:
        raise ValueError("path too short for the requested burn-in and batches")
    m1 = _window_mean(path, h1, burn_in, t_max - burn_in)
    m2 = _window_mean(path, h2, burn_in + lag, t_max - burn_in)
    size = (t_max - burn_in) // BATCH_COUNT
    means = np.empty(BATCH_COUNT)
    for b in range(BATCH_COUNT):
        t = burn_in + b * size
        z = evaluate_along(path[t : t + size + span1 - 1], h1)
        z -= m1
        w = evaluate_along(path[t + lag : t + lag + size + span2 - 1], h2)
        w -= m2
        z *= w
        means[b] = z.mean()
    estimate = float(means.mean())
    se = float(means.std(ddof=1) / np.sqrt(BATCH_COUNT))
    return CorrelationEstimate(lag, estimate, se, size * BATCH_COUNT, BATCH_COUNT)
