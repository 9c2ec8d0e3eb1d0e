"""Forward sampling and time-average correlation estimation.

Paths are drawn with numpy's default PCG64 generator seeded explicitly,
so identical (seed, kernel, length, initial past) inputs reproduce the
path bit for bit.  Correlation estimates use global-mean-centred products
with batch-means standard errors (32 batches by default).

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
from .kernels import KernelSpec, LinearLongMemory, family_row
from .analysis import build_sensitivity_matrix

#: Number of batches used for batch-means standard errors.
BATCH_COUNT = 32

#: State spaces up to this size sample from a precomputed CDF table.
SAMPLER_TABLE_CAP = 4096


def default_burn_in(f: KernelSpec) -> int:
    """Crude mixing heuristic: 10 * depth / (1 - row sum), else explicit.

    This is a heuristic default, not a theorem; kernels at or above row
    sum 1 must supply their own burn-in.
    """
    gamma = build_sensitivity_matrix(f).sup_row_sum()
    if gamma >= 1.0:
        raise ValueError("no default burn-in at row sum >= 1, pass one explicitly")
    return int(10 * max(f.memory_depth, 1) / (1.0 - gamma)) + 1


def sample_path(
    f: KernelSpec,
    length: int,
    seed: int,
    initial_past: "PastConfig | None" = None,
) -> np.ndarray:
    """Draw ``length`` symbols site by site from sites 0, 1, ....

    The initial past defaults to the all-first-symbol configuration.
    """
    if length < 1:
        raise ValueError("path length must be at least 1")
    depth = f.memory_depth
    n = f.alphabet.size
    if initial_past is None:
        initial_past = PastConfig.fill(0, depth)
    past = as_symbols(initial_past)
    if len(past) != depth:
        raise ValueError(f"initial past has length {len(past)}, expected {depth}")
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    if n**depth <= SAMPLER_TABLE_CAP and not isinstance(f.family_at(0), LinearLongMemory):
        return _sample_tabulated(f, length, u, past)
    return _sample_direct(f, length, u, past)


def _sample_tabulated(f: KernelSpec, length: int, u: np.ndarray, past: tuple[int, ...]) -> np.ndarray:
    n = f.alphabet.size
    size = n**f.memory_depth

    def cdf(site: int) -> list[list[float]]:
        return np.cumsum(f.table_at(site), axis=1).tolist()

    rows = cdf(min(f.override_sites, default=1) - 1)
    overrides = {site: cdf(site) for site in f.override_sites if 0 <= site < length}
    state = 0
    for s in past:
        state = state * n + s
    state %= size
    out = []
    append = out.append
    for t, u_t in enumerate(u.tolist()):
        row = (overrides.get(t, rows) if overrides else rows)[state]
        x = bisect_right(row, u_t)
        x = min(x, n - 1)  # cumsum may fall epsilon short of 1
        append(x)
        state = (state * n + x) % size
    return np.asarray(out, dtype=np.int8)


def _sample_direct(f: KernelSpec, length: int, u: np.ndarray, past: tuple[int, ...]) -> np.ndarray:
    depth = f.memory_depth
    buf = list(past)
    out = []
    for t in range(length):
        fam = f.family_at(t)
        if isinstance(fam, LinearLongMemory):
            p1 = fam.intercept
            for k, a in enumerate(fam.coefficients, start=1):
                p1 += a * buf[-k]
            x = 1 if u[t] < p1 else 0
        else:
            row = family_row(fam, f.alphabet, tuple(buf[-depth:]) if depth else ())
            acc = 0.0
            x = len(row) - 1
            for i, p in enumerate(row):
                acc += p
                if u[t] < acc:
                    x = i
                    break
        out.append(x)
        buf.append(x)
        if len(buf) > depth + 1:
            del buf[0]
    return np.asarray(out, dtype=np.int8)


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
    batches: int = BATCH_COUNT,
) -> CorrelationEstimate:
    """Time-average covariance of ``h1`` and ``h2`` shifted ``lag`` sites.

    Centred with global means; the standard error comes from batch means
    over the centred product stream.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    y1 = evaluate_along(path, h1)
    y2 = evaluate_along(path, h2)
    t_max = min(len(y1), len(y2) - lag)
    if t_max - burn_in < batches * 2:
        raise ValueError("path too short for the requested burn-in and batches")
    w1 = y1[burn_in:t_max]
    w2 = y2[burn_in + lag : t_max + lag]
    z = (w1 - w1.mean()) * (w2 - w2.mean())
    usable = (len(z) // batches) * batches
    z = z[:usable]
    means = z.reshape(batches, -1).mean(axis=1)
    estimate = float(z.mean())
    se = float(means.std(ddof=1) / np.sqrt(batches))
    return CorrelationEstimate(lag, estimate, se, usable, batches)
