"""Bootstrap replicate solves and the likelihood-weighted solution distribution.

A bootstrap replicate is one row of a count matrix C of shape (S, T): C[s, t]
is how often replicate s drew training row t when it resampled the T rows with
replacement. Row s comes from its own generator, seeded with ``seed ^ s``, so
no row depends on another or on any execution order. The objective of replicate
s is sum_t C[s, t] l_t, which equals the objective on its multiset, and its
out-of-bag rows are those with count 0. Counts are stored as the smallest
unsigned type that holds T, exact in float64. All replicates under one prior
precision r are solved together as one batched Newton problem
(``solver.maximize_batch``); ``solve_replicates`` never raises: it returns that
``BatchSolution``, whose ``solved`` rows are the survivors, and the engine
skips an r by their count. It stays a function of its own, rather than a
direct call of ``maximize_batch``, as the entry point the benchmark tracer
patches, until ROADMAP item 12 retires the tracer.
``weights_from_loglik`` is the softmax of objective values, computed in the log
domain, and ``fit_distribution`` returns the weighted mean and covariance of
the solution cloud as the arrays ``(mean, cov)`` that the spectral step reads.
"""

from __future__ import annotations

import numpy as np

# maximize stays in this namespace: bench/tracing.py patches it here by name
from .solver import BatchSolution, SolverConfig, maximize, maximize_batch  # noqa: F401


def sample_plans(n_replicates: int, seed: int, t_max: int) -> np.ndarray:
    """Bootstrap count matrix: entry (s, t) is how often replicate s drew row t.

    Replicate s draws t_max row indices with replacement from a generator
    seeded with ``seed ^ s``; every row of the result sums to t_max. The dtype
    is ``np.min_scalar_type(t_max)``, the smallest unsigned type that holds a count.
    """
    counts = np.empty((n_replicates, t_max), np.min_scalar_type(t_max))
    for s in range(n_replicates):
        idx = np.random.default_rng(seed ^ s).integers(0, t_max, size=t_max, dtype=np.int64)
        counts[s] = np.bincount(idx, minlength=t_max)
    return counts


def weights_from_loglik(L) -> np.ndarray:
    """Softmax of log-likelihood values, shifted by the maximum so nothing overflows."""
    shifted = np.exp(L - np.max(L))
    return shifted / np.sum(shifted)


def solve_replicates(
    y, F, counts, r: float, config: SolverConfig | None = None, w_init=None
) -> BatchSolution:
    """Solve every count row as one replicate; a replicate whose solve fails is not ``solved``."""
    return maximize_batch(y, F, counts, r, config, w_init)


def fit_distribution(w, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and symmetrized outer-product covariance of the rows of ``w``."""
    mean = weights @ w
    dev = w - mean
    cov = (dev * weights[:, None]).T @ dev
    return mean, 0.5 * (cov + cov.T)
