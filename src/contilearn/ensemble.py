"""Bootstrap replicate solves and the likelihood-weighted solution distribution.

A bootstrap replicate is one row of a count matrix C of shape (S, T): C[s, t]
is how often replicate s drew training row t when it resampled the T rows
with replacement. Row s comes from its own generator, seeded with
``seed ^ s``, so no row depends on another or on any execution order. The
objective of replicate s is sum_t C[s, t] l_t, which equals the objective on
its multiset, and its out-of-bag rows are those with count 0. All replicates
of one prior are solved together as one batched Newton problem
(``solver.maximize_batch``). ``weights_from_loglik`` is the softmax of
objective values, computed in the log domain, and ``fit_distribution``
returns the weighted mean and covariance of the solution cloud as the arrays
``(mean, cov)`` that the spectral step reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import Prior
# maximize stays in this namespace: bench/tracing.py patches it here by name
from .solver import SolverConfig, maximize, maximize_batch  # noqa: F401

_SEED_LIMIT = 1 << 64


def sample_plans(n_replicates: int, seed: int, t_max: int) -> np.ndarray:
    """Bootstrap count matrix: entry (s, t) is how often replicate s drew row t.

    Replicate s draws t_max row indices with replacement from a generator
    seeded with ``seed ^ s``; every row of the result sums to t_max.
    """
    if n_replicates < 2:
        raise ValueError("a bootstrap needs at least 2 replicates")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    draws = (
        np.random.default_rng(seed ^ s).integers(0, t_max, size=t_max, dtype=np.int64)
        for s in range(n_replicates)
    )
    return np.stack([np.bincount(idx, minlength=t_max) for idx in draws]).astype(float)


def weights_from_loglik(L) -> np.ndarray:
    """Softmax of log-likelihood values, shifted by the maximum so nothing overflows."""
    L = np.asarray(L, dtype=float)
    shifted = np.exp(L - np.max(L))
    return shifted / np.sum(shifted)


@dataclass(frozen=True)
class SolutionSet:
    """Surviving replicate solutions: row i of ``w`` solves count row ``index[i]``."""

    w: np.ndarray
    index: np.ndarray
    n_failed: int = 0


def solve_replicates(
    y,
    F,
    counts,
    prior: Prior,
    config: SolverConfig | None = None,
    w_init=None,
) -> SolutionSet:
    """Solve every count row as one replicate; replicates whose solve fails are dropped.

    Fewer than two survivors is a NumericalError.
    """
    if len(counts) == 0:
        raise ValueError("counts must have at least one row")
    batch = maximize_batch(y, F, counts, prior, config, w_init)
    index = np.flatnonzero([error is None for error in batch.error])
    if len(index) < 2:
        raise NumericalError(
            "ensemble", f"only {len(index)} of {len(counts)} replicate solves succeeded"
        )
    return SolutionSet(batch.w[index], index, n_failed=len(counts) - len(index))


def fit_distribution(w, weights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and symmetrized outer-product covariance of the rows of ``w``."""
    W = np.asarray(w, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(W) < 2:
        raise ValueError("need at least 2 solutions to fit a distribution")
    if weights.shape != (len(W),):
        raise ValueError("one weight per solution required")
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("weights must be non-negative and sum to 1")
    mean = weights @ W
    dev = W - mean
    cov = (dev * weights[:, None]).T @ dev
    return mean, 0.5 * (cov + cov.T)
