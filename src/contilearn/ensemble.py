"""Bootstrap replicate solves and the likelihood-weighted solution distribution.

Each replicate resamples the training rows with replacement (multiset size
equals the training size). A replicate is not copied out: it is the full
training set with integer row counts C[s, t] (how often replicate s drew row
t), its objective sum_t C[s, t] l_t equals the objective on the multiset,
and its out-of-bag rows are those with count 0. All replicates of one prior
are solved together as one batched Newton problem (``solver.maximize_batch``),
so results do not depend on any execution order. Replicates are weighted by
the softmax of their full-data objective values, computed in the log domain,
and the weighted mean/covariance of the solution cloud define the solution
distribution handed to the spectral step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import Prior, log_likelihood
# maximize stays in this namespace: bench/tracing.py patches it here by name
from .solver import SolverConfig, maximize, maximize_batch  # noqa: F401

_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class BootstrapPlan:
    """Resampling plan: ``n_replicates`` draws of t_max indices with replacement.

    Replicate s draws from its own generator seeded with ``seed ^ s``, so the
    index streams do not depend on execution order.
    """

    n_replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_replicates < 2:
            raise ValueError("a bootstrap plan needs at least 2 replicates")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must be an unsigned 64-bit integer")


def sample_plans(plan: BootstrapPlan, t_max: int) -> list[np.ndarray]:
    """Index multisets for every replicate, deterministic given the plan seed."""
    if t_max < 2:
        raise ValueError("t_max must be at least 2")
    return [
        np.random.default_rng(plan.seed ^ s).integers(0, t_max, size=t_max, dtype=np.int64)
        for s in range(plan.n_replicates)
    ]


def bootstrap_counts(plans, t_max: int) -> np.ndarray:
    """Row counts of every replicate: entry (s, t) is how often plan s drew row t."""
    return np.stack([np.bincount(idx, minlength=t_max) for idx in plans]).astype(float)


def weights_from_loglik(L) -> np.ndarray:
    """Softmax of log-likelihood values, shifted by the maximum so nothing overflows."""
    L = np.asarray(L, dtype=float)
    shifted = np.exp(L - np.max(L))
    return shifted / np.sum(shifted)


@dataclass(frozen=True)
class ReplicateSolution:
    """One replicate's solution with its subsample and full-data objectives."""

    index: int
    w: np.ndarray
    L_full: float
    L_subset: float
    converged: bool


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple[ReplicateSolution, ...]
    weights: np.ndarray
    n_failed: int = 0

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.solutions),):
            raise ValueError("one weight per solution required")
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "weights", weights)


def solve_replicates(
    y,
    F,
    plans,
    prior: Prior,
    config: SolverConfig | None = None,
    w_init=None,
) -> SolutionSet:
    """Solve every replicate as a count-weighted problem and weight by full-data objective.

    Replicates whose solve fails are dropped; fewer than two survivors is an
    error. Weights use the full-data objective because subsample objectives
    are not comparable across replicates.
    """
    if len(plans) == 0:
        raise ValueError("plans must be nonempty")
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    batch = maximize_batch(y, F, bootstrap_counts(plans, len(y)), prior, config, w_init)
    kept = [s for s, error in enumerate(batch.error) if error is None]
    if len(kept) < 2:
        raise NumericalError(
            "ensemble", f"only {len(kept)} of {len(plans)} replicate solves succeeded"
        )
    L_full = log_likelihood(batch.w[kept], y, F, prior)
    solutions = tuple(
        ReplicateSolution(
            index=s,
            w=batch.w[s],
            L_full=float(L),
            L_subset=float(batch.L_value[s]),
            converged=bool(batch.converged[s]),
        )
        for s, L in zip(kept, L_full)
    )
    return SolutionSet(solutions, weights_from_loglik(L_full), n_failed=len(plans) - len(kept))


@dataclass(frozen=True)
class SolutionDistribution:
    """Weighted mean and covariance of the replicate solution cloud."""

    mean: np.ndarray
    cov: np.ndarray


def fit_distribution(solset: SolutionSet) -> SolutionDistribution:
    """Weighted mean and outer-product covariance; the covariance is symmetrized."""
    if len(solset.solutions) < 2:
        raise ValueError("need at least 2 solutions to fit a distribution")
    weights = solset.weights
    if float(weights.sum()) <= 0:
        raise ValueError("weights are all zero")
    W = np.stack([sol.w for sol in solset.solutions])
    mean = weights @ W
    dev = W - mean
    cov = (dev * weights[:, None]).T @ dev
    return SolutionDistribution(mean, 0.5 * (cov + cov.T))
