"""Orchestration of the iteration cycle and its per-stage diagnostics.

Each cycle works on the current feature space. It picks the prior precision
r by out-of-bag score over a fresh bootstrap: the distinct grid values are
solved from the largest r down, the largest starting every replicate at the
cycle's start and each smaller r starting each replicate at its solution for
the last solved r (a regularization path); a value with fewer than two
solved replicates is skipped. Scores are compared in grid order, so the
choice does not depend on how the grid is written. The cycle then solves the
full-data problem (warm started at the embedded previous mean, so its
objective can only go up), weights the chosen r's replicate solutions by
their full-data objective, fits their distribution, selects principal
components and appends a calibrated expansion layer. A last full-data solve
on the final space gives the returned parameter vector. A zero-variance
solution cloud (k = 0) stops the loop early with the model built so far.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import fit_structure_constants
from .data import Dataset
from .ensemble import (
    SolutionSet,
    fit_distribution,
    sample_plans,
    solve_replicates,
    weights_from_loglik,
)
from .errors import ConfigError, NumericalError
from .featuremap import (
    Layer,
    RecursiveFeatureMap,
    calibrate_layer,
    embed_mean_solution,
)
from .model import Prior, log_likelihood, predict_prob
from .solver import SolverConfig, maximize
from .spectral import select_components

_SEED_MASK = (1 << 64) - 1
_SEED_STRIDE = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class EngineConfig:
    """Engine hyper-parameters; an out-of-range value raises ConfigError on construction."""

    n_iters: int = 1
    n_replicates: int = 64
    seed: int = 0
    rel_threshold: float = 0.05
    k_max: int = 8
    r_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    grad_tol: float = SolverConfig.grad_tol
    max_iters: int = SolverConfig.max_iters
    algebra_check: bool = False
    algebra_stop_tol: float | None = None

    def __post_init__(self) -> None:
        if self.n_iters < 0:
            raise ConfigError("n_iters must be non-negative")
        if self.n_replicates < 2:
            raise ConfigError("n_replicates must be at least 2")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not 0.0 < self.rel_threshold <= 1.0:
            raise ConfigError("rel_threshold must lie in (0, 1]")
        if self.k_max < 1:
            raise ConfigError("k_max must be at least 1")
        grid = tuple(float(r) for r in self.r_grid)
        if not grid or any(not (np.isfinite(r) and r > 0) for r in grid):
            raise ConfigError("r_grid must be a nonempty list of positive reals")
        object.__setattr__(self, "r_grid", grid)
        if self.algebra_stop_tol is not None and not self.algebra_stop_tol >= 0:
            raise ConfigError("algebra_stop_tol must be non-negative")
        self.solver  # SolverConfig checks grad_tol and max_iters

    @property
    def solver(self) -> SolverConfig:
        return SolverConfig(grad_tol=self.grad_tol, max_iters=self.max_iters)


@dataclass(frozen=True)
class IterationReport:
    """Per-stage record, one ``name=value`` report token per field in this order.

    Expansion fields are None on the final fit stage; ``closure`` is the
    normalized closure residual of the stage's new layer.
    """

    iteration: int
    m: int
    expanded: int | None
    k: int | None
    best_L: float
    embed_L: float
    r: float
    oob: float
    closure: float | None
    accuracy: float


@dataclass(frozen=True)
class EngineResult:
    feature_map: RecursiveFeatureMap
    w: np.ndarray
    reports: tuple[IterationReport, ...]
    status: str


def accuracy(w, y, F) -> float:
    """Share of rows whose thresholded probability matches the label."""
    p = predict_prob(w, F)
    return float(np.mean((p >= 0.5).astype(float) == np.asarray(y, dtype=float)))


def _stage_seed(seed: int, stage: int) -> int:
    return (seed + (stage + 1) * _SEED_STRIDE) & _SEED_MASK


def oob_score(y, F, counts, solset: SolutionSet) -> float:
    """Mean over replicates of the mean per-sample log-probability on held-out rows.

    A replicate's held-out rows are those its row of ``counts`` drew zero times.
    """
    held = counts[solset.index] == 0
    n_held = held.sum(axis=1)
    if not n_held.any():
        raise NumericalError(
            "engine", "every replicate resampled the full training set; no out-of-bag rows"
        )
    totals = log_likelihood(solset.w, y, F, counts=held)
    return float(np.mean(totals[n_held > 0] / n_held[n_held > 0]))


def _choose_prior(y, F, counts, config: EngineConfig, w_init):
    """Grid-search r by out-of-bag score; ties keep the earliest grid entry.

    The distinct r values are solved from the largest down. The largest
    starts every replicate at ``w_init``; each smaller r starts replicate s
    at its solution for the last solved r, or at ``w_init`` if that solve
    failed. A value whose replicates do not solve (NumericalError) is
    skipped; the last such error is raised only if every value fails. Scores
    are compared in grid order, so the choice does not depend on how the
    grid is ordered. Returns the chosen r, its score, and its replicate
    solutions so the winning solves are reused for the distribution fit.
    """
    scored = {}
    start = w_init
    for r in sorted(set(config.r_grid), reverse=True):
        try:
            solset = solve_replicates(y, F, counts, Prior(r), config.solver, start)
        except NumericalError as exc:
            error = exc
            continue
        scored[r] = (oob_score(y, F, counts, solset), solset)
        start = np.tile(w_init, (len(counts), 1))
        start[solset.index] = solset.w
    if not scored:
        raise error
    r = max((v for v in config.r_grid if v in scored), key=lambda v: scored[v][0])
    return (r, *scored[r])


def run(dataset: Dataset, config: EngineConfig) -> EngineResult:
    """Execute the iteration cycles and a final full-data fit.

    Status is "completed", "degenerate" (zero covariance stopped the loop),
    or "algebra-converged" (the closure residual fell below the configured
    tolerance and the remaining cycles were skipped).
    """
    y = dataset.y
    F = dataset.design_matrix()
    w_init = np.zeros(F.shape[1])
    layers: list[Layer] = []
    reports: list[IterationReport] = []
    status = "completed"
    last_stage = config.n_iters

    for stage in range(config.n_iters + 1):
        counts = sample_plans(config.n_replicates, _stage_seed(config.seed, stage), dataset.t_max)
        r, oob, solset = _choose_prior(y, F, counts, config, w_init)
        prior = Prior(r)
        sol = maximize(y, F, prior, config.solver, w_init)
        embed_L = log_likelihood(w_init, y, F, prior)
        report = IterationReport(
            stage, F.shape[1], None, None, sol.L_value, embed_L, r, oob, None, accuracy(sol.w, y, F)
        )

        if stage == last_stage:
            reports.append(report)
            break

        # weights use the full-data objective: subsample objectives are not
        # comparable across replicates
        weights = weights_from_loglik(log_likelihood(solset.w, y, F, prior))
        mean, cov = fit_distribution(solset.w, weights)
        u = select_components(cov, config.rel_threshold, config.k_max)
        if len(u) == 0:
            status = "degenerate"
            reports.append(replace(report, k=0))
            break

        layer = calibrate_layer(mean, u, F)
        closure = None
        if config.algebra_check or config.algebra_stop_tol is not None:
            closure = fit_structure_constants(layer.super_features(F)).normalized_residual
        F = layer.apply(F)
        w_init = embed_mean_solution(layer)
        layers.append(layer)
        reports.append(replace(report, expanded=F.shape[1], k=layer.k, closure=closure))
        if (
            config.algebra_stop_tol is not None
            and closure <= config.algebra_stop_tol
            and stage + 1 < last_stage
        ):
            status = "algebra-converged"
            last_stage = stage + 1

    feature_map = RecursiveFeatureMap(dataset.standardization, tuple(layers))
    return EngineResult(feature_map, sol.w, tuple(reports), status)
