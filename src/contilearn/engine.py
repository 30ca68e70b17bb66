"""Orchestration of the iteration cycle and its per-stage diagnostics.

Each cycle works on the current feature space: pick the prior precision r by
out-of-bag score over a fresh bootstrap, solve the full-data problem (warm
started at the embedded previous mean, so its objective can only go up),
solve the replicates, fit the weighted solution distribution, select
principal components, and append a calibrated expansion layer. After the
requested number of cycles one more full-data solve on the final space
produces the returned parameter vector. A zero-variance solution cloud
(k = 0) stops the loop early with the model built so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import fit_structure_constants
from .data import Dataset
from .ensemble import SolutionSet, fit_distribution, sample_plans, solve_replicates
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
    """Per-stage record; expansion fields are None on the final fit stage."""

    iteration: int
    m: int
    expanded_dim: int | None
    k: int | None
    best_L: float
    embed_L: float
    r: float
    oob: float
    closure_residual: float | None
    train_accuracy: float


@dataclass(frozen=True)
class EngineResult:
    feature_map: RecursiveFeatureMap
    w: np.ndarray
    reports: tuple[IterationReport, ...]
    status: str
    r_history: tuple[float, ...]


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

    Returns the chosen r, its score, and its replicate solutions so the
    winning solves are reused for the distribution fit.
    """
    best = None
    for r in config.r_grid:
        solset = solve_replicates(y, F, counts, Prior(r), config.solver, w_init)
        score = oob_score(y, F, counts, solset)
        if best is None or score > best[1]:
            best = (r, score, solset)
    return best


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
    r_history: list[float] = []
    status = "completed"
    last_stage = config.n_iters
    stage = 0

    while True:
        counts = sample_plans(config.n_replicates, _stage_seed(config.seed, stage), dataset.t_max)
        r, oob, solset = _choose_prior(y, F, counts, config, w_init)
        prior = Prior(r)
        sol = maximize(y, F, prior, config.solver, w_init)
        embed_L = log_likelihood(w_init, y, F, prior)
        train_acc = accuracy(sol.w, y, F)
        r_history.append(r)
        w_final = sol.w
        m = F.shape[1]

        if stage == last_stage:
            reports.append(
                IterationReport(stage, m, None, None, sol.L_value, embed_L, r, oob, None, train_acc)
            )
            break

        mean, cov = fit_distribution(solset.w, solset.weights)
        u = select_components(cov, config.rel_threshold, config.k_max)
        if len(u) == 0:
            status = "degenerate"
            reports.append(
                IterationReport(stage, m, None, 0, sol.L_value, embed_L, r, oob, None, train_acc)
            )
            break

        layer = calibrate_layer(mean, u, F)
        closure = None
        if config.algebra_check or config.algebra_stop_tol is not None:
            closure = fit_structure_constants(layer.super_features(F)).normalized_residual
        F = layer.apply(F)
        w_init = embed_mean_solution(layer)
        layers.append(layer)
        reports.append(
            IterationReport(
                stage, m, F.shape[1], layer.k, sol.L_value, embed_L, r, oob, closure, train_acc
            )
        )
        if (
            config.algebra_stop_tol is not None
            and closure <= config.algebra_stop_tol
            and stage + 1 < last_stage
        ):
            status = "algebra-converged"
            last_stage = stage + 1
        stage += 1

    feature_map = RecursiveFeatureMap(dataset.standardization, tuple(layers))
    return EngineResult(feature_map, w_final, tuple(reports), status, tuple(r_history))
