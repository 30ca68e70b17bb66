"""Orchestration of the iteration cycle and its per-stage diagnostics.

Each cycle works on the current feature space. It picks the prior precision
r by out-of-bag score over a fresh bootstrap: the distinct grid values are
solved from the largest r down, the largest starting every replicate at the
cycle's start and each smaller r starting each replicate at its solution for
the last scored r (a regularization path); a value with fewer than two
solved replicates is skipped, by that count. Scores are compared in grid
order, so the choice does not depend on how the grid is written. The cycle
then solves the full-data problem (warm started at the embedded previous
mean, so its objective can only go up), weights the chosen r's replicate
solutions by their full-data objective, fits their distribution, selects
principal components and appends a calibrated expansion layer. A last
full-data solve on the final space gives the model's parameter vector. A
zero-variance solution cloud (k = 0) stops the loop early with the model
built so far. A ``Stage`` record keeps each stage's report, every r tried
(score and replicate batch), the full-data ``Solution`` and closure fit.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraFitReport, fit_structure_constants
from .data import Dataset
from .ensemble import fit_distribution, sample_plans, solve_replicates, weights_from_loglik
from .errors import ConfigError, NumericalError
from .featuremap import Layer, RecursiveFeatureMap, calibrate_layer, embed_mean_solution
from .model import log_likelihood, predict_prob
from .solver import BatchSolution, Solution, SolverConfig, maximize
from .spectral import select_components

_SEED_MASK = (1 << 64) - 1
_SEED_STRIDE = 0x9E3779B97F4A7C15
# most entries an (n_replicates, rows) bootstrap count matrix may have. Peak RSS grows
# by about 46 bytes per entry (1 to 4 for the counts themselves, the rest float64
# temporaries of the line search), so a train at this bound would need about 200 GB
MAX_COUNT_ENTRIES = 1 << 32

STATUSES = ("completed", "degenerate", "algebra-converged")


@dataclass(frozen=True)
class EngineConfig:
    """Run configuration; an out-of-range value raises ConfigError on construction.

    Its fields are the config-file keys, in order. ``has_header`` is read where
    the CLI calls ``load_csv`` and is echoed in the model; ``run`` does not use it.
    """

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
    has_header: bool = False

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
class Candidate:
    """One r tried at a stage: its OOB score (None when skipped) and its replicate solves."""

    r: float
    oob: float | None
    solutions: BatchSolution


@dataclass(frozen=True)
class Stage:
    """What one stage computed; ``algebra`` is None when no closure was fitted."""

    report: IterationReport
    candidates: tuple[Candidate, ...]
    full: Solution
    algebra: AlgebraFitReport | None


@dataclass(frozen=True)
class TrainedModel:
    """What ``run`` returns and the model file holds: feature map, parameters, config echo."""

    feature_map: RecursiveFeatureMap
    w: np.ndarray
    r_per_iteration: tuple[float, ...]
    status: str
    config: EngineConfig


def accuracy(w, y, F) -> float:
    """Share of rows whose thresholded probability matches the label."""
    p = predict_prob(w, F)
    return float(np.mean((p >= 0.5).astype(float) == y))


def _stage_seed(seed: int, stage: int) -> int:
    return (seed + (stage + 1) * _SEED_STRIDE) & _SEED_MASK


def oob_score(y, F, counts, batch: BatchSolution) -> float:
    """Mean over solved replicates of the mean per-sample log-probability on held-out rows.

    A replicate's held-out rows are those its row of ``counts`` drew zero times.
    When no solved replicate has one, the error counts the failed solves.
    """
    solved = batch.solved
    held = counts[solved] == 0
    n_held = held.sum(axis=1)
    if not n_held.any():
        failed = f"{batch.n_failed} of {len(counts)} replicate solves failed and "
        every = "every surviving replicate resampled the full training set; no out-of-bag rows"
        raise NumericalError("engine", (failed if batch.n_failed else "") + every)
    totals = log_likelihood(batch.w[solved], y, F, counts=held)
    return float(np.mean(totals[n_held > 0] / n_held[n_held > 0]))


def _choose_prior(y, F, counts, config: EngineConfig, w_init):
    """Grid-search r by out-of-bag score; ties keep the earliest grid entry.

    The distinct r values are solved from the largest down. The largest
    starts every replicate at ``w_init``; each smaller r starts replicate s
    at its solution for the last scored r, or at ``w_init`` if that solve
    failed. A value with fewer than two survivors gets no score; if no value
    has one, the last value's survivor count is a NumericalError. Returns
    the chosen candidate (its solves feed the distribution fit) and all.
    """
    candidates = []
    start = w_init
    for r in sorted(set(config.r_grid), reverse=True):
        batch = solve_replicates(y, F, counts, r, config.solver, start)
        solved = batch.solved
        oob = oob_score(y, F, counts, batch) if len(solved) >= 2 else None
        candidates.append(Candidate(r, oob, batch))
        if oob is not None:
            start = np.tile(w_init, (len(counts), 1))
            start[solved] = batch.w[solved]
    scored = {c.r: c for c in candidates if c.oob is not None}
    if not scored:
        n = len(solved)
        raise NumericalError("ensemble", f"only {n} of {len(counts)} replicate solves succeeded")
    chosen = max((scored[r] for r in config.r_grid if r in scored), key=lambda c: c.oob)
    return chosen, tuple(candidates)


def _unconverged(iterations, max_iters, error=None) -> str:
    if error is not None:
        return f"failed ({error})"
    capped = iterations >= max_iters
    return "reached max_iters" if capped else "exhausted the line search at numerical precision"


def _warn_unconverged(stages, max_iters) -> None:
    """One UserWarning naming each stage with a failed or unconverged solve, if any."""
    faults = []
    for stage in stages:
        batches = [c.solutions for c in stage.candidates]
        n = sum(len(b.error) for b in batches)
        bad = [(b.iterations[s], b.error[s]) for b in batches for s in np.flatnonzero(~b.converged)]
        reasons = Counter(_unconverged(i, max_iters, e) for i, e in bad)
        items = [f"{k} of {n} replicate solves {why}" for why, k in reasons.items()]
        if not stage.full.converged:
            items.append(f"the full-data solve {_unconverged(stage.full.iterations, max_iters)}")
        if items:
            faults.append(f"stage {stage.report.iteration}: {', '.join(items)}")
    if faults:
        warnings.warn(f"not every solve converged: {'; '.join(faults)}", stacklevel=3)


def run(dataset: Dataset, config: EngineConfig) -> tuple[TrainedModel, tuple[Stage, ...]]:
    """Execute the iteration cycles and a final full-data fit; returns (model, stages).

    The model is what ``modelio.save_model`` writes; each stage's ``Stage``
    record holds its report line. Status is "completed", "degenerate" (zero
    covariance stopped the loop), or "algebra-converged" (the closure
    residual fell below the configured tolerance and the remaining cycles
    were skipped). A bootstrap count matrix of more than ``MAX_COUNT_ENTRIES``
    entries (n_replicates times the training rows) is a ConfigError, raised
    before anything is sampled. A failed or unconverged solve warns once.
    """
    S, T = config.n_replicates, len(dataset.y)
    if S * T > MAX_COUNT_ENTRIES:
        raise ConfigError(
            f"n_replicates * rows = {S} * {T} exceeds the bound of {MAX_COUNT_ENTRIES}"
            " bootstrap count entries"
        )
    y = dataset.y
    F = dataset.F
    w_init = np.zeros(F.shape[1])
    layers: list[Layer] = []
    stages: list[Stage] = []
    status = "completed"
    last_stage, tol = config.n_iters, config.algebra_stop_tol

    for stage in range(config.n_iters + 1):
        counts = sample_plans(S, _stage_seed(config.seed, stage), T)
        chosen, candidates = _choose_prior(y, F, counts, config, w_init)
        r, oob, batch = chosen.r, chosen.oob, chosen.solutions
        sol = maximize(y, F, r, config.solver, w_init)
        embed_L = log_likelihood(w_init, y, F, r)
        acc = accuracy(sol.w, y, F)
        layer = fit = k = None
        if stage < last_stage:
            # weights use the full-data objective: subsample objectives are not
            # comparable across replicates
            w = batch.w[batch.solved]
            weights = weights_from_loglik(log_likelihood(w, y, F, r))
            mean, cov = fit_distribution(w, weights)
            u = select_components(cov, config.rel_threshold, config.k_max)
            k = len(u)
            if k:
                layer = calibrate_layer(mean, u, F)
                if config.algebra_check or tol is not None:
                    fit = fit_structure_constants(layer.super_features(F))
            else:
                status = "degenerate"
        expanded = None if layer is None else layer.m_out
        closure = None if fit is None else fit.normalized_residual
        report = IterationReport(
            stage, F.shape[1], expanded, k, sol.L_value, embed_L, r, oob, closure, acc
        )
        stages.append(Stage(report, candidates, sol, fit))
        if layer is None:
            break
        F = layer.apply(F)
        w_init = embed_mean_solution(layer)
        layers.append(layer)
        if tol is not None and closure <= tol and stage + 1 < last_stage:
            status = "algebra-converged"
            last_stage = stage + 1

    _warn_unconverged(stages, config.max_iters)
    feature_map = replace(dataset.feature_map, layers=tuple(layers))
    r_per_iteration = tuple(stage.report.r for stage in stages)
    return TrainedModel(feature_map, sol.w, r_per_iteration, status, config), tuple(stages)
