"""Seeded inputs for the benchmark workloads.

The rows are generated here, not with ``contilearn.synthetic``, so that a
change to the library cannot move the benchmark's inputs. The program only
ever sees the CSV and config files written by this module.

Only score-bulk's rows depend on ``--seed``. Training cost depends
strongly on the rows and on the bootstrap streams (which prior precision
wins, how many solves stall at the iteration cap): over seeds, a run's mean
time per train moved by about +-20 % on both training workloads, as much as
the largest regression bound the benchmark may set. So each training
workload trains one fixed problem on every seed:

* train-deep: rows from generator 50, bootstrap seed 13, the acceptance-gate
  problem of the test suite.
* train-tall: rows from generator 7000, bootstrap seed 17.
* score-bulk: the model is train-deep's; the 10^5 raw rows to score come
  from generator ``90000 + seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
SCORE_ROWS = 100_000


@dataclass(frozen=True)
class TrainCase:
    """One training problem: raw rows, labels and the run configuration text."""

    name: str
    X: np.ndarray
    y: np.ndarray
    config: str


def _config(n_iters: int, n_replicates: int, seed: int) -> str:
    return (
        f"n_iters = {n_iters}\nn_replicates = {n_replicates}\nk_max = 8\n"
        f"algebra_check = true\nseed = {seed}\n"
    )


def deep_case() -> TrainCase:
    """60 rows, d=2, y = 1[x0*x1 + 0.2*eps > 0]; three expansion rounds."""
    rng = np.random.default_rng(50)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] * X[:, 1] + 0.2 * rng.normal(size=60) > 0).astype(float)
    return TrainCase("d0", X, y, _config(3, 64, 13))


def tall_case() -> TrainCase:
    """3000 rows, d=6, y = 1[x0*x1 + 0.5*x2^2 - 0.5 + 0.3*eps > 0]; one round."""
    rng = np.random.default_rng(7000)
    X = rng.normal(size=(3000, 6))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] ** 2 - 0.5 + 0.3 * rng.normal(size=3000) > 0)
    return TrainCase("t0", X, y.astype(float), _config(1, 16, 17))


def reference_key(workload: str, seed: int) -> str:
    """Key of a run's entry in reference.json: training inputs do not depend on the seed."""
    return str(seed) if workload == "score-bulk" else "all"


def score_rows(seed: int) -> np.ndarray:
    """Raw inputs (no label column) for train-deep's 2-input model."""
    return np.random.default_rng(90000 + seed).normal(size=(SCORE_ROWS, 2))


def write_csv(path: Path, X: np.ndarray, y: np.ndarray | None = None) -> None:
    """Plain CSV with shortest round-trip float text; labels, if given, go last."""
    rows = X.tolist() if y is None else np.column_stack([X, y]).tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")


def write_case(case: TrainCase, directory: Path) -> tuple[Path, Path]:
    """Write a case's CSV and config into ``directory``; returns (data, config) paths."""
    data = directory / f"{case.name}.csv"
    config = directory / f"{case.name}.cfg"
    write_csv(data, case.X, case.y)
    config.write_text(case.config, encoding="utf-8")
    return data, config
