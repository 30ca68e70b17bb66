"""Loading, validation, and standardization of binary-labelled tabular data.

CSV rows hold d numeric inputs followed by a 0/1 label in the last column.
Inputs are standardized column-wise at load time (constant columns keep
scale 1) and the fitted mean/scale pair is recorded on the dataset so that
prediction-time inputs can be pushed through the exact same transform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Standardization:
    """Per-column center and scale recorded at load time.

    ``scale`` entries are strictly positive; columns that were constant in
    the training data get scale 1 so the transform stays well defined.
    """

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        if mean.ndim != 1 or scale.shape != mean.shape:
            raise ValueError("mean and scale must be 1-d arrays of the same length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
            raise ValueError("standardization parameters must be finite")
        if not np.all(scale > 0):
            raise ValueError("standardization scales must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the recorded affine transform to a raw row or matrix of rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"expected input with {self.d} columns, got shape {x.shape}")
        return (x - self.mean) / self.scale

    def basic_features(self, x: np.ndarray) -> np.ndarray:
        """Feature vector for one raw input: a constant 1 then the standardized entries."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("basic_features expects a single input vector")
        return np.concatenate(([1.0], self.transform(x)))

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """Stack basic feature vectors for a matrix of raw rows."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("design_matrix expects a 2-d array of raw rows")
        Z = self.transform(X)
        return np.hstack([np.ones((Z.shape[0], 1)), Z])


def fit_standardization(X: np.ndarray) -> Standardization:
    """Fit per-column mean and population standard deviation; zero spread maps to scale 1.

    Raises DataError when a column's mean or spread overflows a double.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("fit_standardization expects a 2-d array")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        spread = X.std(axis=0)
    overflow = ~(np.isfinite(mean) & np.isfinite(spread))
    if overflow.any():
        raise DataError(
            f"column {int(np.argmax(overflow)) + 1}: values too large in magnitude to standardize"
        )
    scale = np.where(spread > 0.0, spread, 1.0)
    return Standardization(mean, scale)


@dataclass(frozen=True)
class Dataset:
    """Immutable training corpus: standardized inputs plus exact 0/1 labels."""

    y: np.ndarray
    inputs: np.ndarray
    standardization: Standardization

    def __post_init__(self) -> None:
        # contiguous copies so results do not depend on the caller's array layout
        y = np.ascontiguousarray(self.y, dtype=float)
        inputs = np.ascontiguousarray(self.inputs, dtype=float)
        if y.ndim != 1 or inputs.ndim != 2 or inputs.shape[0] != y.shape[0]:
            raise ValueError("labels and inputs must agree on the sample count")
        if inputs.shape[1] != self.standardization.d:
            raise ValueError("input width does not match the standardization")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be exactly 0 or 1")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "inputs", inputs)

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def t_max(self) -> int:
        return self.inputs.shape[0]

    def design_matrix(self) -> np.ndarray:
        """Basic feature matrix: bias column of ones, then the standardized inputs."""
        return np.hstack([np.ones((self.t_max, 1)), self.inputs])


def _read_numeric_rows(path, has_header: bool):
    """Parse a CSV file into (line numbers, value matrix); errors name the file line."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"no such data file: {path}")
    lines = p.read_text(encoding="utf-8").splitlines()
    linenos: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        if has_header and lineno == 1:
            continue
        values = []
        for tok in line.split(","):
            try:
                v = float(tok)
            except ValueError:
                raise DataError(
                    f"row {lineno}: cannot parse {tok.strip()!r} as a number"
                ) from None
            if not np.isfinite(v):
                raise DataError(f"row {lineno}: non-finite value {tok.strip()!r}")
            values.append(v)
        linenos.append(lineno)
        rows.append(values)
    if not rows:
        raise DataError(f"empty data file: {path}")
    width = len(rows[0])
    for lineno, values in zip(linenos, rows):
        if len(values) != width:
            raise DataError(f"row {lineno}: expected {width} fields, found {len(values)}")
    return linenos, np.array(rows, dtype=float)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Load a training CSV (label in the last column) and standardize its inputs.

    Raises DataError for parse failures (naming the offending row), non-binary
    labels, or fewer than two samples. A dataset with only one label class is
    permitted but triggers a warning since nothing can be learned from it.
    """
    linenos, M = _read_numeric_rows(path, has_header)
    if M.shape[1] < 1:
        raise DataError("rows must contain at least a label column")
    raw, labels = M[:, :-1], M[:, -1]
    for lineno, lab in zip(linenos, labels):
        if lab not in (0.0, 1.0):
            raise DataError(f"row {lineno}: label must be 0 or 1, got {lab}")
    if M.shape[0] < 2:
        raise DataError("training data needs at least 2 samples")
    if np.all(labels == labels[0]):
        warnings.warn(
            f"training data contains a single label class ({int(labels[0])})",
            stacklevel=2,
        )
    standardization = fit_standardization(raw)
    return Dataset(labels, standardization.transform(raw), standardization)


def load_inputs(path, has_header: bool = False, d: int | None = None) -> np.ndarray:
    """Load raw prediction inputs; a trailing label column is accepted and dropped.

    When ``d`` is given the rows must have width d or d+1, otherwise any
    consistent width is returned as-is.
    """
    _, M = _read_numeric_rows(path, has_header)
    if d is None:
        return M
    if M.shape[1] == d:
        return M
    if M.shape[1] == d + 1:
        return M[:, :d]
    raise DataError(
        f"prediction rows have {M.shape[1]} columns; the model expects {d} inputs"
        f" (an extra trailing label column is allowed)"
    )
