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

    def design_matrix(self, X: np.ndarray) -> np.ndarray:
        """Basic feature matrix of raw rows: a column of ones, then the standardized entries."""
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


def read_text(path, kind: str, error) -> str:
    """UTF-8 text of a ``kind`` file; a missing or undecodable file raises ``error``."""
    p = Path(path)
    if not p.is_file():
        raise error(f"no such {kind} file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file {path} is not UTF-8 text (byte offset {exc.start})") from None


def _read_numeric_rows(path, has_header: bool) -> np.ndarray:
    """Parse a CSV file into a value matrix; errors name the file line.

    Every line after the optional header is a row or an error, so row i of
    the result is line ``i + 1 + has_header`` of the file.
    """
    first = 1 + int(has_header)
    lines = read_text(path, "data", DataError).splitlines()[first - 1 :]
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=first):
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
        rows.append(values)
    if not rows:
        raise DataError(f"empty data file: {path}")
    width = len(rows[0])
    for lineno, values in enumerate(rows, start=first):
        if len(values) != width:
            raise DataError(f"row {lineno}: expected {width} fields, found {len(values)}")
    return np.array(rows, dtype=float)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Load a training CSV (label in the last column) and standardize its inputs.

    Raises DataError for parse failures (naming the offending row), non-binary
    labels, or fewer than two samples. A dataset with only one label class is
    permitted but triggers a warning since nothing can be learned from it.
    """
    M = _read_numeric_rows(path, has_header)
    if M.shape[1] < 1:
        raise DataError("rows must contain at least a label column")
    raw, labels = M[:, :-1], M[:, -1]
    bad = (labels != 0.0) & (labels != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"row {i + 1 + int(has_header)}: label must be 0 or 1, got {labels[i]}")
    if M.shape[0] < 2:
        raise DataError("training data needs at least 2 samples")
    if np.all(labels == labels[0]):
        warnings.warn(
            f"training data contains a single label class ({int(labels[0])})",
            stacklevel=2,
        )
    standardization = fit_standardization(raw)
    return Dataset(labels, standardization.transform(raw), standardization)


def load_inputs(path, d: int) -> np.ndarray:
    """Load raw prediction inputs (no header row) of width d; a trailing label column is dropped."""
    M = _read_numeric_rows(path, has_header=False)
    if M.shape[1] in (d, d + 1):
        return M[:, :d]
    raise DataError(
        f"prediction rows have {M.shape[1]} columns; the model expects {d} inputs"
        f" (an extra trailing label column is allowed)"
    )
