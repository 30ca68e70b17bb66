"""Loading and validation of binary-labelled tabular data.

CSV rows hold d numeric inputs followed by a 0/1 label in the last column.
A ``Dataset`` fits the column-wise standardization of its raw rows (constant
columns keep scale 1) as a layerless ``RecursiveFeatureMap``; the trained
model's map extends that one, so prediction-time inputs are pushed through
the exact same standardization.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DataError
from .featuremap import RecursiveFeatureMap


def fit_standardization(X: np.ndarray) -> RecursiveFeatureMap:
    """Layerless feature map of per-column mean and population spread; zero spread gets scale 1.

    Raises DataError when a column's mean or spread overflows a double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        spread = X.std(axis=0)
    overflow = ~(np.isfinite(mean) & np.isfinite(spread))
    if overflow.any():
        raise DataError(
            f"column {int(np.argmax(overflow)) + 1}: values too large in magnitude to standardize"
        )
    scale = np.where(spread > 0.0, spread, 1.0)
    return RecursiveFeatureMap(mean, scale)


@dataclass(frozen=True)
class Dataset:
    """Immutable training corpus built from raw input rows ``X`` and exact 0/1 labels ``y``.

    ``feature_map`` is the layerless map fitted on ``X`` as passed, and ``F``, its basic
    feature matrix of ``X``, is the matrix the engine trains on. Fewer than two rows is a
    DataError; a single label class is permitted but warns, as nothing can be learned.
    """

    y: np.ndarray
    X: InitVar[np.ndarray]
    feature_map: RecursiveFeatureMap = field(init=False)
    F: np.ndarray = field(init=False)

    def __post_init__(self, X) -> None:
        y = np.ascontiguousarray(self.y, dtype=float)
        X = np.asarray(X, dtype=float)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("labels and inputs must agree on the sample count")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be exactly 0 or 1")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        if y.shape[0] < 2:
            raise DataError("training data needs at least 2 samples")
        if np.all(y == y[0]):
            # level 3 is the caller of the generated __init__
            warnings.warn(
                f"training data contains a single label class ({int(y[0])})", stacklevel=3
            )
        feature_map = fit_standardization(X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_map", feature_map)
        object.__setattr__(self, "F", feature_map.super_features(X))


def read_text(path, kind: str, error) -> str:
    """UTF-8 text of a ``kind`` file or pipe, newlines universal, without one leading BOM.

    Any failure to read it raises ``error`` naming the path; an undecodable file's byte
    offset counts from the file's first byte, a byte-order mark included.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except (FileNotFoundError, NotADirectoryError):
        raise error(f"no such {kind} file: {path}") from None
    except IsADirectoryError:
        raise error(f"{kind} file {path} is a directory") from None
    except UnicodeDecodeError as exc:
        raise error(f"{kind} file {path} is not UTF-8 text (byte offset {exc.start})") from None
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc.strerror}") from None


def _read_numeric_rows(path, has_header: bool) -> np.ndarray:
    """Parse a CSV file into a value matrix; errors name the file line.

    A line ends at a line feed only. Every line after the optional header is a row
    or an error, so row i of the result is line ``i + 1 + has_header`` of the file.
    A field is any text ``float()`` accepts, and it must be finite. An empty file is
    refused; numpy's C reader (``np.loadtxt``) parses any other, accepting a subset of
    what ``float()`` does (no ``_`` separators, ASCII digits only) with bit-equal
    values. Its matrix is kept when it has a row for every line (it skips blank
    lines) and every value is finite. Otherwise the token-by-token scan raises at the
    first faulty line: a token ``float()`` rejects or a non-finite value, else a field
    count unlike the first line's.
    """
    first = 1 + int(has_header)
    lines = read_text(path, "data", DataError).split("\n")[first - 1 :]
    if lines and not lines[-1]:
        lines.pop()  # the empty text after a final line feed is not a row
    if not lines:
        raise DataError(f"empty data file: {path}")
    # a blank first line is a fault; skipping it also keeps loadtxt from warning on all-blank text
    if lines[0]:
        with suppress(ValueError):
            M = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if len(M) == len(lines) and np.isfinite(M).all():
                return M
    commas = lines[0].count(",")
    values: list[float] = []
    for lineno, line in enumerate(lines, start=first):
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
        if line.count(",") != commas:
            raise DataError(
                f"row {lineno}: expected {commas + 1} fields, found {line.count(',') + 1}"
            )
    # reached only if numpy rejected text that float() accepts
    return np.array(values).reshape(len(lines), commas + 1)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Load a training CSV (label in the last column) as a Dataset of its raw rows.

    Raises DataError for parse failures and non-binary labels (naming the
    offending row), and for everything ``Dataset`` raises DataError for.
    """
    M = _read_numeric_rows(path, has_header)
    raw, labels = M[:, :-1], M[:, -1]
    bad = (labels != 0.0) & (labels != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"row {i + 1 + int(has_header)}: label must be 0 or 1, got {labels[i]}")
    return Dataset(labels, raw)


def load_inputs(path, d: int) -> np.ndarray:
    """Load raw prediction inputs (no header row) of width d; a trailing label column is dropped."""
    M = _read_numeric_rows(path, has_header=False)
    if M.shape[1] in (d, d + 1):
        return M[:, :d]
    raise DataError(
        f"prediction rows have {M.shape[1]} columns; the model expects {d} inputs"
        f" (an extra trailing label column is allowed)"
    )
