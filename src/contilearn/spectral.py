"""Symmetric eigendecomposition and thresholded principal-component selection.

``select_components`` takes the covariance of the solution cloud and returns
the kept eigenvectors as the rows of a ``(k, m)`` array.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def eig_sym(A: np.ndarray):
    """Eigenvalues (descending) and orthonormal eigenvector rows of a symmetric matrix.

    Each eigenvector's sign is fixed so that its largest-magnitude entry is
    positive, which makes persisted decompositions reproducible.
    """
    try:
        evals, evecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("spectral", f"eigendecomposition failed: {exc}") from None
    evals = evals[::-1]
    rows = evecs[:, ::-1].T.copy()
    for row in rows:
        if row[np.argmax(np.abs(row))] < 0:
            np.negative(row, out=row)
    return evals, rows


def select_components(cov, rel_threshold: float, k_max: int) -> np.ndarray:
    """Eigenvector rows whose eigenvalue is at least ``rel_threshold`` times the top one.

    At most ``k_max`` components are kept, at least one when the spectrum is
    positive. A (numerically) zero covariance selects nothing: k = 0 rows.
    ``cov`` is m x m with m >= 1 (every feature matrix has the bias column),
    so there is a top eigenvalue.
    """
    evals, rows = eig_sym(cov)
    top = float(evals[0])
    if top <= 0.0:
        k = 0
    else:
        k = min(int(np.count_nonzero(evals >= rel_threshold * top)), k_max)
    return rows[:k]
