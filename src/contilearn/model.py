"""Regularized logistic model: probabilities, objective, gradient, Hessian.

The score is the dot product of a parameter vector with a feature vector
whose slot 0 is a constant bias feature. The prior is an isotropic Gaussian
with precision r, written with its normalization constant so that objective
values remain comparable across different r. Nothing here overflows:
softplus and sigmoid only ever exponentiate -|z|.

The objective, its change along a step, the gradient and the Hessian take
one parameter vector or S stacked ones, and optional per-sample counts: a
bootstrap replicate is the full data with each row weighted by how often it
was drawn, so S replicates share one feature matrix. No counts means count
1 on every row, which takes the same path: a product with 1.0 is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = float(np.finfo(float).tiny)
_ALMOST_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class Prior:
    """Isotropic Gaussian prior over parameters with precision r > 0."""

    r: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.r) and self.r > 0):
            raise ValueError(f"prior precision must be a positive finite real, got {self.r}")


def sigmoid(z):
    """exp(z) / (1 + exp(z)) for any real z, as an array of z's shape.

    With e = exp(-|z|) <= 1 it is 1 / (1 + e) for z >= 0 and e / (1 + e)
    below, so neither branch can overflow.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(z):
    """log(1 + exp(z)) without overflow."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _check_dims(w: np.ndarray, F: np.ndarray) -> None:
    if F.shape[-1] != w.shape[-1]:
        raise ValueError(
            f"feature dimension {F.shape[-1]} does not match parameter dimension {w.shape[-1]}"
        )


def _scores(w, y, F, counts):
    """Validated arrays plus the scores z = w F^T: shape (T,), or (S, T) for stacked w."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    _check_dims(w, F)
    if F.shape[0] != y.shape[0]:
        raise ValueError("label and feature sample counts differ")
    z = w @ F.T
    counts = np.broadcast_to(1.0, z.shape) if counts is None else np.asarray(counts, dtype=float)
    if counts.shape != z.shape:
        raise ValueError(f"counts have shape {counts.shape}, expected {z.shape}")
    return w, y, F, counts, z


def _scalar(value, w):
    return float(value) if w.ndim == 1 else value


def predict_prob(w, F):
    """P(y=1 | features) for one feature vector or a matrix of them.

    The result is clamped into the open interval (0, 1): saturated scores
    return the smallest positive normal double (or its complement), which
    keeps downstream logs finite.
    """
    w = np.asarray(w, dtype=float)
    F = np.asarray(F, dtype=float)
    _check_dims(w, F)
    return np.clip(sigmoid(F @ w), _TINY, _ALMOST_ONE)


def log_prior(w, prior: Prior):
    """Log-density of the isotropic Gaussian prior, normalization included.

    One value for a parameter vector, or one per row of stacked vectors.
    """
    w = np.asarray(w, dtype=float)
    m = w.shape[-1]
    value = 0.5 * m * (np.log(prior.r) - _LOG_2PI) - 0.5 * prior.r * np.sum(w * w, axis=-1)
    return _scalar(value, w)


def log_likelihood(w, y, F, prior: Prior | None = None, counts=None):
    """Training objective: label log-probabilities plus (optionally) the log prior.

    With ``prior=None`` only the data term is returned. ``w`` is one parameter
    vector (the result is a float) or S stacked ones (one value per row).
    ``counts`` (shape (S, T), or (T,) for one vector) weights sample t by
    how often a bootstrap replicate drew it; None weights every sample 1.
    """
    w, y, F, counts, z = _scores(w, y, F, counts)
    value = np.sum(counts * (y * z - softplus(z)), axis=-1)
    if prior is not None:
        value = value + log_prior(w, prior)
    return _scalar(value, w)


def log_likelihood_change(w, dw, y, F, prior: Prior | None = None, counts=None):
    """L(w + dw) - L(w), computed directly rather than as a difference of objectives.

    The difference of two objective values loses every digit once the change
    falls below one ulp of L; here each sample contributes
    y dz - (softplus(z + dz) - softplus(z)), and for |dz| <= 1 the softplus
    change is log1p(sigmoid(z) expm1(dz)) (mirrored for z >= 0), which keeps
    its relative precision however small dz is. Shapes and ``counts`` follow
    ``log_likelihood``.
    """
    w, y, F, counts, z = _scores(w, y, F, counts)
    dw = np.asarray(dw, dtype=float)
    dz = dw @ F.T
    upper = z >= 0.0
    mirrored = np.where(upper, -1.0, 1.0) * np.clip(dz, -1.0, 1.0)
    near = np.log1p(sigmoid(-np.abs(z)) * np.expm1(mirrored)) + np.where(upper, dz, 0.0)
    far = softplus(z + dz) - softplus(z)
    value = np.sum(counts * (y * dz - np.where(np.abs(dz) <= 1.0, near, far)), axis=-1)
    if prior is not None:
        value = value - prior.r * np.sum(w * dw + 0.5 * dw * dw, axis=-1)
    return _scalar(value, w)


def gradient(w, y, F, prior: Prior | None = None, counts=None):
    """First derivative: shape (m,), or (S, m) for stacked ``w``.

    ``counts`` weights samples as in ``log_likelihood``.
    """
    w, y, F, counts, z = _scores(w, y, F, counts)
    g = (counts * (y - sigmoid(z))) @ F
    if prior is not None:
        g = g - prior.r * w
    return g


def hessian(w, y, F, prior: Prior | None = None, counts=None):
    """Second derivative matrix; symmetric, and negative definite whenever r > 0.

    Shape (m, m), or (S, m, m) for stacked ``w``. The stacked product
    builds an (S, m, T) temporary, so callers bound S for large problems.
    """
    w, y, F, counts, z = _scores(w, y, F, counts)
    p = sigmoid(z)
    s = counts * (p * (1.0 - p))
    H = -np.matmul(F.T * s[..., None, :], F)
    if prior is not None:
        H = H - prior.r * np.eye(w.shape[-1])
    return 0.5 * (H + np.swapaxes(H, -1, -2))
