"""Regularized logistic model: probabilities, objective, gradient, Hessian.

The score is the dot product of a parameter vector with a feature vector
whose slot 0 is a constant bias feature. The prior is an isotropic Gaussian
with precision r, a positive finite float that ``EngineConfig`` validates,
written with its normalization constant so that objective values remain
comparable across different r. Nothing here overflows: softplus and sigmoid
only ever exponentiate -|z|.

The objective, its change along a step, the gradient and the Hessian take
one parameter vector or S stacked ones, and per-sample counts: a bootstrap
replicate is the full data with each row weighted by how often it was drawn,
so S replicates share one feature matrix. The counts default to 1.0, count
1 on every row, which takes the same path: a product with 1.0 is exact.
"""

from __future__ import annotations

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = float(np.finfo(float).tiny)
_ALMOST_ONE = float(np.nextafter(1.0, 0.0))


def sigmoid(z):
    """exp(z) / (1 + exp(z)) for any real z, as an array of z's shape.

    With e = exp(-|z|) <= 1 it is 1 / (1 + e) for z >= 0 and e / (1 + e)
    below, so neither branch can overflow.
    """
    e = _exp_minus_abs(z)
    d = np.add(1.0, e, out=np.empty_like(e))
    np.divide(e, d, out=e)
    np.putmask(e, z >= 0, np.divide(1.0, d, out=d))
    return e


def softplus(z):
    """log(1 + exp(z)) without overflow."""
    e = _exp_minus_abs(z)
    np.log1p(e, out=e)
    return np.add(np.maximum(z, 0.0), e, out=e)


def _exp_minus_abs(z):
    """exp(-|z|) in a new array, also for 0-d z, so callers can keep writing into it."""
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def predict_prob(w, F):
    """P(y=1 | features): one probability per row of the feature matrix F.

    The result is clamped into the open interval (0, 1): saturated scores
    return the smallest positive normal double (or its complement), which
    keeps downstream logs finite.
    """
    return np.clip(sigmoid(F @ w), _TINY, _ALMOST_ONE)


def log_prior(w, r: float):
    """Log-density of the isotropic Gaussian prior, normalization included.

    One value for a parameter vector, or one per row of stacked vectors.
    """
    m = w.shape[-1]
    return 0.5 * m * (np.log(r) - _LOG_2PI) - 0.5 * r * np.sum(w * w, axis=-1)


def log_likelihood(w, y, F, r: float | None = None, counts=1.0):
    """Training objective: label log-probabilities plus the log prior at precision r.

    With ``r=None`` only the data term is returned. ``w`` is one parameter
    vector (the result is a float) or S stacked ones (one value per row).
    ``counts`` (shape (S, T), or (T,) for one vector) weights sample t by
    how often a bootstrap replicate drew it; the default 1.0 weights every
    sample 1. Counts are only ever multiplied in, so a boolean mask weights
    its rows by 0.0 and 1.0 without first being copied into a float array.
    """
    z = w @ F.T
    sp = softplus(z)
    np.multiply(y, z, out=z)
    np.subtract(z, sp, out=z)
    value = np.sum(np.multiply(counts, z, out=z), axis=-1)
    if r is not None:
        value = value + log_prior(w, r)
    return value


def log_likelihood_change(w, dw, y, F, r: float, counts=1.0):
    """L(w + dw) - L(w) of the objective at prior precision r, without subtracting two values.

    The difference of two objective values loses every digit once the change
    falls below one ulp of L; here each sample contributes
    y dz - (softplus(z + dz) - softplus(z)), and for |dz| <= 1 the softplus
    change is log1p(sigmoid(z) expm1(dz)) (mirrored for z >= 0), which keeps
    its relative precision however small dz is. Shapes and ``counts`` follow
    ``log_likelihood``.
    """
    z = w @ F.T
    dz = dw @ F.T
    a = np.abs(dz, out=np.empty_like(dz))
    far = ~(a <= 1.0)
    zf, dzf = z[far], dz[far]
    far_change = softplus(zf + dzf) - softplus(zf)
    # the near branch, in place over z and a
    upper = z >= 0.0
    near = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    np.divide(near, np.add(1.0, near, out=a), out=near)  # sigmoid(-|z|) = e / (1 + e)
    np.clip(dz, -1.0, 1.0, out=a)
    np.multiply(a, 1 - 2 * upper.view(np.int8), out=a)  # times -1 where z >= 0, else 1
    np.multiply(near, np.expm1(a, out=a), out=near)
    np.log1p(near, out=near)
    # dz is added where z >= 0 only: adding 0.0 elsewhere could change nothing but a
    # zero's sign, which the sum below, starting from +0.0, never passes on
    np.putmask(near, upper, np.add(near, dz, out=a))
    near[far] = far_change
    np.multiply(y, dz, out=dz)
    np.subtract(dz, near, out=dz)
    value = np.sum(np.multiply(counts, dz, out=dz), axis=-1)
    return value - r * np.sum(w * dw + 0.5 * dw * dw, axis=-1)


def gradient(w, y, F, r: float, counts=1.0):
    """First derivative of the objective at prior precision r.

    Shape (m,), or (S, m) for stacked ``w``; ``counts`` weights samples as in
    ``log_likelihood``.
    """
    z = w @ F.T
    p = sigmoid(z)
    np.subtract(y, p, out=p)
    g = np.multiply(counts, p, out=p) @ F
    return g - r * w


def hessian(w, y, F, r: float, counts=1.0):
    """Second derivative of the objective at prior precision r; symmetric and negative definite.

    Shape (m, m), or (S, m, m) for stacked ``w``. The stacked product
    builds an (S, m, T) temporary, so callers bound S for large problems.
    Only the data part is symmetrized: adding the prior's diagonal to itself
    would overflow for r above half the largest double.
    """
    z = w @ F.T
    p = sigmoid(z)
    s = counts * (p * (1.0 - p))
    H = np.matmul(F.T * s[..., None, :], F)
    H += np.swapaxes(H, -1, -2)
    H *= -0.5
    d = np.arange(w.shape[-1])
    H[..., d, d] -= r
    return H
