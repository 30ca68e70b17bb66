"""Recursive nonlinear features: principal projections plus quadratic expansion.

One layer maps an incoming feature vector f to the derived features

    F_0 = (v0 . f) / |v0|,    F_a = (u_a . f)   for each kept component,

and then extends them with every product F_a * F_b for a <= b. The flat
output order is fixed: linear slots in index order, then pairs in
lexicographic (a, b) order. Every output slot is divided by a positive scale
calibrated to unit root-mean-square on the training rows, which stops the
products from exploding as layers stack. A parameter vector on the previous
space is always representable on the expanded space, so each round can only
enlarge the reachable model class. Stacking N layers yields features that
are polynomials of degree at most 2**N in the raw inputs. Every function
here takes a matrix whose rows are feature vectors, never a single vector,
except ``pair_products``, which takes one row per feature.
``RecursiveFeatureMap`` is the one record from raw input rows to features:
a per-column standardization, then the layers. Its two methods,
``transform`` and ``super_features``, take a matrix of raw rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

_ORTHO_TOL = 1e-10


def expansion_size(m: int) -> int:
    """Output width of the quadratic expansion of m features: m + m(m+1)/2."""
    return m + m * (m + 1) // 2


def expand(F, scales) -> np.ndarray:
    """Each row of F: its linear slots, then all symmetric products, each divided by its scale."""
    m = F.shape[1]
    # built feature-major, so each product is one contiguous multiply over the rows
    out = np.empty((scales.shape[0], F.shape[0]))
    out[:m] = F.T
    pair_products(out[:m], out[m:])
    out /= scales[:, None]
    # C order: the next layer's projection (a BLAS product) rounds by memory layout
    return np.ascontiguousarray(out.T)


def pair_products(Ft, out) -> np.ndarray:
    """Fill the rows of ``out`` with every product Ft_a * Ft_b, a <= b, in (a, b) order.

    ``Ft`` holds one feature per row (m, n), and ``out`` one product per row (pairs, n).
    """
    row = 0
    for a in range(Ft.shape[0]):
        width = Ft.shape[0] - a
        np.multiply(Ft[a], Ft[a:], out=out[row : row + width])
        row += width
    return out


@dataclass(frozen=True)
class Layer:
    """One round of projection and quadratic expansion with calibrated scales."""

    v0: np.ndarray
    u: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        v0 = np.asarray(self.v0, dtype=float)
        u = np.asarray(self.u, dtype=float)
        scales = np.asarray(self.scales, dtype=float)
        if v0.ndim != 1 or u.ndim != 2 or u.shape[1] != v0.shape[0]:
            raise ValueError("projection rows must match the mean vector dimension")
        for name, values in (("v0", v0), ("u", u)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v0))
        if not np.isfinite(norm):
            raise ValueError("v0 must have a finite norm")
        if u.shape[0]:
            # an overflowing Gram matrix holds inf or nan, which the test rejects
            with np.errstate(over="ignore", invalid="ignore"):
                defect = float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
            if not defect <= _ORTHO_TOL:
                raise ValueError("projection rows must be orthonormal")
        if scales.shape != (expansion_size(u.shape[0] + 1),):
            raise ValueError("scale vector length does not match the expanded width")
        if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
            raise ValueError("scales must be positive and finite")
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "scales", scales)

    @property
    def degenerate_v0(self) -> bool:
        """Whether v0 has zero norm (a nonzero v0 can, if its squares underflow): no usable F_0."""
        return float(np.linalg.norm(self.v0)) == 0.0

    @property
    def m_in(self) -> int:
        return self.v0.shape[0]

    @property
    def k(self) -> int:
        return self.u.shape[0]

    @property
    def m_super(self) -> int:
        return self.k + 1

    @property
    def m_out(self) -> int:
        return expansion_size(self.m_super)

    def super_features(self, F) -> np.ndarray:
        """Projection step only: (F_0, F_1..F_k) of every row of the matrix F.

        A degenerate (zero) mean direction has no usable F_0; the constant
        feature 1 takes its place so the model keeps a bias slot.
        """
        f0 = np.ones(F.shape[0]) if self.degenerate_v0 else (F @ self.v0) / np.linalg.norm(self.v0)
        return np.concatenate([f0[:, None], F @ self.u.T], axis=1)

    def apply(self, F) -> np.ndarray:
        """Full layer on the rows of F: projection, quadratic expansion, and scaling."""
        return expand(self.super_features(F), self.scales)


def calibrate_layer(v0, u, F_train) -> Layer:
    """Layer on mean direction ``v0`` and component rows ``u`` (k, m), scaled on ``F_train``.

    Every expanded slot gets unit RMS on the training rows; slots that are
    identically zero there keep scale 1. A degenerate (zero-norm) mean
    direction warns. ``Layer`` validates ``v0`` and ``u``.
    """
    unit = Layer(v0, u, np.ones(expansion_size(len(u) + 1)))
    if unit.degenerate_v0:
        warnings.warn(
            "mean direction is zero; its derived feature is replaced by the constant 1",
            stacklevel=2,
        )
    raw = expand(unit.super_features(F_train), unit.scales)
    rms = np.sqrt(np.mean(raw * raw, axis=0))
    return replace(unit, scales=np.where(rms > 0.0, rms, 1.0))


def embed_mean_solution(layer: Layer) -> np.ndarray:
    """Parameter vector on the expanded space that reproduces the mean model.

    The previous space's weighted-mean score v0 . f equals |v0| * F_0, so a
    single coefficient |v0| * scale_0 on the linear F_0 slot recovers it. A
    degenerate (zero-norm) mean gets coefficient 0, hence the zero vector.
    """
    w = np.zeros(layer.m_out)
    w[0] = float(np.linalg.norm(layer.v0)) * float(layer.scales[0])
    return w


@dataclass(frozen=True)
class RecursiveFeatureMap:
    """Per-column standardization of raw rows, then an ordered stack of layers, left to right.

    ``scale`` entries are strictly positive; columns that were constant in
    the training data get scale 1 so the standardization stays well defined.
    """

    mean: np.ndarray
    scale: np.ndarray
    layers: tuple[Layer, ...] = ()

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
        object.__setattr__(self, "layers", tuple(self.layers))
        width = self.d + 1
        for i, layer in enumerate(self.layers):
            if layer.m_in != width:
                raise ValueError(
                    f"layer {i} expects input width {layer.m_in}, previous stage emits {width}"
                )
            width = layer.m_out

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].m_out if self.layers else self.d + 1

    def transform(self, X) -> np.ndarray:
        """Final feature matrix for a matrix of raw input rows."""
        Z = self.super_features(X)
        return expand(Z, self.layers[-1].scales) if self.layers else Z

    def super_features(self, X) -> np.ndarray:
        """Last layer's projected features (before products) for a matrix of raw input rows.

        With no layers this is the basic feature matrix: a column of ones, then
        the standardized entries.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected a matrix with {self.d} columns, got shape {X.shape}")
        Z = np.hstack([np.ones((X.shape[0], 1)), (X - self.mean) / self.scale])
        if not self.layers:
            return Z
        for layer in self.layers[:-1]:
            Z = layer.apply(Z)
        return self.layers[-1].super_features(Z)
