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
are polynomials of degree at most 2**N in the raw inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Standardization

_ORTHO_TOL = 1e-10


def expansion_size(m: int) -> int:
    """Output width of the quadratic expansion of m features: m + m(m+1)/2."""
    return m + m * (m + 1) // 2


def expansion_pairs(m: int):
    """Index pairs (a, b) with a <= b, in the fixed lexicographic output order."""
    return np.triu_indices(m)


def expand(F, scales) -> np.ndarray:
    """Linear slots followed by all symmetric products, each divided by its scale."""
    F = np.asarray(F, dtype=float)
    scales = np.asarray(scales, dtype=float)
    single = F.ndim == 1
    G = np.atleast_2d(F)
    m = G.shape[1]
    if scales.shape != (expansion_size(m),):
        raise ValueError(
            f"scales must have length {expansion_size(m)} for {m} features,"
            f" got {scales.shape}"
        )
    if np.any(scales <= 0):
        raise ValueError("scales must be strictly positive")
    ii, jj = expansion_pairs(m)
    out = np.concatenate([G, G[:, ii] * G[:, jj]], axis=1) / scales
    return out[0] if single else out


@dataclass(frozen=True)
class Layer:
    """One round of projection and quadratic expansion with calibrated scales."""

    v0: np.ndarray
    u: np.ndarray
    scales: np.ndarray
    degenerate_v0: bool = False

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
        if not self.degenerate_v0 and norm == 0.0:
            raise ValueError("zero mean direction requires the degenerate flag")
        if u.shape[0]:
            gram = u @ u.T
            if not float(np.max(np.abs(gram - np.eye(u.shape[0])))) <= _ORTHO_TOL:
                raise ValueError("projection rows must be orthonormal")
        if scales.shape != (expansion_size(u.shape[0] + 1),):
            raise ValueError("scale vector length does not match the expanded width")
        if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
            raise ValueError("scales must be positive and finite")
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "scales", scales)

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
        """Projection step only: (F_0, F_1..F_k) of one feature vector or a matrix of them.

        A degenerate (zero) mean direction has no usable F_0; the constant
        feature 1 takes its place so the model keeps a bias slot.
        """
        F = np.asarray(F, dtype=float)
        single = F.ndim == 1
        G = np.atleast_2d(F)
        if G.shape[1] != self.m_in:
            raise ValueError(f"layer expects width {self.m_in}, got {G.shape[1]}")
        if self.degenerate_v0:
            f0 = np.ones(G.shape[0])
        else:
            f0 = (G @ self.v0) / np.linalg.norm(self.v0)
        out = np.concatenate([f0[:, None], G @ self.u.T], axis=1)
        return out[0] if single else out

    def apply(self, F) -> np.ndarray:
        """Full layer: projection, quadratic expansion, and scaling."""
        return expand(self.super_features(F), self.scales)


def calibrate_layer(v0, u, F_train) -> Layer:
    """Layer on mean direction ``v0`` and component rows ``u`` (k, m), scaled on ``F_train``.

    Every expanded slot gets unit RMS on the training rows; slots that are
    identically zero there keep scale 1. A zero mean direction is flagged
    degenerate, with a warning. ``Layer`` validates ``v0`` and ``u``.
    """
    G = np.asarray(F_train, dtype=float)
    if G.ndim != 2:
        raise ValueError("calibration requires a matrix of training feature rows")
    degenerate = float(np.linalg.norm(v0)) == 0.0
    unit = Layer(v0, u, np.ones(expansion_size(len(u) + 1)), degenerate)
    if degenerate:
        warnings.warn(
            "mean direction is zero; its derived feature is replaced by the constant 1",
            stacklevel=2,
        )
    raw = expand(unit.super_features(G), unit.scales)
    rms = np.sqrt(np.mean(raw * raw, axis=0))
    return replace(unit, scales=np.where(rms > 0.0, rms, 1.0))


def embed_mean_solution(layer: Layer) -> np.ndarray:
    """Parameter vector on the expanded space that reproduces the mean model.

    The previous space's weighted-mean score v0 . f equals |v0| * F_0, so a
    single coefficient |v0| * scale_0 on the linear F_0 slot recovers it. A
    degenerate (all-zero) mean scores zero everywhere, hence the zero vector.
    """
    w = np.zeros(layer.m_out)
    if not layer.degenerate_v0:
        w[0] = float(np.linalg.norm(layer.v0)) * float(layer.scales[0])
    return w


@dataclass(frozen=True)
class RecursiveFeatureMap:
    """Standardization plus an ordered stack of layers, applied left to right."""

    standardization: Standardization
    layers: tuple[Layer, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        width = self.standardization.d + 1
        for i, layer in enumerate(self.layers):
            if layer.m_in != width:
                raise ValueError(
                    f"layer {i} expects input width {layer.m_in}, previous stage emits {width}"
                )
            width = layer.m_out

    @property
    def d(self) -> int:
        return self.standardization.d

    @property
    def output_dim(self) -> int:
        return self.layers[-1].m_out if self.layers else self.d + 1

    def transform(self, X) -> np.ndarray:
        """Final feature matrix for raw input rows."""
        Z = self.standardization.design_matrix(np.asarray(X, dtype=float))
        for layer in self.layers:
            Z = layer.apply(Z)
        return Z

    def super_features(self, X) -> np.ndarray:
        """Last layer's projected features (before products) for raw input rows.

        With no layers this is just the basic feature matrix.
        """
        Z = self.standardization.design_matrix(np.asarray(X, dtype=float))
        if not self.layers:
            return Z
        for layer in self.layers[:-1]:
            Z = layer.apply(Z)
        return self.layers[-1].super_features(Z)
