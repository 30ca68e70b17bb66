"""Feature-algebra diagnostics and small reference algebras.

A feature set closes under multiplication when every pointwise product
F_a(x) F_b(x) is a fixed linear combination sum_g C[a][b][g] F_g(x) of the
same features. The rank-3 coefficient array C is fitted here by least
squares over sampled feature rows, and the sampled defect of that fit is the
closure residual reported per iteration by the engine. Associativity of the
induced product is a pure statement about C and is checked directly.

Two exact reference algebras are built in: the complex numbers on basis
(1, i) and the quaternions on basis (1, i, j, k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_TINY = float(np.finfo(float).tiny)
_IDENTITY_TOL = 1e-9
_RIDGE = 1e-10
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class StructureConstants:
    """Coefficients c[a, b, g]: the g-component of the product of basis elements a, b."""

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be a cubic array, got shape {c.shape}")
        if c.shape[0] < 1:
            raise ValueError("the algebra needs at least one basis element")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.c.shape[0]


REFERENCE_ALGEBRAS = ("complex", "quaternion")


def reference_algebra(name: str) -> StructureConstants:
    """Exact multiplication tables for the built-in algebras, by name."""
    if name == "complex":
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = 1.0  # 1*1 = 1
        c[0, 1, 1] = 1.0  # 1*i = i
        c[1, 0, 1] = 1.0  # i*1 = i
        c[1, 1, 0] = -1.0  # i*i = -1
        return StructureConstants(c)
    if name == "quaternion":
        c = np.zeros((4, 4, 4))
        for a in range(4):
            c[0, a, a] = 1.0
            c[a, 0, a] = 1.0
        for a in (1, 2, 3):
            c[a, a, 0] = -1.0
        # i*j = k and cyclic permutations; reversed order flips the sign
        for a, b, g in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            c[a, b, g] = 1.0
            c[b, a, g] = -1.0
        return StructureConstants(c)
    raise ValueError(f"unknown algebra {name!r}; known: {', '.join(REFERENCE_ALGEBRAS)}")


def associativity_residual(sc: StructureConstants) -> float:
    """Largest absolute defect of the associativity identity over all index tuples."""
    c = sc.c
    lhs = np.einsum("abm,mgn->abgn", c, c)
    rhs = np.einsum("amn,bgm->abgn", c, c)
    return float(np.max(np.abs(lhs - rhs)))


def multiply(a, b, sc: StructureConstants) -> np.ndarray:
    """Product of two coordinate vectors under the structure constants."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (sc.n,) or b.shape != (sc.n,):
        raise ValueError(f"coordinate vectors must have length {sc.n}")
    return np.einsum("a,b,abg->g", a, b, sc.c)


def _check_identity(sc: StructureConstants, identity_index: int) -> None:
    eye = np.eye(sc.n)
    left = float(np.max(np.abs(sc.c[identity_index] - eye)))
    right = float(np.max(np.abs(sc.c[:, identity_index, :] - eye)))
    if max(left, right) > _IDENTITY_TOL:
        raise ValueError(
            f"basis element {identity_index} is not an identity; "
            "a power series needs one for its constant term"
        )


def power_series(coeffs, a, sc: StructureConstants, identity_index: int = 0) -> np.ndarray:
    """Coordinates of g(a) = sum_p coeffs[p] * a**p, evaluated by Horner's rule."""
    coeffs = [float(g) for g in coeffs]
    if not coeffs:
        raise ValueError("the coefficient list must be nonempty")
    a = np.asarray(a, dtype=float)
    if a.shape != (sc.n,):
        raise ValueError(f"coordinate vector must have length {sc.n}")
    if not 0 <= identity_index < sc.n:
        raise ValueError("identity_index out of range")
    _check_identity(sc, identity_index)
    e = np.zeros(sc.n)
    e[identity_index] = 1.0
    acc = coeffs[-1] * e
    for g in reversed(coeffs[:-1]):
        acc = multiply(acc, a, sc) + g * e
    return acc


@dataclass(frozen=True)
class AlgebraFitReport:
    """Least-squares structure constants with their sampled diagnostics.

    ``closure_residual`` is the RMS defect of the fitted product law over all
    unordered feature pairs and samples; ``normalized_residual`` divides it
    by the RMS of the products themselves, which makes it comparable across
    iterations whose feature magnitudes differ.
    """

    constants: StructureConstants
    closure_residual: float
    normalized_residual: float
    associativity_residual: float
    product_rms: float
    ill_conditioned: bool


def fit_structure_constants(F_samples, ridge: float = _RIDGE) -> AlgebraFitReport:
    """Fit C from sampled feature rows by ridge-damped normal equations.

    For each unordered pair (a, b) the product column F_a * F_b is projected
    onto the span of the feature columns. The constants are symmetric in
    (a, b) by construction since pointwise products commute. A rank-deficient
    sample matrix does not stop the fit (the damping keeps it defined) but is
    flagged as ill-conditioned. Fewer rows than features raise DataError.
    """
    F = np.asarray(F_samples, dtype=float)
    if F.ndim != 2:
        raise ValueError("expected a matrix of feature rows")
    n_samples, n = F.shape
    if n_samples < n:
        raise DataError(
            f"need at least {n} samples to fit the algebra of {n} features, got {n_samples}"
        )

    ii, jj = np.triu_indices(n)
    P = F[:, ii] * F[:, jj]
    G = F.T @ F
    coef = np.linalg.solve(G + ridge * np.eye(n), F.T @ P)
    defect = P - F @ coef

    closure = float(np.sqrt(np.mean(defect * defect)))
    product_rms = float(np.sqrt(np.mean(P * P)))
    normalized = closure / max(product_rms, _TINY)

    gev = np.linalg.eigvalsh(G)
    ill = bool(gev[0] <= max(gev[-1], 0.0) / _COND_LIMIT)

    c = np.zeros((n, n, n))
    c[ii, jj, :] = coef.T
    c[jj, ii, :] = coef.T
    sc = StructureConstants(c)
    return AlgebraFitReport(
        constants=sc,
        closure_residual=closure,
        normalized_residual=normalized,
        associativity_residual=associativity_residual(sc),
        product_rms=product_rms,
        ill_conditioned=ill,
    )
