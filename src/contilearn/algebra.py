"""Feature-algebra diagnostics and small reference algebras.

A feature set closes under multiplication when every pointwise product
F_a(x) F_b(x) is a fixed linear combination sum_g C[a][b][g] F_g(x) of the
same features. These structure constants are a plain (n, n, n) float array
c, with c[a, b, g] the g-component of the product of basis elements a and b.
They are fitted here by least squares over sampled feature rows, and the
sampled defect of that fit is the closure residual reported per iteration by
the engine. Associativity of the induced product is a pure statement about c
and is checked directly.

Two exact reference algebras are built in: the complex numbers on basis
(1, i) and the quaternions on basis (1, i, j, k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .featuremap import pair_products

_TINY = float(np.finfo(float).tiny)
_RIDGE = 1e-12  # relative: the equilibrated Gram matrix has a unit diagonal
_COND_LIMIT = 1e12

REFERENCE_ALGEBRAS = ("complex", "quaternion")


def reference_algebra(name: str) -> np.ndarray:
    """Exact structure constants of a built-in algebra, by name: a fresh (n, n, n) array."""
    if name == "complex":
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = 1.0  # 1*1 = 1
        c[0, 1, 1] = 1.0  # 1*i = i
        c[1, 0, 1] = 1.0  # i*1 = i
        c[1, 1, 0] = -1.0  # i*i = -1
        return c
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
        return c
    raise ValueError(f"unknown algebra {name!r}; known: {', '.join(REFERENCE_ALGEBRAS)}")


def associativity_residual(c: np.ndarray) -> float:
    """Largest absolute defect of the associativity identity over all index tuples of c."""
    lhs = np.einsum("abm,mgn->abgn", c, c)
    rhs = np.einsum("amn,bgm->abgn", c, c)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class AlgebraFitReport:
    """Least-squares structure constants with their sampled diagnostics.

    ``closure_residual`` is the RMS defect of the fitted product law over all
    unordered feature pairs and samples; ``normalized_residual`` divides it
    by the RMS of the products themselves, which makes it comparable across
    iterations whose feature magnitudes differ.
    """

    constants: np.ndarray
    closure_residual: float
    normalized_residual: float
    associativity_residual: float
    product_rms: float
    ill_conditioned: bool


def fit_structure_constants(*blocks) -> AlgebraFitReport:
    """Fit C from sampled feature rows by ridge-damped normal equations.

    ``blocks`` are the row blocks of one (samples, n) feature matrix, in
    order; a single matrix is the one-block case. For each unordered pair
    (a, b) the product column F_a * F_b is projected onto the span of the
    feature columns. The constants are symmetric in (a, b) by construction
    since pointwise products commute. The blocks are read twice: one pass
    accumulates the Gram matrix G, the right-hand side and the products' sum
    of squares, a second the defect, so no (samples x pairs) array is built.
    G is equilibrated by its diagonal before the relative damping ``_RIDGE``
    is added, which keeps the fit defined at any feature scale; the sample
    matrix is flagged ill-conditioned from the eigenvalues of that
    equilibrated G. Fewer rows than features, or features whose products
    overflow, raise DataError.
    """
    n = blocks[0].shape[1]
    n_samples = sum(len(Fb) for Fb in blocks)
    if n_samples < n:
        raise DataError(
            f"need at least {n} samples to fit the algebra of {n} features, got {n_samples}"
        )

    ii, jj = np.triu_indices(n)
    # one block's products, a row per pair so pair_products fills whole rows; the sums and
    # matmuls read the transpose, a Fortran-order (rows, pairs) array, and round by that layout
    P = np.empty((len(ii), max(len(Fb) for Fb in blocks)))

    def products():
        for Fb in blocks:
            yield Fb, pair_products(np.ascontiguousarray(Fb.T), P[:, : len(Fb)]).T

    G = np.zeros((n, n))
    rhs = np.zeros((n, len(ii)))
    product_sq = closure_sq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for Fb, Pb in products():
            G += Fb.T @ Fb
            rhs += Fb.T @ Pb
            Pb *= Pb
            product_sq += Pb.sum()
        product_rms = float(np.sqrt(product_sq / (n_samples * len(ii))))
        if not (np.isfinite(product_rms) and np.isfinite(G).all() and np.isfinite(rhs).all()):
            raise DataError("feature values too large in magnitude to fit their products")

        d = np.sqrt(np.diag(G))
        d[d == 0.0] = 1.0
        # divide twice rather than by d d^T, whose entries can underflow
        A = G / d[:, None] / d
        gev = np.linalg.eigvalsh(A)
        A[np.diag_indices(n)] += _RIDGE
        coef = np.linalg.solve(A, rhs / d[:, None]) / d[:, None]

        defect = np.empty_like(P).T
        for Fb, Pb in products():
            Db = np.matmul(Fb, coef, out=defect[: len(Fb)])
            Db -= Pb
            Db *= Db
            closure_sq += Db.sum()
        closure = float(np.sqrt(closure_sq / (n_samples * len(ii))))
    if not np.isfinite(closure):
        raise NumericalError("algebra", "structure-constant fit overflowed")
    normalized = closure / max(product_rms, _TINY)
    ill = bool(gev[0] <= max(gev[-1], 0.0) / _COND_LIMIT)

    c = np.zeros((n, n, n))
    c[ii, jj, :] = coef.T
    c[jj, ii, :] = coef.T
    return AlgebraFitReport(
        constants=c,
        closure_residual=closure,
        normalized_residual=normalized,
        associativity_residual=associativity_residual(c),
        product_rms=product_rms,
        ill_conditioned=ill,
    )
