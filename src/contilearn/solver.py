"""Damped Newton ascent for the regularized logistic objective, S problems at a time.

With prior precision r > 0 each objective is strictly concave and its
negated Hessian is positive definite, so the maximizer is unique. The
problems of one batch share the labels and the feature matrix and differ in
their per-sample counts (a bootstrap replicate weights row t by how often it
was drawn) and starting points. Every Newton step computes the gradients of
all unfinished problems at once, their stacked Hessians in chunks of a
bounded size, one batched Cholesky check and one batched solve. The line
search keeps one step length per problem and multiplies it by
``_BACKTRACK`` until the Armijo condition (constant ``_ARMIJO``) holds,
comparing against the directly computed objective change, so it stays
sound when the change is below one ulp of the objective.

A problem is finished once its gradient norm falls to ``grad_tol`` (the
only convergence test), when its line search is exhausted, after
``max_iters`` steps, or when its negated Hessian has no Cholesky factor (it
is then marked failed); finished problems take no further part. Its
``grad_norm`` is from the gradient evaluation that finished it, so a solve
evaluates at most ``max_iters + 1`` gradients. ``maximize`` is the
one-problem case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import Prior, gradient, hessian, log_likelihood, log_likelihood_change

_BACKTRACK = 0.5
_ARMIJO = 1e-4
_MIN_STEP = 1e-20
# float64 entries per stacked-Hessian chunk (0.5 MB), counting its (S, m, T) temporary
_CHUNK_FLOATS = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-8
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not self.grad_tol > 0:
            raise ConfigError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass(frozen=True)
class Solution:
    """Result of one maximization: final point, objective, and convergence state.

    ``converged`` means ``grad_norm <= grad_tol``, where ``grad_norm`` comes
    from the gradient evaluation that ended the solve.
    """

    w: np.ndarray
    L_value: float
    grad_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BatchSolution:
    """Results of S problems solved together; index s of every field is problem s.

    ``converged[s]`` means ``grad_norm[s] <= grad_tol``, with ``grad_norm[s]``
    from the gradient evaluation that finished problem s. ``error[s]`` is
    None for a solved problem, otherwise why it failed (its other entries
    are then not meaningful and ``converged[s]`` is False).
    """

    w: np.ndarray
    L_value: np.ndarray
    grad_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    error: tuple[str | None, ...]


def _positive_definite(A: np.ndarray) -> np.ndarray:
    """Which matrices of the stack have a Cholesky factor; one batched call when all do."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_positive_definite(a[None]) for a in A])
    return np.ones(len(A), dtype=bool)


def _newton_directions(W, y, F, prior, counts, G):
    """Solve -H_s d_s = g_s for every row; also returns which -H_s were positive definite."""
    S, m = W.shape
    chunk = max(1, _CHUNK_FLOATS // (m * max(F.shape[0], m)))
    D = np.zeros_like(G)
    ok = np.ones(S, dtype=bool)
    for lo in range(0, S, chunk):
        part = slice(lo, lo + chunk)
        A = -hessian(W[part], y, F, prior, counts[part])
        good = _positive_definite(A)
        ok[part] = good
        D[part][good] = np.linalg.solve(A[good], G[part][good][..., None])[..., 0]
    return D, ok


def _line_search(W, D, slope, y, F, prior, counts):
    """Backtrack each row's step length until its objective change passes Armijo.

    Returns the accepted changes (zero where none), the step lengths and
    which rows found a step before the length fell to ``_MIN_STEP``.
    """
    t = np.ones(len(W))
    change = np.zeros(len(W))
    accepted = np.zeros(len(W), dtype=bool)
    pending = np.arange(len(W))
    while pending.size:
        step = t[pending, None] * D[pending]
        dL = log_likelihood_change(W[pending], step, y, F, prior, counts[pending])
        good = np.isfinite(dL) & (dL >= _ARMIJO * t[pending] * slope[pending])
        accepted[pending[good]] = True
        change[pending[good]] = dL[good]
        pending = pending[~good]
        t[pending] *= _BACKTRACK
        pending = pending[t[pending] > _MIN_STEP]
    return change, t, accepted


def maximize_batch(
    y, F, counts, prior: Prior, config: SolverConfig | None = None, w_init=None
) -> BatchSolution:
    """Maximize S count-weighted objectives over one feature matrix.

    ``counts`` has shape (S, T); ``w_init`` is one start for every problem
    or S stacked starts (zero vectors by default). A problem whose starting
    objective is not finite, or whose negated Hessian is not positive
    definite, is reported in ``error`` and does not stop the others.
    """
    config = config or SolverConfig()
    y = np.asarray(y, dtype=float)
    F = np.asarray(F, dtype=float)
    counts = np.asarray(counts, dtype=float)
    S, m = counts.shape[0], F.shape[1]
    W = np.zeros((S, m)) if w_init is None else np.array(np.broadcast_to(w_init, (S, m)), float)

    L = log_likelihood(W, y, F, prior, counts)
    error: list[str | None] = [None] * S
    active = np.isfinite(L)
    for s in np.flatnonzero(~active):
        error[s] = "objective is not finite at the starting point"
    grad_norm = np.full(S, np.nan)
    iterations = np.zeros(S, dtype=int)

    for step in range(config.max_iters + 1):
        rows = np.flatnonzero(active)
        G = gradient(W[rows], y, F, prior, counts[rows])
        grad_norm[rows] = np.linalg.norm(G, axis=1)
        moving = grad_norm[rows] > config.grad_tol
        active[rows[~moving]] = False
        rows, G = rows[moving], G[moving]
        if rows.size == 0 or step == config.max_iters:
            break
        D, ok = _newton_directions(W[rows], y, F, prior, counts[rows], G)
        for s in rows[~ok]:
            error[s] = "negated Hessian is not positive definite"
        active[rows[~ok]] = False
        rows, G, D = rows[ok], G[ok], D[ok]
        slope = np.sum(G * D, axis=1)
        change, t, accepted = _line_search(W[rows], D, slope, y, F, prior, counts[rows])
        # an exhausted line search has reached numerical precision: keep the best iterate
        active[rows[~accepted]] = False
        rows, t, D, change = rows[accepted], t[accepted], D[accepted], change[accepted]
        W[rows] += t[:, None] * D
        L[rows] += change
        iterations[rows] += 1

    return BatchSolution(
        w=W,
        L_value=L,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= config.grad_tol,
        error=tuple(error),
    )


def maximize(y, F, prior: Prior, config: SolverConfig | None = None, w_init=None) -> Solution:
    """Maximize the regularized objective from ``w_init`` (zero vector by default).

    Returns a converged solution when the gradient norm falls below
    ``grad_tol``; otherwise the best iterate found, flagged unconverged.
    Raises NumericalError if the objective is not finite at the start or
    the negated Hessian loses positive definiteness.
    """
    F = np.asarray(F, dtype=float)
    m = F.shape[1]
    w = np.zeros(m) if w_init is None else np.asarray(w_init, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"w_init has shape {w.shape}, expected ({m},)")
    batch = maximize_batch(y, F, np.ones((1, F.shape[0])), prior, config, w[None])
    if batch.error[0] is not None:
        raise NumericalError("solver", batch.error[0])
    return Solution(
        w=batch.w[0],
        L_value=float(batch.L_value[0]),
        grad_norm=float(batch.grad_norm[0]),
        iterations=int(batch.iterations[0]),
        converged=bool(batch.converged[0]),
    )
