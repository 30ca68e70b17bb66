"""Damped Newton ascent for the regularized logistic objective, S problems at a time.

With a float prior precision r > 0 each objective is strictly concave and
its negated Hessian is positive definite, so the maximizer is unique. The
problems of one batch share the labels and the feature matrix and differ in
their per-sample counts (a bootstrap replicate weights row t by how often it
was drawn) and starting points. Every Newton step computes the gradients of
all unfinished problems at once, their stacked Hessians in chunks of a
bounded size and one batched solve per chunk, so each Newton system is
factored once. The line search keeps one step length per problem and
multiplies it by ``_BACKTRACK`` until the Armijo condition (constant
``_ARMIJO``) holds, comparing against the directly computed objective
change, so it stays sound when the change is below one ulp of the
objective.

A problem is finished once its gradient norm falls to ``grad_tol`` (the
only convergence test), when its line search is exhausted, after
``max_iters`` steps, or when its gradient is not finite, its Newton system
is singular or its direction is not finite or does not ascend (it is then
marked failed); finished problems take no further part. Only rounding
reaches the last two cases, since the negated Hessian is positive definite
in exact arithmetic. An indefinite negated Hessian whose direction ascends
is accepted, and the Armijo search keeps every accepted step an ascent. An
objective, gradient or gradient norm beyond the largest double (a huge
prior precision away from zero) reads as infinite and meets these checks
instead of raising a numpy warning. Its ``grad_norm`` is from the gradient
evaluation that finished it, so a solve evaluates at most ``max_iters + 1``
gradients. ``maximize`` is the one-problem case.

The unfinished problems' original indices, iterates and count rows are
kept as compact arrays, and the batch shrinks, by one boolean mask, only in
a step where some problem finishes. The line search shrinks its own copy of
the pending rows the same way, so a step also copies (S, T) count rows
whenever some problems pass the Armijo test while others backtrack. A
problem's last bits depend on which problems share its batch, since a
stacked BLAS product rounds a row by the stack's row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .model import gradient, hessian, log_likelihood, log_likelihood_change

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

    @property
    def solved(self) -> np.ndarray:
        """Indices of the problems whose solve did not fail, in order."""
        return np.flatnonzero([error is None for error in self.error])

    @property
    def n_failed(self) -> int:
        return sum(error is not None for error in self.error)


def _newton_directions(W, y, F, r, counts, G):
    """Solve -H_s d_s = g_s for every row; a singular system's row of the result is NaN.

    Each chunk of the stack is one batched solve. Only when that call finds
    a singular matrix are the chunk's systems solved one at a time.
    """
    S, m = W.shape
    chunk = max(1, _CHUNK_FLOATS // (m * max(F.shape[0], m)))
    D = np.empty_like(G)
    for lo in range(0, S, chunk):
        part = slice(lo, lo + chunk)
        A = hessian(W[part], y, F, r, counts[part])
        np.negative(A, out=A)
        b = G[part, :, None]
        try:
            D[part] = np.linalg.solve(A, b)[..., 0]
        except np.linalg.LinAlgError:
            for i in range(len(A)):
                try:
                    D[lo + i] = np.linalg.solve(A[i : i + 1], b[i : i + 1])[0, :, 0]
                except np.linalg.LinAlgError:
                    D[lo + i] = np.nan
    return D


def _line_search(W, D, slope, y, F, r, counts):
    """Backtrack each row's step length until its objective change passes Armijo.

    Returns the accepted changes (zero where none), the step lengths and
    which rows found a step before the length fell to ``_MIN_STEP``.
    """
    t = np.ones(len(W))
    change = np.zeros(len(W))
    accepted = np.zeros(len(W), dtype=bool)
    pending = np.arange(len(W))
    while pending.size:
        dL = log_likelihood_change(W, t[pending, None] * D, y, F, r, counts)
        good = np.isfinite(dL) & (dL >= _ARMIJO * t[pending] * slope)
        accepted[pending[good]] = True
        change[pending[good]] = dL[good]
        t[pending[~good]] *= _BACKTRACK
        more = ~good & (t[pending] > _MIN_STEP)
        pending, W, D, slope, counts = _keep(more, pending, W, D, slope, counts)
    return change, t, accepted


def _keep(mask, *arrays):
    """The rows of each array where ``mask`` is set; the arrays themselves if it is all set."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def maximize_batch(
    y, F, counts, r: float, config: SolverConfig = SolverConfig(), w_init=0.0
) -> BatchSolution:
    """Maximize S count-weighted objectives over one feature matrix.

    ``counts`` has shape (S, T); ``w_init`` is one start for every problem
    or S stacked starts (0.0, the zero vector, by default). A problem whose starting
    objective is not finite, whose gradient is not finite, whose Newton
    system is singular, or whose Newton direction is not finite or does not
    ascend (g·d <= 0), is reported in ``error`` and does not stop the others.
    """
    S, m = counts.shape[0], F.shape[1]
    W = np.array(np.broadcast_to(w_init, (S, m)), float)

    with np.errstate(over="ignore"):
        L = log_likelihood(W, y, F, r, counts)
    error: list[str | None] = [None] * S
    finite_start = np.isfinite(L)
    for s in np.flatnonzero(~finite_start):
        error[s] = "objective is not finite at the starting point"
    grad_norm = np.full(S, np.nan)
    iterations = np.zeros(S, dtype=int)
    # the unfinished problems: their original indices, iterates and counts. The copy makes
    # the iterates C-ordered (a 1-D start broadcasts to Fortran order): BLAS rounds by layout
    idx, Wa, C = _keep(finite_start, np.arange(S), W.copy(), counts)

    for step in range(config.max_iters + 1):
        with np.errstate(over="ignore"):
            G = gradient(Wa, y, F, r, C)
            grad_norm[idx] = np.linalg.norm(G, axis=1)
        finite = np.isfinite(G).all(axis=1)
        for s in idx[~finite]:
            error[s] = "gradient is not finite"
        moving = finite & (grad_norm[idx] > config.grad_tol)
        if step == config.max_iters or not moving.any():
            break
        idx, Wa, C, G = _keep(moving, idx, Wa, C, G)
        D = _newton_directions(Wa, y, F, r, C, G)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.sum(G * D, axis=1)
        ok = np.isfinite(D).all(axis=1) & (slope > 0)
        for s in idx[~ok]:
            error[s] = "Newton system is singular or its direction does not ascend"
        idx, Wa, C, D, slope = _keep(ok, idx, Wa, C, D, slope)
        change, t, accepted = _line_search(Wa, D, slope, y, F, r, C)
        # an exhausted line search has reached numerical precision: keep the best iterate
        idx, Wa, C, D, t, change = _keep(accepted, idx, Wa, C, D, t, change)
        Wa += t[:, None] * D
        W[idx] = Wa
        L[idx] += change
        iterations[idx] += 1

    return BatchSolution(
        w=W,
        L_value=L,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=grad_norm <= config.grad_tol,
        error=tuple(error),
    )


def maximize(y, F, r: float, config: SolverConfig = SolverConfig(), w_init=0.0) -> Solution:
    """Maximize the regularized objective from ``w_init``, which defaults to 0.0, the zero vector.

    Returns a converged solution when the gradient norm falls below
    ``grad_tol``; otherwise the best iterate found, flagged unconverged.
    Raises NumericalError if the objective is not finite at the start, the
    gradient is not finite, or a Newton system is singular or its direction
    does not ascend.
    """
    batch = maximize_batch(y, F, np.ones((1, F.shape[0])), r, config, w_init)
    if batch.error[0] is not None:
        raise NumericalError("solver", batch.error[0])
    return Solution(
        w=batch.w[0],
        L_value=float(batch.L_value[0]),
        grad_norm=float(batch.grad_norm[0]),
        iterations=int(batch.iterations[0]),
        converged=bool(batch.converged[0]),
    )
