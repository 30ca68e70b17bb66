import tracemalloc

import numpy as np
import pytest

from contilearn import solver
from contilearn.ensemble import sample_plans
from contilearn.errors import NumericalError
from contilearn.model import gradient, hessian, log_likelihood, sigmoid
from contilearn.solver import Solution, SolverConfig, maximize, maximize_batch
from tests.conftest import random_instance


def bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    assert flo * f(hi) <= 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def test_symmetric_dataset_maximizer_is_zero():
    # identical features, one label each way: the data pull cancels, the prior pins 0
    F = np.array([[1.0, -0.5], [1.0, -0.5]])
    y = np.array([0.0, 1.0])
    sol = maximize(y, F, 1.0)
    assert sol.converged
    assert np.array_equal(sol.w, np.zeros(2))
    assert sol.iterations == 0


def test_one_dimensional_separable_against_bisection():
    # stationarity in one variable: -w + 2 / (1 + e^w) = 0, root found independently
    F = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    sol = maximize(y, F, 1.0)
    root = bisect(lambda w: -w + 2.0 * sigmoid(-w), 0.0, 2.0)
    assert sol.converged
    assert abs(sol.w[0] - root) <= 1e-6


def test_restart_from_optimum_is_a_fixed_point():
    rng = np.random.default_rng(5)
    y, F = random_instance(rng, t_max=20, m=4)
    prior = 1.0
    first = maximize(y, F, prior)
    second = maximize(y, F, prior, w_init=first.w)
    assert second.converged
    assert abs(second.L_value - first.L_value) <= 1e-12
    assert second.iterations == 0


def test_objective_trace_is_monotone():
    # the objective after n steps is the value of a solve cut off at max_iters = n
    rng = np.random.default_rng(6)
    y, F = random_instance(rng, t_max=40, m=6)
    prior = 0.5
    full = maximize(y, F, prior)
    trace = [
        maximize(y, F, prior, SolverConfig(max_iters=n)).L_value
        for n in range(1, full.iterations + 1)
    ]
    assert len(trace) >= 2
    assert trace[0] >= log_likelihood(np.zeros(6), y, F, prior)
    assert np.all(np.diff(trace) >= 0.0)
    assert trace[-1] == full.L_value


def test_solution_improves_on_start():
    rng = np.random.default_rng(7)
    y, F = random_instance(rng, t_max=25, m=5)
    prior = 1.0
    w0 = rng.normal(size=5)
    sol = maximize(y, F, prior, w_init=w0)
    assert sol.L_value >= log_likelihood(w0, y, F, prior)


@pytest.mark.parametrize("seed", range(4))
def test_unique_maximizer_from_random_starts(seed):
    rng = np.random.default_rng(300 + seed)
    y, F = random_instance(rng, t_max=30, m=4)
    prior = 1.0
    solutions = [maximize(y, F, prior, w_init=rng.normal(size=4)).w for _ in range(5)]
    for w in solutions[1:]:
        assert np.max(np.abs(w - solutions[0])) <= 1e-6


def test_doubling_max_iters_keeps_converged_result():
    rng = np.random.default_rng(8)
    y, F = random_instance(rng, t_max=30, m=4)
    prior = 1.0
    a = maximize(y, F, prior, SolverConfig(max_iters=100))
    b = maximize(y, F, prior, SolverConfig(max_iters=200))
    assert a.converged and b.converged
    assert np.array_equal(a.w, b.w)


def test_non_finite_start_raises():
    with pytest.raises(NumericalError, match="solver"):
        maximize(np.array([0.0, 1.0]), np.ones((2, 1)), 1.0, w_init=np.array([np.nan]))


def test_overflow_under_a_huge_prior_reads_as_infinite():
    # at r = 1e308: |r w|^2 overflows from w = 1, r w itself from 1.85, and r |w|^2 / 2 from 1.9
    rng = np.random.default_rng(0)
    y, F = random_instance(rng, t_max=10, m=3)
    starts = np.array([[1.0, 0.0, 0.0], [1.85, 0.0, 0.0], [1.9, 0.0, 0.0]])
    batch = maximize_batch(y, F, np.ones((3, 10)), 1e308, w_init=starts)
    assert batch.converged.tolist() == [True, False, False]
    assert batch.error == (
        None,
        "gradient is not finite",
        "objective is not finite at the starting point",
    )


def test_unconverged_run_is_flagged():
    rng = np.random.default_rng(9)
    y, F = random_instance(rng, t_max=40, m=5)
    sol = maximize(y, F, 0.1, SolverConfig(max_iters=1, grad_tol=1e-14))
    assert isinstance(sol, Solution)
    assert not sol.converged
    assert sol.iterations == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize("seed", range(3))
def test_count_weighted_batch_matches_subsample_solves(seed):
    # oracle: replicate s solved alone on its multiset of rows y[idx], F[idx]
    rng = np.random.default_rng(400 + seed)
    y, F = random_instance(rng, t_max=30, m=5)
    prior = 0.5
    plans = [rng.integers(0, 30, size=30) for _ in range(6)]
    counts = np.stack([np.bincount(idx, minlength=30) for idx in plans])
    batch = maximize_batch(y, F, counts, prior)
    assert batch.error == (None,) * 6
    for s, idx in enumerate(plans):
        alone = maximize(y[idx], F[idx], prior)
        assert np.max(np.abs(batch.w[s] - alone.w)) <= 1e-6
        assert abs(batch.L_value[s] - alone.L_value) <= 1e-9 * abs(alone.L_value)
        assert batch.converged[s] and batch.grad_norm[s] <= SolverConfig().grad_tol


def same_fields(a, b):
    """Every field of two solutions equal: the error texts, and the rest bit for bit."""
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if name == "error":
            same = x == y
        else:
            x, y = np.asarray(x), np.asarray(y)
            same = (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        if not same:
            return False
    return True


def test_the_defaults_are_the_default_config_and_a_zero_start():
    rng = np.random.default_rng(420)
    y, F = random_instance(rng, t_max=30, m=5)
    counts = sample_plans(6, 420, 30)
    batch = maximize_batch(y, F, counts, 0.5)
    assert batch.iterations.min() > 0
    assert same_fields(batch, maximize_batch(y, F, counts, 0.5, SolverConfig(), np.zeros((6, 5))))
    sol = maximize(y, F, 0.5)
    assert sol.iterations > 0
    assert same_fields(sol, maximize(y, F, 0.5, SolverConfig(), np.zeros(5)))


def test_convergence_below_one_ulp_of_the_objective():
    # a large objective whose last Newton steps change it by less than one ulp:
    # comparing objective values would exhaust the line search here
    rng = np.random.default_rng(430)
    y, F = random_instance(rng, t_max=40, m=4)
    counts = np.full((1, 40), 1e6)
    batch = maximize_batch(y, F, counts, 1.0, SolverConfig(grad_tol=1e-6))
    assert batch.converged[0]
    assert batch.iterations[0] < SolverConfig().max_iters


NO_ASCENT = "Newton system is singular or its direction does not ascend"


def _four_replicates(seed):
    rng = np.random.default_rng(seed)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = np.stack([np.bincount(rng.integers(0, 25, size=25), minlength=25) for _ in range(4)])
    return y, F, counts.astype(float)


def _replace_hessian(monkeypatch, doomed_counts, replace):
    """Patch ``solver.hessian`` so the problem with counts ``doomed_counts`` gets ``replace(H)``."""

    def patched(w, y, F, r, counts=1.0):
        H = hessian(w, y, F, r, counts)
        for i in np.flatnonzero((counts == doomed_counts).all(axis=1)):
            H[i] = replace(H[i])
        return H

    monkeypatch.setattr(solver, "hessian", patched)


@pytest.mark.parametrize("chunk_floats", [1 << 16, 150], ids=["one-chunk", "two-per-chunk"])
def test_a_singular_system_leaves_the_other_directions_bit_equal(monkeypatch, chunk_floats):
    # 150 floats hold two 3 x 25 problems, so the singular one shares its chunk with one other
    monkeypatch.setattr(solver, "_CHUNK_FLOATS", chunk_floats)
    y, F, counts = _four_replicates(440)
    W = np.random.default_rng(1).normal(scale=0.3, size=(4, 3))
    prior = 1.0
    G = gradient(W, y, F, prior, counts)
    intact = solver._newton_directions(W, y, F, prior, counts, G)
    _replace_hessian(monkeypatch, counts[2], np.zeros_like)
    D = solver._newton_directions(W, y, F, prior, counts, G)
    assert np.isnan(D[2]).all()
    assert np.array_equal(D[[0, 1, 3]], intact[[0, 1, 3]])


@pytest.mark.parametrize("replace", [np.zeros_like, np.negative], ids=["singular", "descent"])
def test_a_failed_newton_system_fails_its_problem_alone(monkeypatch, replace):
    # a zero matrix is singular; a negated one solves, but its direction descends.
    # The others' iterates agree to rounding only: once a problem leaves the batch,
    # BLAS may round each row of the smaller stacked products differently.
    y, F, counts = _four_replicates(440)
    intact = maximize_batch(y, F, counts, 1.0)
    _replace_hessian(monkeypatch, counts[2], replace)
    batch = maximize_batch(y, F, counts, 1.0)
    assert intact.error == (None,) * 4
    assert batch.error == (None, None, NO_ASCENT, None)
    assert not batch.converged[2]
    for s in (0, 1, 3):
        assert np.max(np.abs(batch.w[s] - intact.w[s])) <= 1e-12
        assert batch.converged[s] and batch.iterations[s] == intact.iterations[s]


def test_an_indefinite_system_whose_direction_ascends_is_accepted(monkeypatch):
    # the first Newton system becomes u u^T - v v^T, with u along the gradient and v
    # orthogonal to it: indefinite, and its direction is the gradient itself
    rng = np.random.default_rng(441)
    y, F = random_instance(rng, t_max=30, m=2)
    prior = 1.0
    w0 = np.array([0.4, -0.3])
    intact = maximize(y, F, prior, w_init=w0)
    calls = []

    def first_indefinite(w, y, F, r, counts=1.0):
        calls.append(len(w))
        if len(calls) > 1:
            return hessian(w, y, F, r, counts)
        u = gradient(w, y, F, r, counts)[0]
        u = u / np.linalg.norm(u)
        v = np.array([-u[1], u[0]])
        return -(np.outer(u, u) - np.outer(v, v))[None]

    monkeypatch.setattr(solver, "hessian", first_indefinite)
    sol = maximize(y, F, prior, w_init=w0)
    assert len(calls) > 1
    assert sol.converged
    assert np.max(np.abs(sol.w - intact.w)) <= 1e-6


def test_a_newton_direction_of_zero_slope_does_not_ascend(monkeypatch):
    # identical columns give the gradient (g, g) at w = 0, and -H = diag(1, -1) turns it
    # into d = (g, -g), whose slope g^2 - g^2 is exactly 0: not an ascent direction
    F = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([1.0, 0.0, 1.0])
    H = np.diag([-1.0, 1.0])
    monkeypatch.setattr(solver, "hessian", lambda w, *args, **kwargs: np.tile(H, (len(w), 1, 1)))
    assert np.array_equal(gradient(np.zeros((1, 2)), y, F, 1.0), [[1.0, 1.0]])
    with pytest.raises(NumericalError, match=f"^solver: {NO_ASCENT}$"):
        maximize(y, F, 1.0)


def test_a_singular_newton_system_raises_from_maximize(monkeypatch):
    monkeypatch.setattr(solver, "hessian", lambda w, *args, **kwargs: np.zeros((len(w), 2, 2)))
    rng = np.random.default_rng(442)
    y, F = random_instance(rng, t_max=10, m=2)
    with pytest.raises(NumericalError, match=f"^solver: {NO_ASCENT}$"):
        maximize(y, F, 1.0)


def test_a_batch_solve_peaks_at_a_few_count_matrices():
    # starts at different distances finish their problems in different steps, so the
    # batch shrinks mid-solve. The peak counts every array the solve allocates, in units
    # of the (S, T) count matrix: about 3.4 for the objective change's temporaries, plus
    # up to two shrunk copies of the count rows (the batch's and the line search's)
    S, T, m = 16, 20_000, 6
    rng = np.random.default_rng(3)
    X = rng.normal(size=(T, m - 1))
    F = np.hstack([np.ones((T, 1)), X])
    y = (X[:, 0] * X[:, 1] + rng.normal(size=T) > 0).astype(float)
    counts = sample_plans(S, 5, T)
    w_init = rng.normal(size=(S, 1)) * rng.normal(size=(S, m))
    tracemalloc.start()
    try:
        batch = maximize_batch(y, F, counts, 1.0, w_init=w_init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.converged.all()
    assert len(set(batch.iterations)) > 1
    assert peak < 6 * S * T * 8
