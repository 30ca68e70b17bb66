import numpy as np
import pytest

from contilearn.errors import NumericalError
from contilearn.model import Prior, log_likelihood, sigmoid
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
    sol = maximize(y, F, Prior(1.0))
    assert sol.converged
    assert np.array_equal(sol.w, np.zeros(2))
    assert sol.iterations == 0


def test_one_dimensional_separable_against_bisection():
    # stationarity in one variable: -w + 2 / (1 + e^w) = 0, root found independently
    F = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    sol = maximize(y, F, Prior(1.0))
    root = bisect(lambda w: -w + 2.0 * sigmoid(-w), 0.0, 2.0)
    assert sol.converged
    assert abs(sol.w[0] - root) <= 1e-6


def test_restart_from_optimum_is_a_fixed_point():
    rng = np.random.default_rng(5)
    y, F = random_instance(rng, t_max=20, m=4)
    prior = Prior(1.0)
    first = maximize(y, F, prior)
    second = maximize(y, F, prior, w_init=first.w)
    assert second.converged
    assert abs(second.L_value - first.L_value) <= 1e-12
    assert second.iterations == 0


def test_objective_trace_is_monotone():
    # the objective after n steps is the value of a solve cut off at max_iters = n
    rng = np.random.default_rng(6)
    y, F = random_instance(rng, t_max=40, m=6)
    prior = Prior(0.5)
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
    prior = Prior(1.0)
    w0 = rng.normal(size=5)
    sol = maximize(y, F, prior, w_init=w0)
    assert sol.L_value >= log_likelihood(w0, y, F, prior)


@pytest.mark.parametrize("seed", range(4))
def test_unique_maximizer_from_random_starts(seed):
    rng = np.random.default_rng(300 + seed)
    y, F = random_instance(rng, t_max=30, m=4)
    prior = Prior(1.0)
    solutions = [maximize(y, F, prior, w_init=rng.normal(size=4)).w for _ in range(5)]
    for w in solutions[1:]:
        assert np.max(np.abs(w - solutions[0])) <= 1e-6


def test_doubling_max_iters_keeps_converged_result():
    rng = np.random.default_rng(8)
    y, F = random_instance(rng, t_max=30, m=4)
    prior = Prior(1.0)
    a = maximize(y, F, prior, SolverConfig(max_iters=100))
    b = maximize(y, F, prior, SolverConfig(max_iters=200))
    assert a.converged and b.converged
    assert np.array_equal(a.w, b.w)


def test_non_finite_start_raises():
    with pytest.raises(NumericalError, match="solver"):
        maximize(np.array([0.0, 1.0]), np.ones((2, 1)), Prior(1.0), w_init=np.array([np.nan]))


def test_overflow_under_a_huge_prior_reads_as_infinite():
    # at r = 1e308: |r w|^2 overflows from w = 1, r w itself from 1.85, and r |w|^2 / 2 from 1.9
    rng = np.random.default_rng(0)
    y, F = random_instance(rng, t_max=10, m=3)
    starts = np.array([[1.0, 0.0, 0.0], [1.85, 0.0, 0.0], [1.9, 0.0, 0.0]])
    batch = maximize_batch(y, F, np.ones((3, 10)), Prior(1e308), w_init=starts)
    assert batch.converged.tolist() == [True, False, False]
    assert batch.error == (
        None,
        "gradient is not finite",
        "objective is not finite at the starting point",
    )


def test_unconverged_run_is_flagged():
    rng = np.random.default_rng(9)
    y, F = random_instance(rng, t_max=40, m=5)
    sol = maximize(y, F, Prior(0.1), SolverConfig(max_iters=1, grad_tol=1e-14))
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
    prior = Prior(0.5)
    plans = [rng.integers(0, 30, size=30) for _ in range(6)]
    counts = np.stack([np.bincount(idx, minlength=30) for idx in plans])
    batch = maximize_batch(y, F, counts, prior)
    assert batch.error == (None,) * 6
    for s, idx in enumerate(plans):
        alone = maximize(y[idx], F[idx], prior)
        assert np.max(np.abs(batch.w[s] - alone.w)) <= 1e-6
        assert abs(batch.L_value[s] - alone.L_value) <= 1e-9 * abs(alone.L_value)
        assert batch.converged[s] and batch.grad_norm[s] <= SolverConfig().grad_tol


def test_convergence_below_one_ulp_of_the_objective():
    # a large objective whose last Newton steps change it by less than one ulp:
    # comparing objective values would exhaust the line search here
    rng = np.random.default_rng(430)
    y, F = random_instance(rng, t_max=40, m=4)
    counts = np.full((1, 40), 1e6)
    batch = maximize_batch(y, F, counts, Prior(1.0), SolverConfig(grad_tol=1e-6))
    assert batch.converged[0]
    assert batch.iterations[0] < SolverConfig().max_iters
