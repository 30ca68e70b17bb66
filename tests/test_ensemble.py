import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn import ensemble, solver
from contilearn.engine import EngineConfig, run
from contilearn.ensemble import (
    BootstrapPlan,
    ReplicateSolution,
    SolutionSet,
    bootstrap_counts,
    fit_distribution,
    sample_plans,
    solve_replicates,
    weights_from_loglik,
)
from contilearn.errors import NumericalError
from contilearn.model import Prior, hessian
from contilearn.solver import SolverConfig, maximize
from tests.conftest import dataset_from_arrays, random_instance


def make_solution_set(ws, L):
    weights = weights_from_loglik(L)
    sols = tuple(
        ReplicateSolution(index=i, w=np.asarray(w, float), L_full=float(l), L_subset=0.0, converged=True)
        for i, (w, l) in enumerate(zip(ws, L))
    )
    return SolutionSet(sols, weights)


def test_same_seed_reproduces_plans():
    plan = BootstrapPlan(5, seed=42)
    a = sample_plans(plan, 17)
    b = sample_plans(plan, 17)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_different_seeds_differ():
    a = np.concatenate(sample_plans(BootstrapPlan(4, seed=1), 50))
    b = np.concatenate(sample_plans(BootstrapPlan(4, seed=2), 50))
    assert not np.array_equal(a, b)


def test_plans_are_multisets_of_the_right_size():
    t_max = 23
    for idx in sample_plans(BootstrapPlan(6, seed=3), t_max):
        assert idx.shape == (t_max,)
        assert idx.min() >= 0 and idx.max() < t_max


def test_plan_validation():
    with pytest.raises(ValueError):
        BootstrapPlan(1, seed=0)
    with pytest.raises(ValueError):
        BootstrapPlan(2, seed=-1)


def test_equal_loglik_gives_equal_weights():
    w = weights_from_loglik([3.0, 3.0])
    assert np.array_equal(w, [0.5, 0.5])


def test_weights_direct_value():
    # oracle: e^0 / (e^0 + e^{ln 3}) = 1/4
    w = weights_from_loglik([0.0, math.log(3.0)])
    assert np.allclose(w, [0.25, 0.75], atol=1e-15)


def test_huge_gap_underflows_cleanly():
    w = weights_from_loglik([0.0, 1000.0])
    assert not np.any(np.isnan(w))
    assert w[0] == 0.0 and w[1] == 1.0


@settings(max_examples=100)
@given(
    st.lists(st.floats(-500, 500), min_size=2, max_size=8),
    st.floats(-1e6, 1e6),
)
def test_weights_shift_invariance(L, shift):
    a = weights_from_loglik(np.array(L))
    b = weights_from_loglik(np.array(L) + shift)
    assert np.allclose(a, b, atol=1e-12)


def test_solve_replicates_records_both_objectives():
    rng = np.random.default_rng(10)
    y, F = random_instance(rng, t_max=20, m=3)
    plans = sample_plans(BootstrapPlan(4, seed=4), 20)
    solset = solve_replicates(y, F, plans, Prior(1.0))
    assert len(solset.solutions) == 4
    assert abs(float(solset.weights.sum()) - 1.0) <= 1e-12
    for sol in solset.solutions:
        assert np.isfinite(sol.L_full) and np.isfinite(sol.L_subset)


def test_counts_count_each_drawn_row():
    plans = [np.array([0, 0, 2, 3]), np.array([1, 1, 1, 1])]
    assert np.array_equal(bootstrap_counts(plans, 4), [[2, 0, 1, 1], [0, 4, 0, 0]])


def test_replicates_match_solving_each_subsample_alone():
    # oracle: the old per-replicate solve on the copied rows y[idx], F[idx]
    rng = np.random.default_rng(16)
    y, F = random_instance(rng, t_max=30, m=4)
    plans = sample_plans(BootstrapPlan(5, seed=7), 30)
    prior = Prior(0.3)
    solset = solve_replicates(y, F, plans, prior)
    assert solset.n_failed == 0
    for sol, idx in zip(solset.solutions, plans):
        alone = maximize(y[idx], F[idx], prior)
        assert np.max(np.abs(sol.w - alone.w)) <= 1e-6
        assert abs(sol.L_subset - alone.L_value) <= 1e-9 * abs(alone.L_value)
        assert sol.converged


def test_failed_replicate_is_dropped_and_counted(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    plans = sample_plans(BootstrapPlan(4, seed=8), 25)
    doomed = bootstrap_counts(plans, 25)[1]

    def broken_hessian(w, y, F, prior=None, counts=None):
        H = hessian(w, y, F, prior, counts)
        H[(counts == doomed).all(axis=1)] *= -1.0
        return H

    intact = solve_replicates(y, F, plans, Prior(1.0))
    monkeypatch.setattr(solver, "hessian", broken_hessian)
    solset = solve_replicates(y, F, plans, Prior(1.0))
    assert solset.n_failed == 1
    assert [sol.index for sol in solset.solutions] == [0, 2, 3]
    for sol in solset.solutions:
        assert sol.converged
        assert np.max(np.abs(sol.w - intact.solutions[sol.index].w)) <= 1e-12


def test_every_acceptance_replicate_converges(monkeypatch):
    # the 60-row, three-round problem of the acceptance gate
    batches = []

    def recording(*args, **kwargs):
        batches.append(solver.maximize_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    rng = np.random.default_rng(50)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] * X[:, 1] + 0.2 * rng.normal(size=60) > 0).astype(float)
    run(dataset_from_arrays(X, y), EngineConfig(n_iters=3, seed=13, k_max=8))
    config = SolverConfig()
    assert len(batches) == 4 * 4  # r grid x stages
    for batch in batches:
        assert batch.error == (None,) * 64
        assert np.all(batch.converged)
        assert np.all(batch.grad_norm <= config.grad_tol)
        assert np.all(batch.iterations < config.max_iters)


def test_solve_replicates_threads_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(11)
    y, F = random_instance(rng, t_max=25, m=4)
    plans = sample_plans(BootstrapPlan(6, seed=5), 25)

    monkeypatch.setenv("CONTILEARN_THREADS", "1")
    serial = solve_replicates(y, F, plans, Prior(1.0))
    monkeypatch.setenv("CONTILEARN_THREADS", "4")
    threaded = solve_replicates(y, F, plans, Prior(1.0))

    assert np.array_equal(serial.weights, threaded.weights)
    for a, b in zip(serial.solutions, threaded.solutions):
        assert np.array_equal(a.w, b.w)
        assert a.L_full == b.L_full


def test_dominant_weight_degenerates_distribution():
    ws = [np.array([1.0, 2.0]), np.array([5.0, -1.0])]
    dist = fit_distribution(make_solution_set(ws, [0.0, -2000.0]))
    assert np.array_equal(dist.mean, ws[0])
    assert np.array_equal(dist.cov, np.zeros((2, 2)))


def test_two_point_distribution_hand_computed():
    # equal weights on (0,0) and (2,2): mean (1,1), covariance all ones
    dist = fit_distribution(make_solution_set([np.zeros(2), np.full(2, 2.0)], [1.0, 1.0]))
    assert np.allclose(dist.mean, [1.0, 1.0], atol=1e-15)
    assert np.allclose(dist.cov, np.ones((2, 2)), atol=1e-15)


def test_distribution_against_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ws = [rng.normal(size=3) for _ in range(5)]
        L = rng.uniform(-5, 5, size=5)
        dist = fit_distribution(make_solution_set(ws, L))
        # independent summation oracle: plain loops, no vectorized reuse
        weights = weights_from_loglik(L)
        mean = sum(wt * w for wt, w in zip(weights, ws))
        cov = np.zeros((3, 3))
        for wt, w in zip(weights, ws):
            cov += wt * np.outer(w - mean, w - mean)
        assert np.max(np.abs(dist.mean - mean)) <= 1e-12
        assert np.max(np.abs(dist.cov - cov)) <= 1e-12


def test_mean_inside_coordinate_hull():
    rng = np.random.default_rng(13)
    ws = [rng.normal(size=4) for _ in range(6)]
    L = rng.uniform(-3, 3, size=6)
    dist = fit_distribution(make_solution_set(ws, L))
    stacked = np.stack(ws)
    assert np.all(dist.mean >= stacked.min(axis=0) - 1e-12)
    assert np.all(dist.mean <= stacked.max(axis=0) + 1e-12)


def test_covariance_is_psd_and_symmetric():
    rng = np.random.default_rng(14)
    ws = [rng.normal(size=5) for _ in range(8)]
    L = rng.uniform(-4, 4, size=8)
    dist = fit_distribution(make_solution_set(ws, L))
    assert np.max(np.abs(dist.cov - dist.cov.T)) <= 1e-12
    evals = np.linalg.eigvalsh(dist.cov)
    assert evals.min() >= -1e-10 * max(1.0, evals.max())


def test_permuting_replicates_keeps_the_distribution():
    rng = np.random.default_rng(15)
    ws = [rng.normal(size=3) for _ in range(6)]
    L = list(rng.uniform(-2, 2, size=6))
    base = fit_distribution(make_solution_set(ws, L))
    perm = [4, 2, 0, 5, 1, 3]
    shuffled = fit_distribution(make_solution_set([ws[i] for i in perm], [L[i] for i in perm]))
    assert np.allclose(base.mean, shuffled.mean, atol=1e-12)
    assert np.allclose(base.cov, shuffled.cov, atol=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_too_few_successes_raises():
    y = np.array([0.0, 1.0])
    F = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError):
        solve_replicates(y, F, [], Prior(1.0))
    with pytest.raises(NumericalError, match="ensemble"):
        # a non-finite design makes every replicate solve fail
        bad = np.array([[np.inf], [np.inf]])
        solve_replicates(y, bad, sample_plans(BootstrapPlan(3, seed=6), 2), Prior(1.0))
