import math

import numpy as np
import pytest

from contilearn import engine, ensemble, solver
from contilearn.data import Dataset, Standardization
from contilearn.engine import (
    EngineConfig,
    _choose_prior,
    _stage_seed,
    accuracy,
    oob_score,
    run,
)
from contilearn.ensemble import (
    fit_distribution,
    sample_plans,
    solve_replicates,
    weights_from_loglik,
)
from contilearn.errors import NumericalError
from contilearn.featuremap import embed_mean_solution
from contilearn.model import Prior, hessian, log_likelihood
from contilearn.modelio import format_report_line
from contilearn.solver import SolverConfig, maximize
from tests.conftest import DEEP_CONFIG, dataset_from_arrays, deep_dataset, random_instance


def small_dataset(seed=40, n=30):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(float)
    return dataset_from_arrays(X, y)


def test_zero_iterations_is_plain_regularized_logistic():
    ds = small_dataset()
    result = run(ds, EngineConfig(n_iters=0, seed=1))
    assert result.status == "completed"
    assert len(result.reports) == 1
    assert result.feature_map.layers == ()
    report = result.reports[0]
    # the returned vector is the full-data maximizer for the chosen r
    direct = maximize(ds.y, ds.design_matrix(), Prior(report.r), SolverConfig())
    assert np.allclose(result.w, direct.w, atol=1e-8)
    assert report.m == 3 and report.k is None and report.expanded is None


def test_reports_are_deterministic(xor_data):
    config = EngineConfig(n_iters=1, seed=99)
    a = run(xor_data, config)
    b = run(xor_data, config)
    assert a.reports == b.reports
    assert np.array_equal(a.w, b.w)
    assert [rep.r for rep in a.reports] == [rep.r for rep in b.reports]


def test_xor_needs_the_expansion(xor_run0, xor_run1):
    result0, _ = xor_run0
    result1, _ = xor_run1
    assert result0.reports[-1].accuracy <= 0.6
    assert result1.reports[-1].accuracy >= 0.95


def test_circle_is_solved_after_one_iteration(circle_run1):
    result, _ = circle_run1
    assert result.reports[-1].accuracy >= 0.9


def test_containment_bound_on_every_stage(xor_run0, xor_run1, circle_run1):
    for result, _ in (xor_run0, xor_run1, circle_run1):
        for report in result.reports:
            assert report.best_L >= report.embed_L - 1e-9


def test_warm_start_embeds_previous_mean(
    xor_data, xor_run1, circle_data, circle_run1, multi_iter_run
):
    result, _ = xor_run1
    first, last = result.reports
    assert first.expanded == last.m
    assert first.k is not None and first.k >= 1
    assert last.iteration == 1
    # the paper's containment step: the weighted-mean model of stage n and its
    # embedding on stage n + 1 have the same data log-likelihood
    cases = [
        (xor_data, xor_run1[0]),
        (circle_data, circle_run1[0]),
        (deep_dataset(), multi_iter_run),
    ]
    transitions = 0
    for dataset, result in cases:
        F = dataset.design_matrix()
        for layer in result.feature_map.layers:
            before = log_likelihood(layer.v0, dataset.y, F)
            F = layer.apply(F)
            after = log_likelihood(embed_mean_solution(layer), dataset.y, F)
            assert abs(after - before) <= 1e-12 * abs(before)
            transitions += 1
    assert transitions == 1 + 1 + 3


def test_parameter_dimension_cap():
    ds = small_dataset(seed=41, n=40)
    result = run(ds, EngineConfig(n_iters=3, seed=5, k_max=8))
    cap = 9 + 45
    for report in result.reports:
        assert report.m <= cap
        if report.expanded is not None:
            assert report.expanded <= cap
    assert result.w.shape[0] <= cap


def test_closure_residual_is_reported_when_requested(xor_run1):
    result, _ = xor_run1
    expansion_reports = [r for r in result.reports if r.expanded is not None]
    assert expansion_reports
    for report in expansion_reports:
        assert report.closure is not None
        assert report.closure >= 0.0


@pytest.mark.parametrize("algebra_check", [True, False])
def test_algebra_stop_truncates_the_loop(algebra_check):
    # a stopping tolerance computes the residual whether or not it is reported
    ds = small_dataset(seed=42, n=40)
    config = EngineConfig(n_iters=4, seed=6, algebra_check=algebra_check, algebra_stop_tol=1e6)
    result = run(ds, config)
    # an absurdly large tolerance stops after the first expansion cycle
    assert result.status == "algebra-converged"
    assert len(result.reports) == 2
    assert len(result.feature_map.layers) == 1


def test_degenerate_covariance_stops_early():
    # seed 27 makes both replicates draw the identical multiset [1, 1], so the
    # two solves agree bitwise, the covariance is exactly zero, and k = 0
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    ds = dataset_from_arrays(X, y)
    result = run(ds, EngineConfig(n_iters=2, seed=27, n_replicates=2, r_grid=(1.0,)))
    assert result.status == "degenerate"
    assert result.reports[-1].k == 0
    assert result.feature_map.layers == ()
    assert result.w.shape[0] == result.feature_map.output_dim
    assert len(result.reports) == 1


def test_single_r_grid_is_chosen():
    ds = small_dataset(seed=43)
    result = run(ds, EngineConfig(n_iters=0, seed=8, r_grid=(0.7,)))
    assert result.reports[0].r == 0.7
    assert [rep.r for rep in result.reports] == [0.7]


def test_huge_precision_forces_chance_level_oob():
    # r -> infinity pins w near zero; every held-out point scores ln(1/2)
    ds = small_dataset(seed=44, n=40)
    F = ds.design_matrix()
    counts = sample_plans(8, 9, ds.t_max)
    score = oob_score(ds.y, F, counts, solve_replicates(ds.y, F, counts, Prior(1e9)))
    assert abs(score - math.log(0.5)) <= 1e-5


def test_chosen_r_attains_the_exhaustive_maximum(circle_data):
    grid = (0.01, 1.0, 100.0)
    result = run(circle_data, EngineConfig(n_iters=0, seed=10, r_grid=grid))
    y, F = circle_data.y, circle_data.design_matrix()
    counts = sample_plans(64, _stage_seed(10, 0), circle_data.t_max)
    scores = [oob_score(y, F, counts, solve_replicates(y, F, counts, Prior(r))) for r in grid]
    assert result.reports[0].r == grid[int(np.argmax(scores))]
    assert abs(result.reports[0].oob - max(scores)) <= 1e-12


def test_warm_started_r_grid_takes_fewer_newton_steps(monkeypatch):
    # the 60-row, three-round problem of the acceptance gate
    calls = []

    def recording(y, F, counts, prior, config, w_init):
        batch = solver.maximize_batch(y, F, counts, prior, config, w_init)
        calls.append(((y, F, counts, prior, config), np.asarray(w_init), batch))
        return batch

    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    run(deep_dataset(), DEEP_CONFIG)
    assert len(calls) == 4 * 4  # r grid x stages
    warm_steps = cold_steps = 0
    for i, (args, start, batch) in enumerate(calls):
        if i % 4 == 0:
            # each stage solves its largest r first, from the stage's one start
            assert args[3].r == 10.0 and start.ndim == 1
            cold_start = start
            continue
        assert start.ndim == 2
        cold = solver.maximize_batch(*args, cold_start)
        assert np.all(batch.converged) and np.all(cold.converged)
        assert np.max(np.abs(batch.w - cold.w)) <= 1e-6
        warm_steps += batch.iterations.sum()
        cold_steps += cold.iterations.sum()
    assert warm_steps < cold_steps


def test_r_grid_order_does_not_change_the_reports(circle_data):
    lines = []
    for grid in ((0.01, 1.0, 100.0), (100.0, 0.01, 1.0)):
        result = run(circle_data, EngineConfig(n_iters=0, seed=10, r_grid=grid))
        lines.append([format_report_line(report) for report in result.reports])
    assert lines[0] == lines[1]


def test_replicate_failed_at_the_largest_r_restarts_from_w_init(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = sample_plans(4, 8, 25)
    w_init = np.array([0.1, -0.2, 0.3])

    def broken_hessian(w, y, F, prior=None, counts=None):
        H = hessian(w, y, F, prior, counts)
        if prior.r == 10.0:
            H[(counts == doomed).all(axis=1)] *= -1.0
        return H

    doomed = counts[1]
    batches = []

    def recording(*args):
        batches.append((args[-1], solver.maximize_batch(*args)))
        return batches[-1][1]

    monkeypatch.setattr(solver, "hessian", broken_hessian)
    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    config = EngineConfig(r_grid=(1.0, 10.0), n_replicates=4)
    _choose_prior(y, F, counts, config, w_init)
    (_, first), (start, second) = batches
    assert first.error[1] is not None and second.error == (None,) * 4
    assert np.array_equal(start[1], w_init)
    for s in (0, 2, 3):
        assert np.array_equal(start[s], first.w[s])


def test_replicates_are_weighted_by_full_data_objective(monkeypatch):
    calls = []

    def recording(w, weights):
        calls.append((w, weights))
        return fit_distribution(w, weights)

    monkeypatch.setattr(engine, "fit_distribution", recording)
    ds = small_dataset(seed=45)
    result = run(ds, EngineConfig(n_iters=1, seed=4, n_replicates=4))
    ((w, weights),) = calls
    prior = Prior(result.reports[0].r)
    assert w.shape == (4, 3)
    assert abs(float(weights.sum()) - 1.0) <= 1e-12
    L_full = [log_likelihood(row, ds.y, ds.design_matrix(), prior) for row in w]
    assert np.allclose(weights, weights_from_loglik(L_full), rtol=1e-12, atol=0.0)


def test_a_prior_whose_replicates_all_fail_is_not_a_candidate(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = sample_plans(4, 8, 25)
    w_init = np.array([0.1, -0.2, 0.3])
    broken = {10.0}  # priors at which every replicate's Hessian is indefinite

    def broken_hessian(w, y, F, prior=None, counts=None):
        H = hessian(w, y, F, prior, counts)
        return -H if prior.r in broken else H

    starts = []

    def recording(*args):
        starts.append(args[-1])
        return solver.maximize_batch(*args)

    monkeypatch.setattr(solver, "hessian", broken_hessian)
    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    config = EngineConfig(r_grid=(10.0, 1.0), n_replicates=4)
    r, _, solset = _choose_prior(y, F, counts, config, w_init)
    assert r == 1.0 and solset.n_failed == 0
    # the failed prior leaves the next one the start it had itself
    assert [np.array_equal(start, w_init) for start in starts] == [True, True]
    broken.add(1.0)
    with pytest.raises(NumericalError, match="^ensemble: only 0 of 4 replicate solves succeeded$"):
        _choose_prior(y, F, counts, config, w_init)
    for grid in ((1.0,), (10.0,)):
        with pytest.raises(NumericalError, match="^ensemble: only 0 of 4 replicate solves"):
            _choose_prior(y, F, counts, EngineConfig(r_grid=grid, n_replicates=4), w_init)


def test_accuracy_helper():
    w = np.array([0.0, 1.0])
    F = np.array([[1.0, 2.0], [1.0, -2.0]])
    assert accuracy(w, np.array([1.0, 0.0]), F) == 1.0
    assert accuracy(w, np.array([0.0, 1.0]), F) == 0.0


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(n_iters=-1)
    with pytest.raises(ValueError):
        EngineConfig(r_grid=())
    with pytest.raises(ValueError):
        EngineConfig(r_grid=(0.0,))
    with pytest.raises(ValueError):
        EngineConfig(rel_threshold=0.0)
    with pytest.raises(ValueError):
        EngineConfig(seed=-5)
