import math

import numpy as np
import pytest

from contilearn.data import Dataset, Standardization
from contilearn.engine import EngineConfig, _stage_seed, accuracy, oob_score, run
from contilearn.ensemble import sample_plans, solve_replicates
from contilearn.model import Prior
from contilearn.solver import SolverConfig, maximize
from tests.conftest import dataset_from_arrays


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


def test_warm_start_embeds_previous_mean(xor_run1):
    result, _ = xor_run1
    first, last = result.reports
    assert first.expanded == last.m
    assert first.k is not None and first.k >= 1
    assert last.iteration == 1


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
