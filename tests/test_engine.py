import math
import tracemalloc
import warnings

import numpy as np
import pytest

from contilearn import engine, ensemble, solver
from contilearn.data import Dataset
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
from contilearn.errors import ConfigError, NumericalError
from contilearn.featuremap import embed_mean_solution
from contilearn.model import hessian, log_likelihood
from contilearn.modelio import format_report_line, load_run_config, parse_run_config
from contilearn.solver import BatchSolution, SolverConfig, maximize
from tests.conftest import REPO, DEEP_CONFIG, deep_dataset, random_instance


def small_dataset(seed=40, n=30):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(float)
    return Dataset(y, X)


def test_zero_iterations_is_plain_regularized_logistic():
    ds = small_dataset()
    model, stages = run(ds, EngineConfig(n_iters=0, seed=1))
    assert model.status == "completed"
    assert len(stages) == 1
    assert model.feature_map.layers == ()
    report = stages[0].report
    # the returned vector is the full-data maximizer for the chosen r
    direct = maximize(ds.y, ds.F, report.r, SolverConfig())
    assert np.allclose(model.w, direct.w, atol=1e-8)
    assert report.m == 3 and report.k is None and report.expanded is None


def test_reports_are_deterministic(xor_data):
    config = EngineConfig(n_iters=1, seed=99)
    a, a_stages = run(xor_data, config)
    b, b_stages = run(xor_data, config)
    assert [stage.report for stage in a_stages] == [stage.report for stage in b_stages]
    assert np.array_equal(a.w, b.w)
    assert a.r_per_iteration == b.r_per_iteration


def test_xor_needs_the_expansion(xor_run0, xor_run1):
    (_, stages0), _ = xor_run0
    (_, stages1), _ = xor_run1
    assert stages0[-1].report.accuracy <= 0.6
    assert stages1[-1].report.accuracy >= 0.95


def test_circle_is_solved_after_one_iteration(circle_run1):
    (_, stages), _ = circle_run1
    assert stages[-1].report.accuracy >= 0.9


def test_containment_bound_on_every_stage(xor_run0, xor_run1, circle_run1):
    for (_, stages), _ in (xor_run0, xor_run1, circle_run1):
        for stage in stages:
            assert stage.report.best_L >= stage.report.embed_L - 1e-9


def test_warm_start_embeds_previous_mean(
    xor_data, xor_run1, circle_data, circle_run1, multi_iter_run
):
    (_, stages), _ = xor_run1
    first, last = (stage.report for stage in stages)
    assert first.expanded == last.m
    assert first.k is not None and first.k >= 1
    assert last.iteration == 1
    # the paper's containment step: the weighted-mean model of stage n and its
    # embedding on stage n + 1 have the same data log-likelihood
    cases = [
        (xor_data, xor_run1[0][0]),
        (circle_data, circle_run1[0][0]),
        (deep_dataset(), multi_iter_run[0]),
    ]
    transitions = 0
    for dataset, model in cases:
        F = dataset.F
        for layer in model.feature_map.layers:
            before = log_likelihood(layer.v0, dataset.y, F)
            F = layer.apply(F)
            after = log_likelihood(embed_mean_solution(layer), dataset.y, F)
            assert abs(after - before) <= 1e-12 * abs(before)
            transitions += 1
    assert transitions == 1 + 1 + 3


def test_parameter_dimension_cap():
    ds = small_dataset(seed=41, n=40)
    model, stages = run(ds, EngineConfig(n_iters=3, seed=5, k_max=8))
    cap = 9 + 45
    for report in (stage.report for stage in stages):
        assert report.m <= cap
        if report.expanded is not None:
            assert report.expanded <= cap
    assert model.w.shape[0] <= cap


def test_closure_residual_is_reported_when_requested(xor_run1):
    (_, stages), _ = xor_run1
    expansion_reports = [s.report for s in stages if s.report.expanded is not None]
    assert expansion_reports
    for report in expansion_reports:
        assert report.closure is not None
        assert report.closure >= 0.0


@pytest.mark.parametrize("algebra_check", [True, False])
def test_algebra_stop_truncates_the_loop(algebra_check):
    # a stopping tolerance computes the residual whether or not it is reported
    ds = small_dataset(seed=42, n=40)
    config = EngineConfig(n_iters=4, seed=6, algebra_check=algebra_check, algebra_stop_tol=1e6)
    model, stages = run(ds, config)
    # an absurdly large tolerance stops after the first expansion cycle
    assert model.status == "algebra-converged"
    assert len(stages) == 2
    assert len(model.feature_map.layers) == 1


def test_degenerate_covariance_stops_early():
    # seed 27 makes both replicates draw the identical multiset [1, 1], so the
    # two solves agree bitwise, the covariance is exactly zero, and k = 0
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    ds = Dataset(y, X)
    model, stages = run(ds, EngineConfig(n_iters=2, seed=27, n_replicates=2, r_grid=(1.0,)))
    assert model.status == "degenerate"
    assert stages[-1].report.k == 0
    assert model.feature_map.layers == ()
    assert model.w.shape[0] == model.feature_map.output_dim
    assert len(stages) == 1


def test_single_r_grid_is_chosen():
    ds = small_dataset(seed=43)
    model, stages = run(ds, EngineConfig(n_iters=0, seed=8, r_grid=(0.7,)))
    assert stages[0].report.r == 0.7
    assert model.r_per_iteration == (0.7,)


def test_huge_precision_forces_chance_level_oob():
    # r -> infinity pins w near zero; every held-out point scores ln(1/2)
    ds = small_dataset(seed=44, n=40)
    F = ds.F
    counts = sample_plans(8, 9, len(ds.y))
    score = oob_score(ds.y, F, counts, solve_replicates(ds.y, F, counts, 1e9))
    assert abs(score - math.log(0.5)) <= 1e-5


def test_oob_score_weights_by_the_held_out_mask_itself(monkeypatch):
    # the boolean mask is multiplied in as it is, which gives the same 0.0 and 1.0
    # as a float copy. The peak, in units of the (S, T) float64 count matrix, is the
    # mask plus the objective's three temporaries: about 3.1, and 4.1 with a copy
    S, T, m = 64, 20_000, 5
    rng = np.random.default_rng(21)
    F = np.hstack([np.ones((T, 1)), rng.normal(size=(T, m - 1))])
    y = (rng.random(T) < 0.5).astype(float)
    counts = sample_plans(S, 4, T)
    batch = BatchSolution(rng.normal(size=(S, m)), *np.zeros((3, S)), np.ones(S, bool), (None,) * S)
    tracemalloc.start()
    try:
        score = oob_score(y, F, counts, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * S * T * 8

    def with_float_mask(w, y, F, counts):
        return log_likelihood(w, y, F, counts=counts.astype(float))

    monkeypatch.setattr(engine, "log_likelihood", with_float_mask)
    assert repr(score) == repr(oob_score(y, F, counts, batch))


def test_chosen_r_attains_the_exhaustive_maximum(circle_data):
    grid = (0.01, 1.0, 100.0)
    _, (stage,) = run(circle_data, EngineConfig(n_iters=0, seed=10, r_grid=grid))
    y, F = circle_data.y, circle_data.F
    counts = sample_plans(64, _stage_seed(10, 0), len(circle_data.y))
    scores = [oob_score(y, F, counts, solve_replicates(y, F, counts, r)) for r in grid]
    assert stage.report.r == grid[int(np.argmax(scores))]
    assert abs(stage.report.oob - max(scores)) <= 1e-12


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
            assert args[3] == 10.0 and start.ndim == 1
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
        _, stages = run(circle_data, EngineConfig(n_iters=0, seed=10, r_grid=grid))
        lines.append([format_report_line(stage.report) for stage in stages])
    assert lines[0] == lines[1]


def test_replicate_failed_at_the_largest_r_restarts_from_w_init(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = sample_plans(4, 8, 25)
    w_init = np.array([0.1, -0.2, 0.3])

    def broken_hessian(w, y, F, prior=None, counts=None):
        H = hessian(w, y, F, prior, counts)
        if prior == 10.0:
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
    _, stages = run(ds, EngineConfig(n_iters=1, seed=4, n_replicates=4))
    ((w, weights),) = calls
    prior = stages[0].report.r
    assert w.shape == (4, 3)
    assert abs(float(weights.sum()) - 1.0) <= 1e-12
    L_full = [log_likelihood(row, ds.y, ds.F, prior) for row in w]
    assert np.allclose(weights, weights_from_loglik(L_full), rtol=1e-12, atol=0.0)


def test_a_prior_whose_replicates_all_fail_is_not_a_candidate(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = sample_plans(4, 8, 25)
    w_init = np.array([0.1, -0.2, 0.3])
    broken = {10.0}  # priors at which every replicate's Hessian is indefinite

    def broken_hessian(w, y, F, prior=None, counts=None):
        H = hessian(w, y, F, prior, counts)
        return -H if prior in broken else H

    starts = []

    def recording(*args):
        starts.append(args[-1])
        return solver.maximize_batch(*args)

    monkeypatch.setattr(solver, "hessian", broken_hessian)
    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    config = EngineConfig(r_grid=(10.0, 1.0), n_replicates=4)
    chosen, candidates = _choose_prior(y, F, counts, config, w_init)
    assert chosen.r == 1.0 and chosen.solutions.n_failed == 0
    # the skipped prior is recorded, with no score and its four failed solves
    assert [(c.r, c.oob, c.solutions.n_failed) for c in candidates] == [
        (10.0, None, 4),
        (1.0, chosen.oob, 0),
    ]
    assert chosen.oob is not None
    # the failed prior leaves the next one the start it had itself
    assert [np.array_equal(start, w_init) for start in starts] == [True, True]
    broken.add(1.0)
    with pytest.raises(NumericalError, match="^ensemble: only 0 of 4 replicate solves succeeded$"):
        _choose_prior(y, F, counts, config, w_init)
    for grid in ((1.0,), (10.0,)):
        with pytest.raises(NumericalError, match="^ensemble: only 0 of 4 replicate solves"):
            _choose_prior(y, F, counts, EngineConfig(r_grid=grid, n_replicates=4), w_init)


def test_the_stage_records_count_every_solve(multi_iter_run):
    # the 60-row, three-round problem of the acceptance gate: 4 stages of 4 priors
    # by 64 replicates, each read back from the records alone
    _, stages = multi_iter_run
    assert len(stages) == 4
    batches = [c.solutions for stage in stages for c in stage.candidates]
    assert sum(len(b.error) for b in batches) == 1024
    assert sum(int(b.iterations[b.solved].sum()) for b in batches) == 5104
    assert sum(int(b.converged[b.solved].sum()) for b in batches) == 1024
    assert sum(b.n_failed for b in batches) == 0
    assert [stage.full.converged for stage in stages] == [True] * 4
    assert sum(stage.full.iterations for stage in stages) == 19
    for stage in stages:
        chosen = [c for c in stage.candidates if c.r == stage.report.r]
        assert [c.oob for c in chosen] == [stage.report.oob]
        assert stage.report.best_L == stage.full.L_value and stage.algebra is None


def test_a_stage_record_keeps_its_closure_fit(xor_run1):
    (_, (first, last)), _ = xor_run1
    assert first.algebra.normalized_residual == first.report.closure
    assert first.algebra.constants.shape == (first.report.k + 1,) * 3
    assert last.algebra is None and last.report.closure is None


def test_the_standard_trains_converge_without_a_warning(xor_data, xor_config, circle_data):
    cases = [
        (xor_data, load_run_config(xor_config)),
        (circle_data, load_run_config(REPO / "configs" / "circle.cfg")),
        (deep_dataset(), DEEP_CONFIG),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        for dataset, config in cases:
            run(dataset, config)


def test_a_line_search_exhausted_at_numerical_precision_is_named(xor_data):
    # no gradient norm reaches 1e-300, so every solve ends when its step stops ascending
    with pytest.warns(UserWarning) as caught:
        run(xor_data, EngineConfig(n_iters=0, n_replicates=8, grad_tol=1e-300))
    why = "exhausted the line search at numerical precision"
    assert [str(w.message) for w in caught] == [
        f"not every solve converged: stage 0: 32 of 32 replicate solves {why},"
        f" the full-data solve {why}"
    ]


def test_a_train_holds_its_counts_as_small_unsigned_integers():
    # 64 replicates of 16 384 rows: 2^20 uint16 count entries. The tracemalloc peak,
    # in the line search, was 46.7 bytes per entry, against 52.7 with float64 counts
    S, T = 64, 16_384
    rng = np.random.default_rng(3)
    X = rng.normal(size=(T, 2))
    ds = Dataset((X[:, 0] + 0.5 * rng.normal(size=T) > 0).astype(float), X)
    tracemalloc.start()
    try:
        run(ds, EngineConfig(n_iters=0, n_replicates=S, r_grid=(1.0,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 46.7 * S * T


def test_the_count_bound_admits_a_matrix_of_exactly_its_size(monkeypatch):
    ds = small_dataset(n=10)
    monkeypatch.setattr(engine, "MAX_COUNT_ENTRIES", 4 * 10)
    assert run(ds, EngineConfig(n_iters=0, n_replicates=4))[0].status == "completed"
    message = r"^n_replicates \* rows = 5 \* 10 exceeds the bound of 40 bootstrap count entries$"
    with pytest.raises(ConfigError, match=message):
        run(ds, EngineConfig(n_iters=0, n_replicates=5))


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
    with pytest.raises(ConfigError, match="n_replicates must be at least 2"):
        EngineConfig(n_replicates=1)
    with pytest.raises(ConfigError, match="k_max must be at least 1"):
        EngineConfig(k_max=0)
    with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
        EngineConfig(seed=1 << 64)


R_GRID_MESSAGE = "r_grid must be a nonempty list of positive reals"


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_r_grid_takes_only_positive_finite_precisions(r):
    # EngineConfig is the one check of r: the solver and the model take it as it is
    with pytest.raises(ConfigError, match=R_GRID_MESSAGE):
        EngineConfig(r_grid=(1.0, r))


def test_an_r_grid_entry_beyond_the_largest_double_is_rejected():
    # "1e400" parses to inf, so the config file reaches the same check
    with pytest.raises(ConfigError, match=R_GRID_MESSAGE):
        parse_run_config("r_grid = 1.0,1e400\n")
