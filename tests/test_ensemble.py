import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn import ensemble, solver
from contilearn.engine import run
from contilearn.ensemble import (
    fit_distribution,
    sample_plans,
    solve_replicates,
    weights_from_loglik,
)
from contilearn.model import hessian
from contilearn.solver import SolverConfig, maximize
from tests.conftest import DEEP_CONFIG, deep_dataset, random_instance


def test_same_seed_reproduces_plans():
    assert np.array_equal(sample_plans(5, 42, 17), sample_plans(5, 42, 17))


def test_different_seeds_differ():
    assert not np.array_equal(sample_plans(4, 1, 50), sample_plans(4, 2, 50))


def test_plans_are_multisets_of_the_right_size():
    # each row counts a multiset of t_max rows drawn from t_max
    t_max = 23
    counts = sample_plans(6, 3, t_max)
    assert counts.shape == (6, t_max)
    assert np.all(counts >= 0) and np.array_equal(counts, np.round(counts))
    assert np.array_equal(counts.sum(axis=1), np.full(6, t_max))


def test_sampling_holds_the_result_and_two_int64_rows():
    # each row is drawn and counted in int64 and cast into the result in place; the
    # 4 KiB covers the generator objects. Stacking the int64 rows peaked at 8 times
    # the result. The first call, untraced, leaves numpy's one-time setup out
    S, T = 64, 16_384
    sample_plans(2, 0, 10)
    tracemalloc.start()
    try:
        counts = sample_plans(S, 3, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.uint16
    assert peak <= counts.nbytes + 2 * 8 * T + 4096


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


@pytest.mark.parametrize(
    "t_max, dtype",
    [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)],
)
def test_counts_take_the_smallest_unsigned_type_that_holds_t_max(t_max, dtype):
    # a count never exceeds t_max, so a row that drew one index t_max times still fits
    counts = sample_plans(3, 5, t_max)
    assert counts.dtype == dtype
    assert np.array_equal(counts.sum(axis=1), np.full(3, t_max))


def test_integer_counts_solve_bitwise_as_float_counts():
    # every use multiplies the counts into float64, which converts them exactly
    rng = np.random.default_rng(18)
    y, F = random_instance(rng, t_max=40, m=4)
    counts = sample_plans(6, 9, 40)
    assert counts.dtype == np.uint8
    a = solver.maximize_batch(y, F, counts, 0.5)
    b = solver.maximize_batch(y, F, counts.astype(float), 0.5)
    for field in ("w", "L_value", "grad_norm", "iterations", "converged"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_counts_count_each_drawn_row():
    # oracle: row s is the bincount of the index stream seeded with seed ^ s
    seed, t_max = 0x9E3779B97F4A7C15, 13
    counts = sample_plans(5, seed, t_max)
    for s, row in enumerate(counts):
        idx = np.random.default_rng(seed ^ s).integers(0, t_max, size=t_max)
        assert np.array_equal(row, np.bincount(idx, minlength=t_max))


def test_replicates_match_solving_each_subsample_alone():
    # oracle: the old per-replicate solve on the copied rows y[idx], F[idx]
    rng = np.random.default_rng(16)
    y, F = random_instance(rng, t_max=30, m=4)
    counts = sample_plans(5, 7, 30)
    prior = 0.3
    solved = solve_replicates(y, F, counts, prior)
    batch = solver.maximize_batch(y, F, counts, prior)
    assert solved.n_failed == 0
    assert np.array_equal(solved.w[solved.solved], batch.w)
    for s, row in enumerate(counts):
        idx = np.repeat(np.arange(30), row.astype(int))
        alone = maximize(y[idx], F[idx], prior)
        assert np.max(np.abs(solved.w[s] - alone.w)) <= 1e-6
        assert abs(batch.L_value[s] - alone.L_value) <= 1e-9 * abs(alone.L_value)
        assert batch.converged[s]


def test_failed_replicate_is_dropped_and_counted(monkeypatch):
    rng = np.random.default_rng(17)
    y, F = random_instance(rng, t_max=25, m=3)
    counts = sample_plans(4, 8, 25)
    doomed = counts[1]

    def broken_hessian(w, y, F, r, counts=1.0):
        H = hessian(w, y, F, r, counts)
        H[(counts == doomed).all(axis=1)] *= -1.0
        return H

    intact = solver.maximize_batch(y, F, counts, 1.0)
    monkeypatch.setattr(solver, "hessian", broken_hessian)
    batch = solve_replicates(y, F, counts, 1.0)
    assert batch.n_failed == 1
    assert batch.solved.tolist() == [0, 2, 3]
    assert np.all(intact.converged)
    for s in batch.solved:
        assert np.max(np.abs(batch.w[s] - intact.w[s])) <= 1e-12


def test_every_acceptance_replicate_converges(monkeypatch):
    # the 60-row, three-round problem of the acceptance gate
    batches = []

    def recording(*args, **kwargs):
        batches.append(solver.maximize_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(ensemble, "maximize_batch", recording)
    run(deep_dataset(), DEEP_CONFIG)
    config = SolverConfig()
    assert len(batches) == 4 * 4  # r grid x stages
    for batch in batches:
        assert batch.error == (None,) * 64
        assert np.all(batch.converged)
        assert np.all(batch.grad_norm <= config.grad_tol)
        assert np.all(batch.iterations < config.max_iters)


def test_solve_replicates_repeat_exactly():
    rng = np.random.default_rng(11)
    y, F = random_instance(rng, t_max=25, m=4)
    counts = sample_plans(6, 5, 25)
    first = solve_replicates(y, F, counts, 1.0)
    second = solve_replicates(y, F, counts, 1.0)
    assert np.array_equal(first.w[first.solved], second.w[second.solved])
    assert np.array_equal(first.solved, second.solved)


def test_dominant_weight_degenerates_distribution():
    ws = [np.array([1.0, 2.0]), np.array([5.0, -1.0])]
    mean, cov = fit_distribution(np.stack(ws), weights_from_loglik([0.0, -2000.0]))
    assert np.array_equal(mean, ws[0])
    assert np.array_equal(cov, np.zeros((2, 2)))


def test_two_point_distribution_hand_computed():
    # equal weights on (0,0) and (2,2): mean (1,1), covariance all ones
    ws = [np.zeros(2), np.full(2, 2.0)]
    mean, cov = fit_distribution(np.stack(ws), weights_from_loglik([1.0, 1.0]))
    assert np.allclose(mean, [1.0, 1.0], atol=1e-15)
    assert np.allclose(cov, np.ones((2, 2)), atol=1e-15)


def test_distribution_against_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ws = [rng.normal(size=3) for _ in range(5)]
        L = rng.uniform(-5, 5, size=5)
        got_mean, got_cov = fit_distribution(np.stack(ws), weights_from_loglik(L))
        # independent summation oracle: plain loops, no vectorized reuse
        weights = weights_from_loglik(L)
        mean = sum(wt * w for wt, w in zip(weights, ws))
        cov = np.zeros((3, 3))
        for wt, w in zip(weights, ws):
            cov += wt * np.outer(w - mean, w - mean)
        assert np.max(np.abs(got_mean - mean)) <= 1e-12
        assert np.max(np.abs(got_cov - cov)) <= 1e-12


def test_mean_inside_coordinate_hull():
    rng = np.random.default_rng(13)
    ws = [rng.normal(size=4) for _ in range(6)]
    L = rng.uniform(-3, 3, size=6)
    mean, _ = fit_distribution(np.stack(ws), weights_from_loglik(L))
    stacked = np.stack(ws)
    assert np.all(mean >= stacked.min(axis=0) - 1e-12)
    assert np.all(mean <= stacked.max(axis=0) + 1e-12)


def test_covariance_is_psd_and_symmetric():
    rng = np.random.default_rng(14)
    ws = [rng.normal(size=5) for _ in range(8)]
    L = rng.uniform(-4, 4, size=8)
    _, cov = fit_distribution(np.stack(ws), weights_from_loglik(L))
    assert np.max(np.abs(cov - cov.T)) <= 1e-12
    evals = np.linalg.eigvalsh(cov)
    assert evals.min() >= -1e-10 * max(1.0, evals.max())


def test_permuting_replicates_keeps_the_distribution():
    rng = np.random.default_rng(15)
    ws = [rng.normal(size=3) for _ in range(6)]
    L = list(rng.uniform(-2, 2, size=6))
    base_mean, base_cov = fit_distribution(np.stack(ws), weights_from_loglik(L))
    perm = [4, 2, 0, 5, 1, 3]
    mean, cov = fit_distribution(
        np.stack([ws[i] for i in perm]), weights_from_loglik([L[i] for i in perm])
    )
    assert np.allclose(base_mean, mean, atol=1e-12)
    assert np.allclose(base_cov, cov, atol=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_too_few_successes_are_returned_not_raised():
    # a non-finite design makes every replicate solve fail; the engine, not the
    # ensemble, decides that fewer than two survivors skip the prior
    y = np.array([0.0, 1.0])
    bad = np.array([[np.inf], [np.inf]])
    batch = solve_replicates(y, bad, sample_plans(3, 6, 2), 1.0)
    assert len(batch.solved) == 0 and batch.w[batch.solved].shape == (0, 1)
    assert batch.n_failed == 3
    assert all(error is not None for error in batch.error)
