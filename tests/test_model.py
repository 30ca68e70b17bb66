import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn.model import (
    Prior,
    gradient,
    hessian,
    log_likelihood,
    log_likelihood_change,
    log_prior,
    predict_prob,
    sigmoid,
)
from tests.conftest import random_instance


def numeric_gradient(f, w, h=1e-6):
    g = np.zeros_like(w)
    for i in range(len(w)):
        step = np.zeros_like(w)
        step[i] = h
        g[i] = (f(w + step) - f(w - step)) / (2 * h)
    return g


def numeric_jacobian(g, w, h=1e-5):
    m = len(w)
    J = np.zeros((m, m))
    for i in range(m):
        step = np.zeros_like(w)
        step[i] = h
        J[:, i] = (g(w + step) - g(w - step)) / (2 * h)
    return J


def test_predict_prob_at_zero_score():
    assert predict_prob(np.zeros(2), np.array([1.0, 3.0])) == 0.5


def test_predict_prob_direct_value():
    # oracle: direct evaluation of 1 / (1 + e^{-2})
    p = predict_prob(np.array([2.0]), np.array([1.0]))
    assert math.isclose(p, 1.0 / (1.0 + math.exp(-2.0)), rel_tol=0, abs_tol=1e-16)
    assert p == 0.8807970779778823


def test_predict_prob_saturation_stays_inside_unit_interval():
    p_low = predict_prob(np.array([-1000.0]), np.array([1.0]))
    p_high = predict_prob(np.array([1000.0]), np.array([1.0]))
    assert 0.0 < p_low < 1e-300
    assert 0.0 < p_high < 1.0
    assert np.isfinite(np.log(p_low))
    assert np.isfinite(np.log1p(-p_high))


def test_predict_prob_dimension_mismatch():
    with pytest.raises(ValueError):
        predict_prob(np.zeros(2), np.zeros(3))


@settings(max_examples=200)
@given(st.floats(-50, 50))
def test_sigmoid_complement(z):
    assert abs(sigmoid(z) + sigmoid(-z) - 1.0) <= 1e-15


def masked_sigmoid(z):
    # the former two-branch evaluation, each branch on its own half of the line
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bitwise_the_masked_two_branch_formula():
    edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]
    z = np.concatenate([edges, np.random.default_rng(18).normal(scale=40.0, size=100_000)])
    assert np.array_equal(sigmoid(z).view(np.uint64), masked_sigmoid(z).view(np.uint64))
    for value in edges:
        assert sigmoid(value).view(np.uint64) == masked_sigmoid(value).view(np.uint64)[0]


def test_label_probabilities_sum_to_one():
    # P(y=0 | x) is the prediction under the negated score
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rng.normal(scale=3.0, size=4)
        F = rng.normal(size=4)
        assert abs(predict_prob(w, F) + predict_prob(-w, F) - 1.0) <= 1e-15


def test_log_prior_normalization_cancels_at_zero():
    assert log_prior(np.zeros(2), Prior(2.0 * math.pi)) == 0.0


def test_log_prior_closed_form():
    # (m/2) ln(r / 2 pi) - (r/2) |w|^2 at w = (1, 0), r = 1
    value = log_prior(np.array([1.0, 0.0]), Prior(1.0))
    assert math.isclose(value, -math.log(2.0 * math.pi) - 0.5, rel_tol=1e-15)


def test_prior_requires_positive_precision():
    with pytest.raises(ValueError):
        Prior(0.0)
    with pytest.raises(ValueError):
        Prior(-1.0)


def test_log_likelihood_single_sample_no_prior():
    value = log_likelihood(np.zeros(1), np.array([1.0]), np.ones((1, 1)), prior=None)
    assert math.isclose(value, math.log(0.5), rel_tol=1e-15)


def test_log_likelihood_empty_data_is_prior_only():
    w = np.array([0.3, -0.7])
    prior = Prior(2.5)
    value = log_likelihood(w, np.zeros(0), np.zeros((0, 2)), prior)
    assert value == log_prior(w, prior)


def test_log_likelihood_additive_under_duplication():
    rng = np.random.default_rng(3)
    y, F = random_instance(rng, t_max=7, m=3)
    w = rng.normal(size=3)
    single = log_likelihood(w, y, F, prior=None)
    doubled = log_likelihood(w, np.concatenate([y, y]), np.vstack([F, F]), prior=None)
    assert math.isclose(doubled, 2.0 * single, rel_tol=1e-12)


def test_gradient_zero_on_balanced_symmetric_data():
    F = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0])
    g = gradient(np.zeros(2), y, F, Prior(1.0))
    assert np.array_equal(g, np.zeros(2))


@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    y, F = random_instance(rng, t_max=15, m=4)
    prior = Prior(float(rng.uniform(0.3, 3.0)))
    w = rng.normal(scale=0.5, size=4)
    g = gradient(w, y, F, prior)
    fd = numeric_gradient(lambda v: log_likelihood(v, y, F, prior), w)
    assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(g)))


@pytest.mark.parametrize("seed", range(4))
def test_hessian_matches_gradient_differences(seed):
    rng = np.random.default_rng(100 + seed)
    y, F = random_instance(rng, t_max=12, m=3)
    prior = Prior(1.5)
    w = rng.normal(scale=0.5, size=3)
    H = hessian(w, y, F, prior)
    fd = numeric_jacobian(lambda v: gradient(v, y, F, prior), w)
    assert np.all(np.abs(H - fd) <= 1e-5 * (1.0 + np.abs(H)))


def test_hessian_symmetric_negative_definite():
    rng = np.random.default_rng(4)
    y, F = random_instance(rng, t_max=20, m=5)
    prior = Prior(2.0)
    H = hessian(rng.normal(size=5), y, F, prior)
    assert np.array_equal(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) <= -prior.r + 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_objective_is_concave_along_segments(seed):
    rng = np.random.default_rng(200 + seed)
    y, F = random_instance(rng, t_max=10, m=3)
    prior = Prior(1.0)
    w1 = rng.normal(size=3)
    w2 = rng.normal(size=3)
    lam = float(rng.uniform(0.1, 0.9))
    mid = log_likelihood(lam * w1 + (1 - lam) * w2, y, F, prior)
    chord = lam * log_likelihood(w1, y, F, prior) + (1 - lam) * log_likelihood(w2, y, F, prior)
    assert mid >= chord - 1e-12


def test_stacked_counts_equal_duplicated_rows():
    # oracle: row t repeated counts[s, t] times, evaluated one vector at a time
    rng = np.random.default_rng(500)
    y, F = random_instance(rng, t_max=9, m=3)
    W = rng.normal(size=(4, 3))
    counts = rng.integers(0, 3, size=(4, 9))
    prior = Prior(0.7)
    L = log_likelihood(W, y, F, prior, counts)
    G = gradient(W, y, F, prior, counts)
    H = hessian(W, y, F, prior, counts)
    for s in range(4):
        idx = np.repeat(np.arange(9), counts[s])
        assert math.isclose(L[s], log_likelihood(W[s], y[idx], F[idx], prior), rel_tol=1e-12)
        assert np.allclose(G[s], gradient(W[s], y[idx], F[idx], prior), rtol=1e-12, atol=1e-12)
        assert np.allclose(H[s], hessian(W[s], y[idx], F[idx], prior), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-3, 0.5, 3.0, 40.0])
def test_objective_change_matches_the_difference(scale):
    rng = np.random.default_rng(510)
    y, F = random_instance(rng, t_max=20, m=4)
    prior = Prior(1.2)
    w = rng.normal(size=4)
    dw = scale * rng.normal(size=4)
    direct = log_likelihood(w + dw, y, F, prior) - log_likelihood(w, y, F, prior)
    change = log_likelihood_change(w, dw, y, F, prior)
    assert math.isclose(change, direct, rel_tol=1e-9, abs_tol=1e-11)


def test_objective_change_keeps_precision_below_one_ulp():
    # oracle: second-order Taylor expansion, exact to O(|dw|^3) ~ 1e-39
    rng = np.random.default_rng(520)
    y, F = random_instance(rng, t_max=20, m=4)
    prior = Prior(1.0)
    w = 5.0 * rng.normal(size=4)  # saturated scores on both sides
    dw = 1e-13 * rng.normal(size=4)
    taylor = gradient(w, y, F, prior) @ dw + 0.5 * dw @ hessian(w, y, F, prior) @ dw
    assert math.isclose(log_likelihood_change(w, dw, y, F, prior), taylor, rel_tol=1e-9)


def test_objective_change_of_a_huge_step_is_finite():
    F = np.array([[1.0, 2.0], [1.0, -3.0]])
    y = np.array([1.0, 0.0])
    change = log_likelihood_change(np.zeros(2), np.array([0.0, 1e4]), y, F, Prior(1.0))
    assert np.isfinite(change)
    direct = log_likelihood(np.array([0.0, 1e4]), y, F, Prior(1.0)) - log_likelihood(
        np.zeros(2), y, F, Prior(1.0)
    )
    assert math.isclose(change, direct, rel_tol=1e-12)
