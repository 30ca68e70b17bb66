import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn.model import (
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


def former_softplus(z):
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


# the objective, its change and the gradient as whole-array expressions, both branches of
# the change on every entry; the library computes them in place and must match bit for bit
def former_log_likelihood(w, y, F, r, counts):
    z = w @ F.T
    value = np.sum(counts * (y * z - former_softplus(z)), axis=-1)
    return value if r is None else value + log_prior(w, r)


def former_log_likelihood_change(w, dw, y, F, r, counts):
    z, dz = w @ F.T, dw @ F.T
    upper = z >= 0.0
    mirrored = np.where(upper, -1.0, 1.0) * np.clip(dz, -1.0, 1.0)
    near = np.log1p(masked_sigmoid(-np.abs(z)) * np.expm1(mirrored)) + np.where(upper, dz, 0.0)
    far = former_softplus(z + dz) - former_softplus(z)
    value = np.sum(counts * (y * dz - np.where(np.abs(dz) <= 1.0, near, far)), axis=-1)
    return value if r is None else value - r * np.sum(w * dw + 0.5 * dw * dw, axis=-1)


def former_gradient(w, y, F, r, counts):
    g = (counts * (y - masked_sigmoid(w @ F.T))) @ F
    return g if r is None else g - r * w


def former_hessian(w, y, F, r, counts):
    p = masked_sigmoid(w @ F.T)
    H = np.matmul(F.T * (counts * (p * (1.0 - p)))[..., None, :], F)
    H = -0.5 * (H + np.swapaxes(H, -1, -2))
    return H if r is None else H - r * np.eye(w.shape[-1])


def same_bits(a, b):
    bits = [np.asarray(x, dtype=float).view(np.uint64) for x in (a, b)]
    return np.array_equal(*bits)


def oracle_instance():
    """Scores and score changes on a grid of edge values, exact in the products.

    Row 0 of W reads the scores from column 1 and row 0 of dW the changes from
    column 0, so z and dz are those columns exactly; the other rows are random.
    A score product sums from +0.0, so -0.0 never reaches these functions as a score.
    """
    zs = [0.0, 0.3, -0.3, 45.0, -45.0, 800.0, -800.0]
    dzs = [0.0, 1e-12, -0.5, 1.0, -1.0, float(np.nextafter(1.0, 2.0)), 1.5, -7.0, 60.0]
    grid = np.array([(dz, z) for z in zs for dz in dzs])
    rng = np.random.default_rng(61)
    F = np.hstack([grid, rng.normal(size=(len(grid), 2))])
    y = rng.integers(0, 2, size=len(grid)).astype(float)
    W = np.vstack([[0.0, 1.0, 0.0, 0.0], rng.normal(scale=3.0, size=(3, 4))])
    scales = np.array([[1e-9], [0.3], [6.0]])
    dW = np.vstack([[1.0, 0.0, 0.0, 0.0], scales * rng.normal(size=(3, 4))])
    counts = rng.integers(0, 4, size=(4, len(grid))).astype(float)
    z, dz = W[0] @ F.T, dW[0] @ F.T
    assert np.array_equal(z, grid[:, 1]) and np.array_equal(dz, grid[:, 0])
    assert (counts == 0).any(axis=1).all()
    return y, F, W, dW, counts


def assert_bitwise_the_former_expressions(w, dw, y, F, r, counts):
    weights = np.ones(len(y)) if counts is None else counts
    assert same_bits(
        log_likelihood_change(w, dw, y, F, r, counts),
        former_log_likelihood_change(w, dw, y, F, r, weights),
    )
    assert same_bits(gradient(w, y, F, r, counts), former_gradient(w, y, F, r, weights))
    assert same_bits(log_likelihood(w, y, F, r, counts), former_log_likelihood(w, y, F, r, weights))


@pytest.mark.parametrize("r", [None, 0.1, 7.0])
def test_objective_change_and_gradient_are_bitwise_the_former_expressions(r):
    y, F, W, dW, counts = oracle_instance()
    for w, dw, c in [(W, dW, counts), (W[0], dW[0], counts[0]), (W[1], dW[2], None)]:
        assert_bitwise_the_former_expressions(w, dw, y, F, r, c)
    # one row at a time, so each entry's term is compared on its own
    for t in range(len(y)):
        for label in (0.0, 1.0):
            assert_bitwise_the_former_expressions(
                W[0], dW[0], np.array([label]), F[t : t + 1], r, None
            )


@pytest.mark.parametrize("r", [None, 0.1, 7.0, 1e308])
def test_hessian_is_bitwise_the_former_expression_and_exactly_symmetric(r):
    # the product is symmetrized and the prior subtracted in place, in one array
    y, F, W, _, counts = oracle_instance()
    for w, c in [(W, counts), (W[0], counts[0]), (W[1], None)]:
        H = hessian(w, y, F, r, c)
        assert H.shape == w.shape + w.shape[-1:]
        assert same_bits(H, former_hessian(w, y, F, r, np.ones(len(y)) if c is None else c))
        assert same_bits(H, np.swapaxes(H, -1, -2))


def test_label_probabilities_sum_to_one():
    # P(y=0 | x) is the prediction under the negated score
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rng.normal(scale=3.0, size=4)
        F = rng.normal(size=4)
        assert abs(predict_prob(w, F) + predict_prob(-w, F) - 1.0) <= 1e-15


def test_log_prior_normalization_cancels_at_zero():
    assert log_prior(np.zeros(2), 2.0 * math.pi) == 0.0


def test_log_prior_closed_form():
    # (m/2) ln(r / 2 pi) - (r/2) |w|^2 at w = (1, 0), r = 1
    value = log_prior(np.array([1.0, 0.0]), 1.0)
    assert math.isclose(value, -math.log(2.0 * math.pi) - 0.5, rel_tol=1e-15)


def test_log_likelihood_single_sample_no_prior():
    value = log_likelihood(np.zeros(1), np.array([1.0]), np.ones((1, 1)), r=None)
    assert math.isclose(value, math.log(0.5), rel_tol=1e-15)


def test_log_likelihood_empty_data_is_prior_only():
    w = np.array([0.3, -0.7])
    prior = 2.5
    value = log_likelihood(w, np.zeros(0), np.zeros((0, 2)), prior)
    assert value == log_prior(w, prior)


def test_log_likelihood_additive_under_duplication():
    rng = np.random.default_rng(3)
    y, F = random_instance(rng, t_max=7, m=3)
    w = rng.normal(size=3)
    single = log_likelihood(w, y, F, r=None)
    doubled = log_likelihood(w, np.concatenate([y, y]), np.vstack([F, F]), r=None)
    assert math.isclose(doubled, 2.0 * single, rel_tol=1e-12)


def test_gradient_zero_on_balanced_symmetric_data():
    F = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0])
    g = gradient(np.zeros(2), y, F, 1.0)
    assert np.array_equal(g, np.zeros(2))


@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    y, F = random_instance(rng, t_max=15, m=4)
    prior = float(rng.uniform(0.3, 3.0))
    w = rng.normal(scale=0.5, size=4)
    g = gradient(w, y, F, prior)
    fd = numeric_gradient(lambda v: log_likelihood(v, y, F, prior), w)
    assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(g)))


@pytest.mark.parametrize("seed", range(4))
def test_hessian_matches_gradient_differences(seed):
    rng = np.random.default_rng(100 + seed)
    y, F = random_instance(rng, t_max=12, m=3)
    prior = 1.5
    w = rng.normal(scale=0.5, size=3)
    H = hessian(w, y, F, prior)
    fd = numeric_jacobian(lambda v: gradient(v, y, F, prior), w)
    assert np.all(np.abs(H - fd) <= 1e-5 * (1.0 + np.abs(H)))


def test_hessian_symmetric_negative_definite():
    rng = np.random.default_rng(4)
    y, F = random_instance(rng, t_max=20, m=5)
    prior = 2.0
    H = hessian(rng.normal(size=5), y, F, prior)
    assert np.array_equal(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) <= -prior + 1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_objective_is_concave_along_segments(seed):
    rng = np.random.default_rng(200 + seed)
    y, F = random_instance(rng, t_max=10, m=3)
    prior = 1.0
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
    prior = 0.7
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
    prior = 1.2
    w = rng.normal(size=4)
    dw = scale * rng.normal(size=4)
    direct = log_likelihood(w + dw, y, F, prior) - log_likelihood(w, y, F, prior)
    change = log_likelihood_change(w, dw, y, F, prior)
    assert math.isclose(change, direct, rel_tol=1e-9, abs_tol=1e-11)


def test_objective_change_keeps_precision_below_one_ulp():
    # oracle: second-order Taylor expansion, exact to O(|dw|^3) ~ 1e-39
    rng = np.random.default_rng(520)
    y, F = random_instance(rng, t_max=20, m=4)
    prior = 1.0
    w = 5.0 * rng.normal(size=4)  # saturated scores on both sides
    dw = 1e-13 * rng.normal(size=4)
    taylor = gradient(w, y, F, prior) @ dw + 0.5 * dw @ hessian(w, y, F, prior) @ dw
    assert math.isclose(log_likelihood_change(w, dw, y, F, prior), taylor, rel_tol=1e-9)


def test_objective_change_of_a_huge_step_is_finite():
    F = np.array([[1.0, 2.0], [1.0, -3.0]])
    y = np.array([1.0, 0.0])
    change = log_likelihood_change(np.zeros(2), np.array([0.0, 1e4]), y, F, 1.0)
    assert np.isfinite(change)
    direct = log_likelihood(np.array([0.0, 1e4]), y, F, 1.0) - log_likelihood(
        np.zeros(2), y, F, 1.0
    )
    assert math.isclose(change, direct, rel_tol=1e-12)
