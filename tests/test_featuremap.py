import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from contilearn.featuremap import (
    Layer,
    RecursiveFeatureMap,
    calibrate_layer,
    embed_mean_solution,
    expand,
    expansion_size,
)


def orthonormal_rows(rng, k, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, k)))
    return q.T


def random_map(rng, d, n_layers, n_train=40):
    """A feature map with random projections and training-calibrated scales."""
    std = RecursiveFeatureMap(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    F = std.super_features(rng.normal(size=(n_train, d)))
    layers = []
    for _ in range(n_layers):
        m_in = F.shape[1]
        k = int(rng.integers(1, min(m_in, 3) + 1))
        layer = calibrate_layer(rng.normal(size=m_in), orthonormal_rows(rng, k, m_in), F)
        F = layer.apply(F)
        layers.append(layer)
    return replace(std, layers=tuple(layers))


def monomial_exponents(d, deg):
    if d == 1:
        return [(a,) for a in range(deg + 1)]
    return [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]


def interpolation_residual(fmap, deg, rng):
    """Fit every output feature as a polynomial of total degree <= deg on sample
    points, then measure the worst prediction error on held-out points."""
    d = fmap.d
    exps = monomial_exponents(d, deg)
    X_fit = rng.uniform(-2.0, 2.0, size=(max(4 * len(exps), 60), d))
    X_eval = rng.uniform(-2.0, 2.0, size=(50, d))
    basis = lambda X: np.column_stack([np.prod(X**np.array(e), axis=1) for e in exps])
    V_fit = fmap.transform(X_fit)
    V_eval = fmap.transform(X_eval)
    coef, *_ = np.linalg.lstsq(basis(X_fit), V_fit, rcond=None)
    return float(np.max(np.abs(basis(X_eval) @ coef - V_eval)))


def super_features(v0, u, F):
    """Projection of the rows F through a layer calibrated on them."""
    return calibrate_layer(v0, u, F).super_features(F)


def test_super_features_hand_case():
    # F_0 = (2*3 + 0*5)/2 = 3, F_1 = 5
    out = super_features(np.array([2.0, 0.0]), np.array([[0.0, 1.0]]), np.array([[3.0, 5.0]]))
    assert np.array_equal(out, [[3.0, 5.0]])


def test_super_features_orthogonal_input_vanishes():
    v0, u = np.array([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0]])
    out = super_features(v0, u, np.array([[0.0, 0.0, 7.0]]))
    assert np.array_equal(out, [[0.0, 0.0]])


def test_super_features_with_no_components():
    out = super_features(np.array([3.0, 4.0]), np.zeros((0, 2)), np.array([[3.0, 4.0]]))
    assert out.shape == (1, 1)
    assert np.isclose(out[0, 0], 5.0)


def test_super_features_degenerate_mean_warns_once_and_uses_constant():
    f = np.array([[5.0, 6.0], [1.0, 2.0]])
    with pytest.warns(UserWarning, match="constant") as caught:
        layer = calibrate_layer(np.zeros(2), np.array([[1.0, 0.0]]), f)
    assert len(caught) == 1
    assert layer.degenerate_v0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = layer.super_features(f)
    assert np.array_equal(out, [[1.0, 5.0], [1.0, 1.0]])


def test_mean_whose_norm_underflows_is_degenerate():
    f = np.array([[5.0, 6.0], [1.0, 2.0]])
    tiny = np.array([1e-200, -2e-200])
    with pytest.warns(UserWarning, match="constant"):
        layer = calibrate_layer(tiny, np.array([[1.0, 0.0]]), f)
    assert layer.degenerate_v0
    # the flag is read off v0, so the layer's arrays alone decide it
    assert Layer(tiny, layer.u, layer.scales).degenerate_v0
    assert Layer(np.zeros(2), layer.u, layer.scales).degenerate_v0
    assert not Layer(np.array([1e-150, 0.0]), layer.u, layer.scales).degenerate_v0
    assert [field.name for field in fields(Layer)] == ["v0", "u", "scales"]


def test_calibrate_layer_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="dimension"):
        calibrate_layer(np.ones(3), np.zeros((2, 4)), np.ones((4, 3)))


def test_expand_two_features():
    out = expand(np.array([[2.0, 3.0]]), np.ones(5))
    assert np.array_equal(out, [[2.0, 3.0, 4.0, 6.0, 9.0]])


def test_expand_pure_bias_direction():
    out = expand(np.array([[1.0, 0.0, 0.0]]), np.ones(9))
    expected = np.zeros((1, 9))
    expected[0, 0] = 1.0  # linear bias slot
    expected[0, 3] = 1.0  # (0, 0) product slot
    assert np.array_equal(out, expected)


def test_expand_output_width():
    assert expansion_size(3) == 9
    assert expand(np.ones((4, 3)), np.ones(9)).shape == (4, 9)


def test_expand_divides_by_scales():
    scales = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    out = expand(np.array([[2.0, 4.0]]), scales)
    assert np.array_equal(out, [[1.0, 1.0, 0.5, 0.5, 0.5]])


def test_expansion_pair_order_is_lexicographic():
    # products of distinct primes name their pair: (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    out = expand(np.array([[2.0, 3.0, 5.0]]), np.ones(9))
    assert np.array_equal(out[0, 3:], [4.0, 6.0, 10.0, 9.0, 15.0, 25.0])


def concatenated_expand(F, scales):
    # the former one-line expansion: gathered product pairs, concatenated, then divided
    ii, jj = np.triu_indices(F.shape[1])
    return np.concatenate([F, F[:, ii] * F[:, jj]], axis=1) / scales


# signed zeros, a subnormal, and values whose products overflow or are not numbers
EDGES = [0.0, -0.0, 5e-324, 1e200, -1e200, np.inf, np.nan, 1.0]


@pytest.mark.parametrize("rows", [1, 7, 8195])
@pytest.mark.parametrize("order", ["C", "F"])
def test_expand_is_bitwise_the_concatenated_formula(rows, order):
    rng = np.random.default_rng(rows)
    for m in range(1, 11):
        F = rng.normal(scale=3.0, size=(rows, m))
        F.flat[: len(EDGES)] = EDGES[: F.size]
        F = np.asarray(F, order=order)
        scales = rng.uniform(0.1, 10.0, size=expansion_size(m))
        with np.errstate(over="ignore", invalid="ignore"):
            out, expected = expand(F, scales), concatenated_expand(F, scales)
        assert out.flags.c_contiguous
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def row_major_expand(F, scales):
    # the former expansion: a (rows, width) buffer whose product columns are filled in turn
    m = F.shape[1]
    out = np.empty((F.shape[0], scales.shape[0]))
    out[:, :m] = F
    col = m
    for a in range(m):
        np.multiply(F[:, a : a + 1], F[:, a:], out=out[:, col : col + m - a])
        col += m - a
    out /= scales
    return out


@pytest.mark.parametrize("rows, m", [(60, 9), (3000, 8), (8192, 9)])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_expand_is_bitwise_the_row_major_expansion(rows, m, layout):
    rng = np.random.default_rng(rows + m)
    F = rng.normal(scale=3.0, size=(2 * rows, 2 * m))
    F = F[::2, 1::2] if layout == "strided" else np.asarray(F[:rows, :m], order=layout)
    scales = rng.uniform(0.1, 10.0, size=expansion_size(m))
    out = expand(F, scales)
    assert out.flags.c_contiguous
    assert np.array_equal(out.view(np.int64), row_major_expand(F, scales).view(np.int64))


def test_calibrated_scales_give_unit_rms():
    rng = np.random.default_rng(20)
    F = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 2))])
    layer = calibrate_layer(rng.normal(size=3), orthonormal_rows(rng, 2, 3), F)
    rms = np.sqrt(np.mean(layer.apply(F) ** 2, axis=0))
    assert np.max(np.abs(rms - 1.0)) <= 1e-9


def test_identically_zero_feature_keeps_scale_one():
    # u row orthogonal to every training row makes that feature vanish
    F = np.column_stack([np.ones(10), np.linspace(-1, 1, 10), np.zeros(10)])
    layer = calibrate_layer(np.array([1.0, 0.0, 0.0]), np.array([[0.0, 0.0, 1.0]]), F)
    out = layer.apply(F)
    assert np.array_equal(out[:, 1], np.zeros(10))  # linear slot of the zero feature
    assert layer.scales[1] == 1.0


def test_zero_layer_map_is_basic_features():
    fmap = RecursiveFeatureMap(np.array([1.0]), np.array([2.0]))
    x = np.array([[5.0]])
    assert np.array_equal(fmap.transform(x), fmap.super_features(x))
    assert np.array_equal(fmap.transform(x), [[1.0, 2.0]])


def test_one_layer_matches_symbolic_expansion():
    # oracle: multiply the polynomials out with numpy's polynomial arithmetic
    rng = np.random.default_rng(21)
    fmap = random_map(rng, d=1, n_layers=1)
    layer = fmap.layers[0]

    one = P.Polynomial([1.0])
    xs = P.Polynomial([-fmap.mean[0] / fmap.scale[0], 1.0 / fmap.scale[0]])
    basis = [one, xs]
    f0_poly = sum(layer.v0[i] * basis[i] for i in range(2)) / np.linalg.norm(layer.v0)
    supers = [f0_poly] + [sum(layer.u[a, i] * basis[i] for i in range(2)) for a in range(layer.k)]
    ii, jj = np.triu_indices(layer.m_super)
    expanded = supers + [supers[a] * supers[b] for a, b in zip(ii, jj)]
    polys = [p / s for p, s in zip(expanded, layer.scales)]

    points = rng.uniform(-3.0, 3.0, size=10)
    for x in points:
        expected = np.array([p(x) for p in polys])
        got = fmap.transform(np.array([[x]]))[0]
        assert np.max(np.abs(got - expected)) <= 1e-10


@pytest.mark.parametrize("d,n_layers", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_outputs_are_bounded_degree_polynomials(d, n_layers):
    rng = np.random.default_rng(1000 + 10 * d + n_layers)
    fmap = random_map(rng, d=d, n_layers=n_layers)
    assert interpolation_residual(fmap, 2**n_layers, rng) <= 1e-8


def test_embedded_mean_reproduces_scores():
    rng = np.random.default_rng(22)
    std = RecursiveFeatureMap(rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
    F_train = std.super_features(rng.normal(size=(50, 2)))
    v0 = rng.normal(size=3)
    layer = calibrate_layer(v0, orthonormal_rows(rng, 2, 3), F_train)
    w_embed = embed_mean_solution(layer)

    X = rng.normal(size=(100, 2))
    F = std.super_features(X)
    scores = layer.apply(F) @ w_embed
    assert np.max(np.abs(scores - F @ v0)) <= 1e-10


def test_embedded_zero_mean_is_zero_vector():
    F = np.hstack([np.ones((10, 1)), np.linspace(-1, 1, 10)[:, None]])
    with pytest.warns(UserWarning):
        layer = calibrate_layer(np.zeros(2), np.array([[0.0, 1.0]]), F)
    assert np.array_equal(embed_mean_solution(layer), np.zeros(layer.m_out))


def test_scale_rescaling_is_absorbed_by_the_embedded_coefficient():
    rng = np.random.default_rng(23)
    F = np.hstack([np.ones((20, 1)), rng.normal(size=(20, 2))])
    layer = calibrate_layer(rng.normal(size=3), orthonormal_rows(rng, 1, 3), F)
    rescaled = Layer(layer.v0, layer.u, layer.scales * 2.0)

    w_a = embed_mean_solution(layer)
    w_b = embed_mean_solution(rescaled)
    # features shrink by 2, the stored coefficient grows by 2, scores agree
    assert np.isclose(w_b[0], 2.0 * w_a[0])
    assert np.allclose(layer.apply(F) @ w_a, rescaled.apply(F) @ w_b, atol=1e-10)


def test_layer_chain_validation():
    std = RecursiveFeatureMap(np.zeros(1), np.ones(1))
    bad = Layer(np.ones(5), np.zeros((0, 5)), np.ones(expansion_size(1)))
    with pytest.raises(ValueError, match="width"):
        replace(std, layers=(bad,))


def test_layer_requires_orthonormal_rows():
    with pytest.raises(ValueError, match="orthonormal"):
        Layer(np.ones(2), np.array([[1.0, 1.0]]), np.ones(expansion_size(2)))


def test_basic_features_prepends_bias():
    std = RecursiveFeatureMap(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    f = std.super_features(np.array([[3.0, 10.0]]))
    assert f[0, 0] == 1.0
    assert np.array_equal(f[0, 1:], [(3.0 - 1.0) / 2.0, (10.0 - 2.0) / 4.0])


def test_basic_features_zero_dimensional():
    std = RecursiveFeatureMap(np.zeros(0), np.ones(0))
    assert np.array_equal(std.super_features(np.zeros((1, 0))), [[1.0]])


def test_scales_must_be_positive():
    with pytest.raises(ValueError):
        RecursiveFeatureMap(np.zeros(1), np.zeros(1))


def test_transform_checks_input_width():
    # a row of the wrong width, and a single row that is not a one-row matrix
    fmap = RecursiveFeatureMap(np.zeros(2), np.ones(2))
    for X in (np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="^expected a matrix with 2 columns, got shape"):
            fmap.transform(X)


def test_transform_applies_every_layer_in_turn():
    rng = np.random.default_rng(25)
    fmap = random_map(rng, d=2, n_layers=2)
    X = rng.normal(size=(7, 2))
    Z = replace(fmap, layers=()).super_features(X)
    for layer in fmap.layers:
        Z = layer.apply(Z)
    assert np.array_equal(fmap.transform(X), Z)


def test_super_features_with_and_without_layers():
    rng = np.random.default_rng(24)
    fmap0 = RecursiveFeatureMap(np.zeros(2), np.ones(2))
    X = rng.normal(size=(5, 2))
    assert np.array_equal(fmap0.super_features(X), fmap0.transform(X))

    fmap1 = random_map(rng, d=2, n_layers=1)
    S = fmap1.super_features(X)
    assert S.shape == (5, fmap1.layers[-1].m_super)
