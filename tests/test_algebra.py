import warnings

import numpy as np
import pytest

from contilearn.algebra import (
    _RIDGE,
    StructureConstants,
    associativity_residual,
    fit_structure_constants,
    reference_algebra,
)
from contilearn.errors import DataError, NumericalError

COMPLEX = reference_algebra("complex")
QUATERNION = reference_algebra("quaternion")


def test_reference_algebras_are_exactly_associative():
    assert associativity_residual(COMPLEX) == 0.0
    assert associativity_residual(QUATERNION) == 0.0


def test_scaled_square_is_still_a_ring():
    # changing only i*i to -1.1 yields the commutative ring with x^2 = -1.1,
    # which is associative, so the residual must stay exactly zero
    c = COMPLEX.c.copy()
    c[1, 1, 0] = -1.1
    assert associativity_residual(StructureConstants(c)) == 0.0


def test_perturbed_identity_action_breaks_associativity():
    # 1*i = 1.1 i makes (1*1)*i and 1*(1*i) differ by 0.11
    c = COMPLEX.c.copy()
    c[0, 1, 1] = 1.1
    assert associativity_residual(StructureConstants(c)) >= 0.05


def test_perturbed_quaternion_product_breaks_associativity():
    c = QUATERNION.c.copy()
    c[1, 2, 3] = 1.1  # i*j = 1.1 k while j*i stays -k
    assert associativity_residual(StructureConstants(c)) >= 0.05


def test_multiply_complex_square():
    # c[a, b] holds the coordinates of the product of basis elements a and b
    assert np.array_equal(COMPLEX.c[1, 1], [-1.0, 0.0])


def test_identity_element_law():
    for sc in (COMPLEX, QUATERNION):
        eye = np.eye(sc.n)
        assert np.array_equal(sc.c[0], eye)
        assert np.array_equal(sc.c[:, 0, :], eye)


def test_quaternion_defining_relation():
    i, j, k = 1, 2, 3
    assert np.array_equal(QUATERNION.c[i, i], [-1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(QUATERNION.c[i, j], np.eye(4)[k])
    assert np.array_equal(QUATERNION.c[j, i], -np.eye(4)[k])


def test_unknown_reference_name():
    with pytest.raises(ValueError, match="unknown algebra"):
        reference_algebra("octonion")


def test_fit_recovers_one_hot_constants():
    # cells partition the inputs: F_a F_b = [a == b] F_a exactly
    rng = np.random.default_rng(32)
    n = 3
    cells = rng.integers(0, n, size=30)
    F = np.eye(n)[cells]
    report = fit_structure_constants(F)
    expected = np.zeros((n, n, n))
    for a in range(n):
        expected[a, a, a] = 1.0
    assert np.max(np.abs(report.constants.c - expected)) <= 1e-8
    assert report.closure_residual <= 1e-10


def test_fit_single_constant_feature():
    report = fit_structure_constants(np.ones((5, 1)))
    assert abs(report.constants.c[0, 0, 0] - 1.0) <= 1e-9
    assert report.closure_residual <= 1e-10
    assert report.associativity_residual <= 1e-9


def test_fit_reports_non_closure_of_linear_pair():
    # oracle by hand: projecting x^2 onto span{1, x} over {-2..2} gives 2,
    # leaving defects (2, -1, -2, -1, 2) on the (x, x) pair
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    F = np.column_stack([np.ones(5), x])
    report = fit_structure_constants(F)
    assert report.closure_residual > 0.5
    expected_rms = np.sqrt((4 + 1 + 4 + 1 + 4) / 15.0)
    assert abs(report.closure_residual - expected_rms) <= 1e-9
    assert np.allclose(report.constants.c[1, 1], [2.0, 0.0], atol=1e-8)


def test_fit_symmetry_and_conditioning_flag():
    rng = np.random.default_rng(33)
    F = rng.normal(size=(40, 3))
    report = fit_structure_constants(F)
    assert np.max(np.abs(report.constants.c - np.swapaxes(report.constants.c, 0, 1))) == 0.0
    assert not report.ill_conditioned

    # duplicated column: rank deficient, fit still returns, flag raised
    F_dup = np.column_stack([F[:, 0], F[:, 0], F[:, 1]])
    report_dup = fit_structure_constants(F_dup)
    assert report_dup.ill_conditioned
    assert np.all(np.isfinite(report_dup.constants.c))


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError, match="samples"):
        fit_structure_constants(np.ones((2, 3)))


def test_fit_on_overflowing_products_is_a_data_error():
    F = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="too large in magnitude"):
            fit_structure_constants(F)


def test_fit_on_a_numerically_singular_gram_matrix_names_the_module():
    # collinear columns at a scale where the ridge term is below one ulp of the Gram matrix
    F = np.array([[1e8, 2e8], [2e8, 4e8], [3e8, 6e8]])
    with pytest.raises(NumericalError, match="^algebra: "):
        fit_structure_constants(F)


def former_fit(F):
    # the former products and defect: gathered pairs and a fresh defect array
    n = F.shape[1]
    ii, jj = np.triu_indices(n)
    P = F[:, ii] * F[:, jj]
    coef = np.linalg.solve(F.T @ F + _RIDGE * np.eye(n), F.T @ P)
    defect = P - F @ coef
    return np.sqrt(np.mean(P * P)), np.sqrt(np.mean(defect * defect)), coef.T


@pytest.mark.parametrize("rows", [1, 7, 8195])
@pytest.mark.parametrize("order", ["C", "F"])
def test_fit_is_bitwise_the_former_products_and_defect(rows, order):
    rng = np.random.default_rng(rows)
    for n in range(1, min(rows, 10) + 1):
        F = np.asarray(rng.normal(scale=3.0, size=(rows, n)), order=order)
        report = fit_structure_constants(F)
        product_rms, closure, coef = former_fit(F)
        ii, jj = np.triu_indices(n)
        assert np.float64(report.product_rms).view(np.int64) == product_rms.view(np.int64)
        assert np.float64(report.closure_residual).view(np.int64) == closure.view(np.int64)
        assert np.array_equal(report.constants.c[ii, jj].view(np.int64), coef.view(np.int64))
