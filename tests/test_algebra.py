import tracemalloc
import warnings

import numpy as np
import pytest

from contilearn import cli
from contilearn.algebra import associativity_residual, fit_structure_constants, reference_algebra
from contilearn.errors import DataError

COMPLEX = reference_algebra("complex")
QUATERNION = reference_algebra("quaternion")


def test_reference_algebras_are_exactly_associative():
    assert associativity_residual(COMPLEX) == 0.0
    assert associativity_residual(QUATERNION) == 0.0


def test_scaled_square_is_still_a_ring():
    # changing only i*i to -1.1 yields the commutative ring with x^2 = -1.1,
    # which is associative, so the residual must stay exactly zero
    c = COMPLEX.copy()
    c[1, 1, 0] = -1.1
    assert associativity_residual(c) == 0.0


def test_perturbed_identity_action_breaks_associativity():
    # 1*i = 1.1 i makes (1*1)*i and 1*(1*i) differ by 0.11
    c = COMPLEX.copy()
    c[0, 1, 1] = 1.1
    assert associativity_residual(c) >= 0.05


def test_perturbed_quaternion_product_breaks_associativity():
    c = QUATERNION.copy()
    c[1, 2, 3] = 1.1  # i*j = 1.1 k while j*i stays -k
    assert associativity_residual(c) >= 0.05


def test_multiply_complex_square():
    # c[a, b] holds the coordinates of the product of basis elements a and b
    assert np.array_equal(COMPLEX[1, 1], [-1.0, 0.0])


def test_identity_element_law():
    for c in (COMPLEX, QUATERNION):
        eye = np.eye(len(c))
        assert np.array_equal(c[0], eye)
        assert np.array_equal(c[:, 0, :], eye)


def test_quaternion_defining_relation():
    i, j, k = 1, 2, 3
    assert np.array_equal(QUATERNION[i, i], [-1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(QUATERNION[i, j], np.eye(4)[k])
    assert np.array_equal(QUATERNION[j, i], -np.eye(4)[k])


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
    assert np.max(np.abs(report.constants - expected)) <= 1e-8
    assert report.closure_residual <= 1e-10


def test_fit_single_constant_feature():
    report = fit_structure_constants(np.ones((5, 1)))
    assert abs(report.constants[0, 0, 0] - 1.0) <= 1e-9
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
    assert np.allclose(report.constants[1, 1], [2.0, 0.0], atol=1e-8)


def test_fit_symmetry_and_conditioning_flag():
    rng = np.random.default_rng(33)
    F = rng.normal(size=(40, 3))
    report = fit_structure_constants(F)
    assert np.max(np.abs(report.constants - np.swapaxes(report.constants, 0, 1))) == 0.0
    assert not report.ill_conditioned

    # duplicated column: rank deficient, fit still returns, flag raised
    F_dup = np.column_stack([F[:, 0], F[:, 0], F[:, 1]])
    report_dup = fit_structure_constants(F_dup)
    assert report_dup.ill_conditioned
    assert np.all(np.isfinite(report_dup.constants))


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError, match="samples"):
        fit_structure_constants(np.ones((2, 3)))


def test_fit_on_overflowing_products_is_a_data_error():
    F = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="too large in magnitude"):
            fit_structure_constants(F)


def test_fit_on_a_numerically_singular_gram_matrix_is_flagged():
    # collinear columns at a scale where an absolute ridge would sit below one ulp of G
    F = np.array([[1e8, 2e8], [2e8, 4e8], [3e8, 6e8]])
    report = fit_structure_constants(F)
    assert report.ill_conditioned
    assert np.all(np.isfinite(report.constants))
    # every pair product is a multiple of x^2, so the fit is the projection onto x alone
    alone = fit_structure_constants(F[:, :1])
    assert abs(report.normalized_residual - alone.normalized_residual) <= 1e-12


def fit_in_blocks(F, rows):
    """The fit of F handed over in blocks of ``rows`` rows, and the length of every block."""
    blocks = [F[lo : lo + rows] for lo in range(0, len(F), rows)]
    return fit_structure_constants(*blocks), [len(Fb) for Fb in blocks]


B = cli.BLOCK_ROWS


@pytest.mark.parametrize(
    ("samples", "rows", "blocks"),
    [(2 * B + 1, B, [B, B, 1]), (7, 2, [2, 2, 2, 1])],
    ids=["2B+1-rows", "7-rows-in-2-row-blocks"],
)
@pytest.mark.parametrize("order", ["C", "F"])
def test_a_fit_across_blocks_agrees_with_the_one_block_fit(order, samples, rows, blocks):
    rng = np.random.default_rng(samples)
    for n in (1, 2, 4):
        F = np.asarray(rng.normal(scale=3.0, size=(samples, n)), order=order)
        blocked, seen = fit_in_blocks(F, rows)
        assert seen == blocks
        whole, seen = fit_in_blocks(F, samples)
        assert seen == [samples]
        c = whole.constants
        assert np.max(np.abs(blocked.constants - c)) <= 1e-12 * np.max(np.abs(c))
        for name in ("closure_residual", "normalized_residual", "product_rms"):
            value = getattr(whole, name)
            assert abs(getattr(blocked, name) - value) <= 1e-12 * value
        assert blocked.ill_conditioned == whole.ill_conditioned


def former_fit(F):
    # the former fit: whole product matrix, normal equations with an absolute ridge
    n = F.shape[1]
    ii, jj = np.triu_indices(n)
    P = F[:, ii] * F[:, jj]
    coef = np.linalg.solve(F.T @ F + 1e-10 * np.eye(n), F.T @ P)
    defect = P - F @ coef
    return np.sqrt(np.mean(P * P)), np.sqrt(np.mean(defect * defect)), coef.T


@pytest.mark.parametrize("rows", [60, 2 * B + 1])
@pytest.mark.parametrize("order", ["C", "F"])
def test_a_well_conditioned_fit_agrees_with_the_former_fit(rows, order):
    # the relative damping moves the constants by about 1e-12 of the largest;
    # the residuals move only by rounding
    rng = np.random.default_rng(rows)
    for n in range(1, 11):
        F = np.asarray(rng.normal(scale=3.0, size=(rows, n)), order=order)
        report = fit_structure_constants(F)
        product_rms, closure, coef = former_fit(F)
        ii, jj = np.triu_indices(n)
        assert not report.ill_conditioned
        assert np.max(np.abs(report.constants[ii, jj] - coef)) <= 1e-11 * np.max(np.abs(coef))
        assert abs(report.product_rms - product_rms) <= 1e-14 * product_rms
        assert abs(report.closure_residual - closure) <= 1e-14 * closure


def test_a_fit_on_many_rows_builds_no_products_matrix():
    # the whole (10^5 x 45) products matrix alone would take 36 MB
    F = np.random.default_rng(9).normal(size=(100_000, 9))
    blocks = [F[lo : lo + B] for lo in range(0, len(F), B)]
    tracemalloc.start()
    try:
        fit_structure_constants(*blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
