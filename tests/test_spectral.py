import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn.spectral import eig_sym, select_components


def random_symmetric(rng, n):
    A = rng.uniform(-1, 1, size=(n, n))
    return 0.5 * (A + A.T)


def random_psd(rng, n):
    B = rng.normal(size=(n, n))
    return B @ B.T


def test_diagonal_matrix_is_its_own_decomposition():
    evals, rows = eig_sym(np.diag([4.0, 1.0, 0.01]))
    assert np.allclose(evals, [4.0, 1.0, 0.01], atol=1e-14)
    assert np.allclose(np.abs(rows), np.eye(3), atol=1e-14)
    for row in rows:
        assert row[np.argmax(np.abs(row))] > 0


def test_zero_matrix():
    evals, rows = eig_sym(np.zeros((3, 3)))
    assert np.array_equal(evals, np.zeros(3))
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_reconstruction_residual(seed):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, 6)
    evals, rows = eig_sym(A)
    recon = (rows.T * evals) @ rows
    assert np.linalg.norm(A - recon) <= 1e-8 * np.linalg.norm(A)
    assert np.all(np.diff(evals) <= 0)


def test_eigenpairs_satisfy_the_definition():
    rng = np.random.default_rng(5)
    A = random_symmetric(rng, 7)
    evals, rows = eig_sym(A)
    scale = np.linalg.norm(A)
    for lam, v in zip(evals, rows):
        assert np.max(np.abs(A @ v - lam * v)) <= 1e-8 * scale


def test_orthonormality():
    rng = np.random.default_rng(6)
    _, rows = eig_sym(random_symmetric(rng, 9))
    assert np.max(np.abs(rows @ rows.T - np.eye(9))) <= 1e-10


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(7)
    A = random_symmetric(rng, 5)
    _, rows_a = eig_sym(A)
    _, rows_b = eig_sym(A.copy())
    assert np.array_equal(rows_a, rows_b)
    for row in rows_a:
        assert row[np.argmax(np.abs(row))] > 0


def test_select_components_thresholding():
    # 0.2 * 4 = 0.8 admits eigenvalues 4 and 1, rejects 0.01
    cov = np.diag([4.0, 1.0, 0.01])
    u = select_components(cov, rel_threshold=0.2, k_max=8)
    assert u.shape == (2, 3)
    assert np.allclose(np.diag(u @ cov @ u.T), [4.0, 1.0], atol=1e-14)


def test_threshold_one_keeps_only_the_top():
    rng = np.random.default_rng(8)
    assert len(select_components(random_psd(rng, 4), rel_threshold=1.0, k_max=8)) == 1


def test_k_max_caps_selection():
    assert len(select_components(np.eye(3), rel_threshold=0.5, k_max=1)) == 1


def test_zero_covariance_selects_nothing():
    u = select_components(np.zeros((3, 3)), rel_threshold=0.05, k_max=8)
    assert u.shape == (0, 3)


def test_selected_trace_identity():
    rng = np.random.default_rng(9)
    cov = random_psd(rng, 6)
    u = select_components(cov, 0.1, 8)
    kept = eig_sym(cov)[0][: len(u)]
    P = u.T @ u
    assert abs(np.trace(P @ cov @ P) - kept.sum()) <= 1e-10 * max(1.0, np.trace(cov))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_selection_monotone_in_threshold(seed, t1, t2):
    rng = np.random.default_rng(seed)
    cov = random_psd(rng, 5)
    lo, hi = sorted((t1, t2))
    assert len(select_components(cov, hi, 8)) <= len(select_components(cov, lo, 8))
