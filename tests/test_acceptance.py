"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import contilearn
from contilearn.algebra import (
    StructureConstants,
    associativity_residual,
    fit_structure_constants,
    reference_algebra,
)
from contilearn.ensemble import fit_distribution, weights_from_loglik
from contilearn.model import Prior, gradient, log_likelihood
from contilearn.solver import maximize
from contilearn.spectral import eig_sym, select_components
from tests.conftest import random_instance
from tests.test_featuremap import interpolation_residual, random_map
from tests.test_model import numeric_gradient

pytestmark = pytest.mark.acceptance

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")

        return wrapper

    return decorate


def all_reports(xor_run0, xor_run1, circle_run1, multi_iter_run):
    for result, _ in (xor_run0, xor_run1, circle_run1):
        yield from result.reports
    yield from multi_iter_run.reports


def quadratic_oracle_accuracy(dataset, ridge=1e-3):
    """Independent check: logistic fit on explicit quadratic features via scipy."""
    B = np.hstack([np.ones((dataset.t_max, 1)), dataset.inputs])
    m = B.shape[1]
    cols = [B[:, a] * B[:, b] for a in range(m) for b in range(a, m)]
    Phi = np.column_stack(cols)
    y = dataset.y

    def negative_objective(w):
        z = Phi @ w
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        value = -(y @ z - softplus.sum()) + 0.5 * ridge * (w @ w)
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        grad = -Phi.T @ (y - p) + ridge * w
        return value, grad

    res = scipy.optimize.minimize(
        negative_objective,
        np.zeros(Phi.shape[1]),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 1000},
    )
    z = Phi @ res.x
    return float(np.mean((z >= 0.0).astype(float) == y))


@criterion("1 solver-correctness")
def test_criterion_1_solver_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    for _ in range(20):
        y, F = random_instance(rng)
        prior = Prior(float(rng.uniform(0.5, 2.0)))
        w_probe = rng.normal(scale=0.5, size=F.shape[1])
        g = gradient(w_probe, y, F, prior)
        fd = numeric_gradient(lambda v: log_likelihood(v, y, F, prior), w_probe)
        assert np.all(np.abs(g - fd) <= 1e-6 * (1.0 + np.abs(g)))

        sol = maximize(y, F, prior)
        assert sol.converged and sol.grad_norm <= 1e-8
        for _ in range(5):
            other = maximize(y, F, prior, w_init=rng.normal(size=F.shape[1]))
            assert np.max(np.abs(other.w - sol.w)) <= 1e-6
    assert time.perf_counter() - start < 5.0


@criterion("2 weighted-statistics-oracle")
def test_criterion_2_weighted_statistics():
    rng = np.random.default_rng(61)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        count = int(rng.integers(2, 9))
        ws = [rng.normal(size=m) for _ in range(count)]
        L = rng.uniform(-10, 10, size=count)
        weights = weights_from_loglik(L)
        got_mean, got_cov = fit_distribution(np.stack(ws), weights)
        mean = sum(wt * w for wt, w in zip(weights, ws))
        cov = np.zeros((m, m))
        for wt, w in zip(weights, ws):
            cov += wt * np.outer(w - mean, w - mean)
        assert np.max(np.abs(got_mean - mean)) <= 1e-12
        assert np.max(np.abs(got_cov - cov)) <= 1e-12


@criterion("3 spectral-contract")
def test_criterion_3_spectral_contract():
    rng = np.random.default_rng(62)
    for n in range(2, 13):
        A = rng.uniform(-1, 1, size=(n, n))
        A = 0.5 * (A + A.T)
        evals, rows = eig_sym(A)
        assert np.linalg.norm(A - (rows.T * evals) @ rows) <= 1e-8
        assert np.max(np.abs(rows @ rows.T - np.eye(n))) <= 1e-10
    for _ in range(20):
        B = rng.normal(size=(5, 5))
        cov = B @ B.T
        lo, hi = sorted(rng.uniform(0.01, 1.0, size=2))
        assert len(select_components(cov, hi, 8)) <= len(select_components(cov, lo, 8))


@criterion("4 degree-bound")
def test_criterion_4_degree_bound():
    for d in (1, 2):
        for n_layers in (1, 2):
            rng = np.random.default_rng(6300 + 10 * d + n_layers)
            fmap = random_map(rng, d=d, n_layers=n_layers)
            assert interpolation_residual(fmap, 2**n_layers, rng) <= 1e-8


@criterion("5 containment-bound")
def test_criterion_5_containment(xor_run0, xor_run1, circle_run1, multi_iter_run):
    reports = list(all_reports(xor_run0, xor_run1, circle_run1, multi_iter_run))
    assert reports
    for report in reports:
        assert report.best_L >= report.embed_L - 1e-9


@criterion("6 nonlinear-separability")
def test_criterion_6_nonlinear_separability(
    xor_run0, xor_run1, circle_run1, xor_data, circle_data
):
    result0, elapsed0 = xor_run0
    result1, elapsed1 = xor_run1
    circle_result, circle_elapsed = circle_run1

    acc0 = result0.reports[-1].accuracy
    acc1 = result1.reports[-1].accuracy
    assert acc0 <= 0.6
    assert acc1 >= 0.95
    assert circle_result.reports[-1].accuracy >= 0.9

    assert abs(acc1 - quadratic_oracle_accuracy(xor_data)) <= 0.03
    assert abs(circle_result.reports[-1].accuracy - quadratic_oracle_accuracy(circle_data)) <= 0.03

    assert elapsed0 + elapsed1 < 30.0
    assert circle_elapsed < 30.0


@criterion("7 dimension-cap")
def test_criterion_7_dimension_cap(xor_run0, xor_run1, circle_run1, multi_iter_run):
    cap = 9 + 45
    for report in all_reports(xor_run0, xor_run1, circle_run1, multi_iter_run):
        assert report.m <= cap
        if report.expanded is not None:
            assert report.expanded <= cap
    assert multi_iter_run.w.shape[0] <= cap


@criterion("8 algebra-suite")
def test_criterion_8_algebra_suite():
    assert associativity_residual(reference_algebra("complex")) == 0.0
    assert associativity_residual(reference_algebra("quaternion")) == 0.0

    perturbed = reference_algebra("complex").c.copy()
    perturbed[0, 1, 1] = 1.1
    assert associativity_residual(StructureConstants(perturbed)) >= 0.05
    perturbed_q = reference_algebra("quaternion").c.copy()
    perturbed_q[1, 2, 3] = 1.1
    assert associativity_residual(StructureConstants(perturbed_q)) >= 0.05

    rng = np.random.default_rng(64)
    cells = rng.integers(0, 4, size=40)
    report = fit_structure_constants(np.eye(4)[cells])
    expected = np.zeros((4, 4, 4))
    for a in range(4):
        expected[a, a, a] = 1.0
    assert np.max(np.abs(report.constants.c - expected)) <= 1e-8

    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    open_report = fit_structure_constants(np.column_stack([np.ones(5), x]))
    assert open_report.closure_residual > 0.5


@criterion("9 determinism")
def test_criterion_9_determinism(tmp_path, xor_csv):
    # BLAS reads its thread count when it loads, so each count needs a fresh process
    config = tmp_path / "xor.cfg"
    config.write_text("n_iters = 1\nseed = 2024\nalgebra_check = true\n")
    path = [str(Path(contilearn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        out = tmp_path / f"threads{threads}.model"
        argv = ["train", "--data", str(xor_csv), "--config", str(config), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "contilearn", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), Path(f"{out}.report").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
