import time

import numpy as np
import pytest

from contilearn.data import Dataset, fit_standardization, load_csv
from contilearn.engine import EngineConfig, run
from contilearn.synthetic import circle_dataset, write_csv, xor_dataset


def dataset_from_arrays(X, y) -> Dataset:
    std = fit_standardization(X)
    return Dataset(y, std.transform(X), std)


def random_instance(rng, t_max=None, m=None):
    """A random well-scaled design: labels, feature matrix with a bias column."""
    t_max = t_max or int(rng.integers(6, 51))
    m = m or int(rng.integers(2, 11))
    F = np.hstack([np.ones((t_max, 1)), rng.normal(size=(t_max, m - 1))])
    y = rng.integers(0, 2, size=t_max).astype(float)
    return y, F


def deep_dataset() -> Dataset:
    """The 60-row, three-round problem of the acceptance gate (bootstrap seed 13)."""
    rng = np.random.default_rng(50)
    X = rng.normal(size=(60, 2))
    y = (X[:, 0] * X[:, 1] + 0.2 * rng.normal(size=60) > 0).astype(float)
    return dataset_from_arrays(X, y)


DEEP_CONFIG = EngineConfig(n_iters=3, seed=13, k_max=8)


@pytest.fixture(scope="session")
def xor_csv(tmp_path_factory):
    X, y = xor_dataset()
    path = tmp_path_factory.mktemp("fixtures") / "xor.csv"
    write_csv(path, X, y)
    return path


@pytest.fixture(scope="session")
def circle_csv(tmp_path_factory):
    X, y = circle_dataset()
    path = tmp_path_factory.mktemp("fixtures") / "circle.csv"
    write_csv(path, X, y)
    return path


@pytest.fixture(scope="session")
def xor_data(xor_csv):
    return load_csv(xor_csv)


@pytest.fixture(scope="session")
def circle_data(circle_csv):
    return load_csv(circle_csv)


def _timed_run(dataset, config):
    start = time.perf_counter()
    result = run(dataset, config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def xor_run0(xor_data):
    return _timed_run(xor_data, EngineConfig(n_iters=0, seed=2024))


@pytest.fixture(scope="session")
def xor_run1(xor_data):
    return _timed_run(xor_data, EngineConfig(n_iters=1, seed=2024, algebra_check=True))


@pytest.fixture(scope="session")
def circle_run1(circle_data):
    return _timed_run(circle_data, EngineConfig(n_iters=1, seed=2024))


@pytest.fixture(scope="session")
def multi_iter_run():
    return run(deep_dataset(), DEEP_CONFIG)
