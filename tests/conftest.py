import importlib.util
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contilearn.data import Dataset, load_csv
from contilearn.engine import EngineConfig, run
from contilearn.modelio import load_run_config

REPO = Path(__file__).resolve().parents[1]
# the variables the package root sets to 1 before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def random_instance(rng, t_max=None, m=None):
    """A random well-scaled design: labels, feature matrix with a bias column."""
    t_max = t_max or int(rng.integers(6, 51))
    m = m or int(rng.integers(2, 11))
    F = np.hstack([np.ones((t_max, 1)), rng.normal(size=(t_max, m - 1))])
    y = rng.integers(0, 2, size=t_max).astype(float)
    return y, F


def load_bench(name: str):
    """The module ``bench/<name>.py`` as ``bench_<name>``, loaded by path: ``bench`` is no package.

    It is registered before it runs, as a dataclass needs its module in ``sys.modules``.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's seeded problems: train-deep's and train-tall's rows come from here
BENCH_INPUTS = load_bench("inputs")


def deep_dataset() -> Dataset:
    """The 60-row, three-round problem of the acceptance gate: train-deep's rows."""
    case = BENCH_INPUTS.deep_case()
    return Dataset(case.y, case.X)


DEEP_CONFIG = EngineConfig(n_iters=3, seed=13, k_max=8)


@pytest.fixture(scope="session")
def xor_csv():
    return REPO / "fixtures" / "xor.csv"


@pytest.fixture(scope="session")
def circle_csv():
    return REPO / "fixtures" / "circle.csv"


@pytest.fixture(scope="session")
def xor_config():
    return REPO / "configs" / "xor.cfg"


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
def xor_run0(xor_data, xor_config):
    return _timed_run(xor_data, replace(load_run_config(xor_config), n_iters=0))


@pytest.fixture(scope="session")
def xor_run1(xor_data, xor_config):
    return _timed_run(xor_data, load_run_config(xor_config))


@pytest.fixture(scope="session")
def circle_run1(circle_data):
    return _timed_run(circle_data, load_run_config(REPO / "configs" / "circle.cfg"))


@pytest.fixture(scope="session")
def multi_iter_run():
    return run(deep_dataset(), DEEP_CONFIG)
