import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gpselect import Dataset, sim_response
from gpselect.design import random_lhd


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_data():
    """Fixed 10-point dataset in [0,1]^2 with a linear + bumpy response."""
    r = np.random.default_rng(5)
    X = np.empty((10, 2))
    X[:, 0] = (r.permutation(10) + 0.5) / 10
    X[:, 1] = (r.permutation(10) + 0.5) / 10
    y = 1.0 + 2.0 * X[:, 0] + np.sin(3 * X[:, 1]) + r.normal(scale=0.05, size=10)
    return Dataset(X=X, y=y, column_names=["x1", "x2"])


@pytest.fixture
def p8_data():
    """n = 100, p = 8 random LHD; y from the 5-d test function of the first five
    columns (the last three are inert), standardized."""
    r = np.random.default_rng(0)
    X = random_lhd(100, 8, r)
    y = sim_response(X[:, :5], noise_sd=0.1, rng=r)
    return Dataset(X=X, y=(y - y.mean()) / y.std(), column_names=[f"x{j}" for j in range(1, 9)])
