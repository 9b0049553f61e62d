import numpy as np
import pytest

from helpers import synthetic_matrix


@pytest.fixture(scope="session")
def small_matrix():
    """20k-row leaky matrix shared by training tests."""
    matrix, _ = synthetic_matrix(20_000, seed=42)
    return matrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
