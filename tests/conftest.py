import numpy as np
import pytest

from coptrans import (
    CopulaHistogram,
    GroundCost,
    empirical_copula_from_data,
    project_uniform_margins,
)


def dense_cost(m):
    """The m^2-by-m^2 squared Euclidean ground cost; flat index (p, q) -> p * m + q."""
    ax = GroundCost(m).axis_cost
    return (ax[:, None, :, None] + ax[None, :, None, :]).reshape(m * m, m * m)


def random_histogram(rng, m, concentration=0.5):
    """Random nonnegative mass-1 grid (no margin constraint)."""
    g = rng.gamma(concentration, size=(m, m)) + 1e-300
    return CopulaHistogram(g / g.sum())


def random_copula_grid(rng, m, concentration=0.5):
    """Random grid projected to uniform margins."""
    g = rng.gamma(concentration, size=(m, m)) + 1e-9
    return project_uniform_margins(g)


def random_sample_copula(rng, m, T=32):
    """Empirical copula of a small sample with a random dependence flavor."""
    x = rng.uniform(size=T)
    kind = rng.integers(3)
    if kind == 0:
        y = rng.uniform(size=T)
    elif kind == 1:
        y = x + 0.3 * rng.standard_normal(T)
    else:
        y = -x + 0.3 * rng.standard_normal(T)
    return empirical_copula_from_data(x, y, m)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
