import importlib.machinery
import math

import numpy as np
import pytest

import fractalcurve as fc
from fractalcurve import dynamics

# closed-form similarity dimensions, used as independent oracles
KOCH_DIM = math.log(4.0) / math.log(3.0)
CANTOR_DIM = math.log(2.0) / math.log(3.0)


def fit_slope(h, err):
    """Least-squares convergence order of err vs h on log-log axes."""
    return float(np.polyfit(np.log(np.asarray(h)), np.log(np.asarray(err)), 1)[0])


def uneven_curve(level):
    """Generator curve of scales 0.6 and 0.4 on the unit segment and its alpha = 1 chart.

    Its chart increments are the chord lengths 0.6^k 0.4^(level - k), so they
    spread by 1.5^level (58x at level 10): a chart far from uniform.
    """
    eye = np.eye(3)
    gen = fc.GeneratorSpec((fc.AffineMap(0.6, eye, np.zeros(3)),
                            fc.AffineMap(0.4, eye, np.array([0.6, 0.0, 0.0]))))
    grid = fc.build_generator_curve(gen, level)
    return grid, fc.build_staircase(grid, 1.0)


def wrapped_gaussian(grid, chart):
    """Normalized periodic Gaussian packet: mid-chart, sigma S_total/12, one period of k0."""
    total = chart.values[-1] - chart.values[0]
    return fc.gaussian_packet(grid, chart, center=chart.values[0] + 0.5 * total,
                              sigma=(1.0 / 12.0) * total, k0=2.0 * np.pi / total, periodic=True)


@pytest.fixture(scope="session")
def koch5():
    grid = fc.build_koch(5)
    return grid, fc.build_staircase(grid, KOCH_DIM)


@pytest.fixture(scope="session")
def unit_line():
    grid = fc.build_line((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 256, level=8)
    return grid, fc.build_staircase(grid, 1.0)


@pytest.fixture
def no_flapack(monkeypatch):
    """scipy's LAPACK extension cannot be found while the test runs."""
    real = importlib.machinery.PathFinder.find_spec

    def find_spec(fullname, path=None, target=None):
        return None if fullname == "scipy.linalg._flapack" else real(fullname, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find_spec)
    dynamics._lapack.cache_clear()
    yield
    dynamics._lapack.cache_clear()
