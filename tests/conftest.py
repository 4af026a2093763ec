import numpy as np
import pytest

from bfamily2c import CaseTag, Grid, make_params


@pytest.fixture
def grid20() -> Grid:
    return Grid(20.0, 256)


@pytest.fixture
def params_b2():
    return make_params(CaseTag.CASE_I, 2.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def _dense_interpolate(g: Grid, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The direct M x N/2 trigonometric sum of one field at M points.

    Grid.interpolate evaluated exactly this until it moved to anchored
    blocks; it stays here as their reference.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    pts = (pts + g.L) % (2.0 * g.L) - g.L
    fh = np.fft.rfft(f)
    theta = np.outer(pts + g.L, g.k)
    inner = np.exp(1j * theta[:, 1:-1]) @ fh[1:-1]
    vals = np.real(fh[0]) + 2.0 * np.real(inner) + np.real(fh[-1]) * np.cos(theta[:, -1])
    return vals / g.N


@pytest.fixture
def dense_interpolate():
    return _dense_interpolate
