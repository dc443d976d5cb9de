import math

import numpy as np
import pytest

from lpadapt.local_model import Basis, LadderDesign, ScaleLadder


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def standard_scene():
    """Equidistant unit-interval design with a boxcar ladder, p = 1."""
    n = 200
    basis = Basis.polynomial(0, dim=1)
    points = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(8 / (2.0 * n), 4, growth=1.5, kernel="boxcar")
    sigma = np.ones(n)
    return basis, ladder, points, sigma


@pytest.fixture
def standard_ladder_design(standard_scene):
    basis, ladder, points, sigma = standard_scene
    return LadderDesign(basis, ladder, points, 0.5, sigma)


def poly_design(pts, x, degree):
    """(n, degree + 1) design with columns (t - x)^j / j!, built without lpadapt."""
    u = np.asarray(pts, dtype=float) - x
    return np.column_stack([u**j / math.factorial(j) for j in range(degree + 1)])


def dense_wls(A, w, sigma, y):
    """Weighted least squares from first principles, as perfbench/checks.py dense_fit does.

    Solves min sum_i w_i (y_i - A_i theta)^2 / sigma_i^2 with numpy lstsq over
    the rows of positive weight.  Returns theta and B = sum_i A_i A_i^T w_i / sigma_i^2.
    """
    keep = np.asarray(w) > 0
    root = np.sqrt(w[keep]) / sigma[keep]
    Aw = A[keep] * root[:, None]
    return np.linalg.lstsq(Aw, np.asarray(y, dtype=float)[keep] * root, rcond=None)[0], Aw.T @ Aw
