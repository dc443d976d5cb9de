import math
import os

import numpy as np
import pytest
from hypothesis import settings

from lpadapt.exceptions import ParameterDomainError
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder

# HYPOTHESIS_PROFILE=deep runs 1000 examples per property, outside Tier-1, from the seed that
# pytest's --hypothesis-seed gives (with no example database, a failure prints the seed that
# reproduces it).  Tier-1 loads no profile: tests/test_properties.py then runs 30 derandomized
# examples per property.
settings.register_profile("deep", max_examples=1000, deadline=None, derandomize=False, database=None)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


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


def kl_homogeneous(p: int, k: int, sigma: float, sigma0: float, Delta_k: float) -> float:
    """Closed-form KL for constant noise levels on both sides, the oracle of oracle_diagnostics.kl_joint:
    p k log(sigma/sigma0) + Delta(k)/2 + p k (sigma0^2/sigma^2 - 1) / 2."""
    return p * k * math.log(sigma / sigma0) + 0.5 * Delta_k + 0.5 * p * k * (sigma0**2 / sigma**2 - 1.0)


def z_second_moment_homogeneous(p: int, k: int, sigma: float, sigma0: float, Delta_k: float) -> float:
    """Exact second moment of the likelihood ratio for constant noise levels, the oracle of z_moment_bounds.

    Requires 2 sigma^2 > sigma0^2; Delta_k is the standard bias index, so the
    paper-form exponent b^T V^{-1} b / (2 sigma^2 - sigma0^2) equals
    Delta_k / (2 - sigma0^2/sigma^2).
    """
    rho = sigma0**2 / sigma**2
    if 2.0 - rho <= 0:
        raise ParameterDomainError("second moment diverges: need sigma0^2 < 2 sigma^2")
    pk = p * k
    return float((1.0 / rho) ** pk * (rho / (2.0 - rho)) ** (pk / 2.0) * math.exp(Delta_k / (2.0 - rho)))
