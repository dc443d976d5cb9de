import csv
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from lpadapt.calibration import noise_matrix
from lpadapt.exceptions import MissingColumnError, ParameterDomainError, ParseError
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


def mc_noise(seed: int, rows: int, width: int = 26) -> np.ndarray:
    """A noise table for a Monte-Carlo check of lpadapt.verification: replicates 0..rows-1 at seed.

    Row j is replicate j's first width values, as run_all draws them 26 wide.
    A check reads the first m columns for its window of m points, which by
    the prefix property are noise_matrix(seed, rows, m, arange(m)).  Windows
    wider than 26 points (check_wilks at p = 3, 30 points, or with a
    truncated Gaussian kernel, 60) need a wider table.
    """
    return noise_matrix(seed, rows, width, np.arange(width))


def risk_row(table, statistic: str, k: int | None = None):
    """The row of a sim_harness.RiskTable for statistic at scale k (None for the rows without a scale)."""
    (row,) = [row for row in table.rows if row.statistic == statistic and row.k == k]
    return row


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


def ingest_cells(path):
    """The per-cell CSV reader that lpadapt.cli.ingest_csv replaced, kept as its oracle.

    One float() and one isfinite() per cell, row by row, in reading order.
    Returns the arrays (x, y, sigma, sigma_true or None) that it handed to
    Dataset, or raises the ParseError of the first bad cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        if "x" in header:
            x_cols = ["x"]
        else:
            x_cols = sorted((h for h in header if h.startswith("x") and h[1:].isdigit()), key=lambda h: int(h[1:]))
            if not x_cols:
                raise MissingColumnError("need column 'x' or columns 'x1'..'xd'")
        has_true = "sigma_true" in header
        col_idx = {name: header.index(name) for name in x_cols + ["y", "sigma"] + (["sigma_true"] if has_true else [])}
        rows_x, rows_y, rows_s, rows_s0 = [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            parsed = {}
            for name, idx in col_idx.items():
                if idx >= len(row):
                    raise ParseError(rownum, name, "missing value")
                try:
                    val = float(row[idx])
                except ValueError:
                    raise ParseError(rownum, name, f"not a number: {row[idx]!r}") from None
                if not math.isfinite(val):
                    raise ParseError(rownum, name, f"non-finite value {row[idx]!r}")
                parsed[name] = val
            rows_x.append([parsed[c] for c in x_cols])
            rows_y.append(parsed["y"])
            rows_s.append(parsed["sigma"])
            if has_true:
                rows_s0.append(parsed["sigma_true"])
    x = np.asarray(rows_x, dtype=float)
    if len(x_cols) == 1:
        x = x[:, 0]
    return x, np.asarray(rows_y), np.asarray(rows_s), np.asarray(rows_s0) if has_true else None


def fit_lines_cells(points, d: int, p: int) -> list[str]:
    """Header and data rows of lpadapt fit's output for a CurveFit, built cell by cell as cmd_fit once built them.

    The oracle of cmd_fit's row templates.
    """
    header = (["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]) + ["f_hat", "k_hat", "k_eff"]
    lines = [",".join(header + [f"theta_{j + 1}" for j in range(p)] + ["error"])]
    columns = zip(points.x.tolist(), points.fitted_values.tolist(), points.k_hat.tolist(),
                  points.k_eff.tolist(), points.theta_hat.tolist())
    for x, f_hat, k_hat, k_eff, theta in columns:
        cells = [repr(v) for v in x]
        if k_eff:
            cells += [repr(f_hat), str(k_hat), str(k_eff)] + [repr(v) for v in theta] + [""]
        else:
            cells += ["", "", "0"] + [""] * p + ["singular design at every scale"]
        lines.append(",".join(cells))
    return lines


def grid_lines_cells(points) -> list[str]:
    """Header and rows of fit's --grid output for a one-dimensional CurveFit, as cmd_fit once formatted them."""
    columns = zip(points.x[:, 0].tolist(), points.fitted_values.tolist(), points.k_hat.tolist(), points.k_eff.tolist())
    return ["x,f_hat,k_hat"] + [f"{x!r},{f_hat!r},{k_hat}" if k_eff else f"{x!r},," for x, f_hat, k_hat, k_eff in columns]
