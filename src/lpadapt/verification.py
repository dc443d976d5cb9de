"""Numerical verification of the structural identities and tail bounds.

Each check builds a small synthetic scene, runs a seeded Monte-Carlo
experiment where needed, and compares against the closed-form side within
an explicit tolerance.  These are the suites behind the `verify` command;
the package test suite calls them as well.

The chi-square tail P{chi^2_p >= x} is `scipy.special.chdtrc(p, x)`, the
function `scipy.stats.chi2.sf` evaluates, so importing this module (and the
CLI, which imports it) does not load `scipy.stats`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.special import chdtrc

from .calibration import (
    SelectionEnsemble,
    _check_index,
    chi_square_moment,
    noise_matrix,
    theoretical_cv,
    validate_pc,
)
from .dataset import Dataset
from .exceptions import LpAdaptError, ParameterDomainError
from .local_model import Basis, LadderDesign, ScaleLadder, default_h1
from .oracle_diagnostics import boxcar_determinant, joint_covariance, kl_joint, wilks_spectrum
from .sim_harness import SigmaSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_boxcar_scene(rng: np.random.Generator, p: int, k: int, n: int = 60):
    """Random design with nested boxcar windows guaranteed to grow."""
    pts = np.sort(rng.uniform(0.0, 1.0, n))
    x = float(rng.uniform(0.35, 0.65))
    sigma = rng.uniform(0.6, 1.4, n)
    dist = np.sort(np.abs(pts - x))
    counts = [min(max(3 * p, 4) * 2**j, n - 1) for j in range(k)]
    if len(set(counts)) < k:
        counts = [min(max(3 * p, 4) + 6 * j, n - 1) for j in range(k)]
    bands = [float(0.5 * (dist[c - 1] + dist[c])) for c in counts]
    ladder = ScaleLadder(tuple(bands), kernel="boxcar")
    basis = Basis.polynomial(p - 1, dim=1)
    return basis, ladder, pts, x, sigma


def _unit_design(p: int, n: int, K: int, growth: float, kernel: str = "boxcar"):
    """The ladder design at 0.5 of n equidistant points on [0, 1] with unit model noise, on its window.

    The design is built on all n points and then restricted to the m points
    of its largest window (LadderDesign.restrict), which it returns with
    their coordinates.  Its support is then arange(m), so every Monte-Carlo
    check draws in window coordinates: replicate j is
    replicate_noise(seed, j, m), its i-th value on the i-th window point.
    Every scale of these ladders is accepted, so validate_pc, which rebuilds
    the design from the window points and the ladder, sees the same scales.
    """
    pts = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(default_h1(n, p), K, growth=growth, kernel=kernel)
    ld = LadderDesign(Basis.polynomial(p - 1, dim=1), ladder, pts, 0.5, np.ones(n))
    return ld.restrict(ld.support), pts[ld.support]


def check_determinant_identity(seed: int = 11, trials: int = 20) -> CheckResult:
    """Product formula for the stacked determinant vs the dense determinant."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        if ld.K_eff < k:
            continue
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(joint_covariance(ld.D_list, sigma**2)))
        worst = max(worst, abs(formula - dense) / abs(dense))
    return _result("determinant_identity", worst <= 1e-8, f"worst relative error {worst:.3e} (tol 1e-08)")


def check_covariance_sandwich(seed: int = 12, trials: int = 12) -> CheckResult:
    """(1-delta) Sigma_k <= Sigma_k0 <= (1+delta) Sigma_k via generalized eigenvalues."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k)
        delta = float(rng.uniform(0.0, 0.3))
        sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        S0 = joint_covariance(ld.D_list, sigma0**2)
        vals = eigvalsh(S0, S)
        worst = max(worst, max(1.0 - delta - vals[0], vals[-1] - (1.0 + delta), 0.0))
    return _result("covariance_sandwich", worst <= 1e-9, f"worst sandwich violation {worst:.3e}")


def _wilks_forms(ld: LadderDesign, sigma_true: np.ndarray, k: int, replicates: int, seed: int) -> np.ndarray:
    """MC draws of the quadratic form (theta_k - theta_bar_k)^T B_k (...)."""
    cols = ld.support
    A = ld.D_list[k - 1][:, cols] * sigma_true[cols]  # maps standard normals to theta - theta_bar
    g = noise_matrix(seed, replicates, ld.points.shape[0], cols) @ A.T
    return np.maximum(np.einsum("ri,ij,rj->r", g, ld.B_list[k - 1], g), 0.0)


def check_wilks(p: int = 2, replicates: int = 20000, seed: int = 13, kernel: str = "boxcar") -> CheckResult:
    """Known noise, boxcar: spectrum is p ones and the MC mean of the
    likelihood-ratio form matches its trace within 4 standard errors."""
    ld, _ = _unit_design(p, 120, 3, 1.6, kernel)
    k, sigma = ld.K_eff, ld.sigma_model
    lam = wilks_spectrum(ld, k, sigma)
    spectrum_ok = bool(np.max(np.abs(lam - 1.0)) <= 1e-10) if kernel == "boxcar" else bool(lam[0] <= 1.0 + 1e-10)
    forms = _wilks_forms(ld, sigma, k, replicates, seed)
    se = forms.std(ddof=1) / math.sqrt(replicates)
    mean_ok = abs(forms.mean() - lam.sum()) <= 4.0 * se
    return _result(
        f"wilks_p{p}_{kernel}",
        spectrum_ok and mean_ok,
        f"spectrum gap {np.max(np.abs(lam - 1.0)):.2e}, mean {forms.mean():.4f} vs trace {lam.sum():.4f} (4se={4 * se:.4f})",
    )


def check_domination(delta: float = 0.2, replicates: int = 20000, seed: int = 14) -> CheckResult:
    """P{form >= z} <= P{chi^2_1 >= z/(1+delta)} + 3 SE for z = 1, 2, 4, 8, 16."""
    p = 1
    ld, pts = _unit_design(p, 150, 3, 1.6)
    sigma0 = SigmaSpec("sine", 1.0, delta, 0.3).values(pts)
    forms = _wilks_forms(ld, sigma0, ld.K_eff, replicates, seed)
    worst = -1.0
    for z in (1.0, 2.0, 4.0, 8.0, 16.0):
        emp = float(np.mean(forms >= z))
        bound = float(chdtrc(p, z / (1.0 + delta)))
        se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / replicates)
        worst = max(worst, emp - bound - 3.0 * se)
    return _result(f"chi2_domination_d{delta:g}", worst <= 0.0, f"worst excess over bound {worst:.3e}")


def check_quasi_parametric_moment(replicates: int = 20000, seed: int = 15) -> CheckResult:
    """E|form|^r <= (1+delta)^r C(p,r) within 3 relative standard errors (delta 0.2, p 2, r 1)."""
    delta, p, r = 0.2, 2, 1.0
    ld, pts = _unit_design(p, 150, 3, 1.6)
    sigma0 = SigmaSpec("sine", 1.0, delta).values(pts)
    powered = _wilks_forms(ld, sigma0, ld.K_eff, replicates, seed) ** r
    mean = powered.mean()
    rel_se = powered.std(ddof=1) / math.sqrt(replicates) / mean
    bound = (1.0 + delta) ** r * chi_square_moment(p, r)
    ok = mean <= bound * (1.0 + 3.0 * rel_se)
    return _result("quasi_parametric_moment", ok, f"moment {mean:.4f} vs bound {bound:.4f} (rel_se {rel_se:.3g})")


def check_kl_sandwich(seed: int = 16, trials: int = 40) -> CheckResult:
    """KL between the stacked laws lies inside its misspecification interval."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        kernel = ("boxcar", "epanechnikov")[int(rng.integers(0, 2))]
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k)
        if kernel != "boxcar":
            ladder = ScaleLadder(ladder.bandwidths, kernel=kernel)
        delta = float(rng.uniform(0.0, 0.3))
        sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        if ld.K_eff < 2:
            continue
        kk = ld.K_eff
        S = joint_covariance(ld.D_list, sigma**2)
        S0 = joint_covariance(ld.D_list, sigma0**2)
        f = np.sin(3.0 * pts) + pts**2
        bars = ld.pseudo_true(f)
        b = (bars - bars[0][None, :]).reshape(-1)
        Delta_k = float(b @ np.linalg.solve(S, b))
        res = kl_joint(S, S0, Delta_k, p, kk, delta)
        worst = max(worst, res.lower - res.kl, res.kl - res.upper, -res.kl)
    return _result("kl_sandwich", worst <= 1e-8, f"worst interval violation {worst:.3e}")


def check_pc_theoretical(mc_size: int = 10000, seed: int = 17) -> CheckResult:
    """Analytic thresholds satisfy the empirical moment conditions (p 1, K 4, alpha 1, r 0.5)."""
    ld, pts = _unit_design(1, 200, 4, 1.5)
    _, u_hat = ld.growth_bounds()
    cv = theoretical_cv(1, 0.5, ld.K_eff, 1.0, u_hat)
    report = validate_pc(cv, ld.basis, ld.ladder, ld.sigma_model, pts, 0.5, mc_size, seed)
    detail = "; ".join(f"k={e.k}: {e.moment:.4f}<= {e.bound:.4f}" for e in report.entries)
    return _result("pc_theoretical", report.passed, detail)


def _pair_ensemble(delta: float, replicates: int, seed: int):
    """The pair checks' ensemble (p 1, n 150, K 4, sine noise of amplitude delta), and for each pair
    l < k of its scales (l, k, t0, t1): t0 scales the bound on T_lk and t1 the bound on T_kl."""
    ld, pts = _unit_design(1, 150, 4, 1.5)
    u0_hat, u_hat = ld.growth_bounds()
    ens = SelectionEnsemble.draw(ld, replicates, seed, SigmaSpec("sine", 1.0, delta).values(pts))
    c = 2.0 * (1.0 + delta)
    pairs = itertools.combinations(range(1, ld.K_eff + 1), 2)
    return ens, [(l, k, c * (1.0 + u0_hat ** (-(k - l))), c * (1.0 + u_hat ** (k - l))) for l, k in pairs]


def check_pair_tail_bounds(replicates: int = 20000, seed: int = 18) -> CheckResult:
    """Pairwise-statistic tails dominated by chi^2 at the growth-bound scales (delta 0.1, p 1, z = 2, 4, 8, 16)."""
    p = 1
    ens, scales = _pair_ensemble(0.1, replicates, seed)
    worst = -1.0
    for l, k, t0, t1 in scales:
        for table, t in ((ens.T[l - 1, k - 1], t0), (ens.T[k - 1, l - 1], t1)):
            for z in (2.0, 4.0, 8.0, 16.0):
                emp = float(np.mean(table >= z))
                bound = float(chdtrc(p, z / t))
                se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / replicates)
                worst = max(worst, emp - bound - 3.0 * se)
    return _result("pair_tail_bounds", worst <= 0.0, f"worst excess over bound {worst:.3e}")


def check_pair_moment_bounds(replicates: int = 20000, seed: int = 19) -> CheckResult:
    """Exponential and polynomial moment bounds for the pairwise statistics (delta 0.1, p 1, r 1)."""
    p, r = 1, 1.0
    ens, scales = _pair_ensemble(0.1, replicates, seed)
    worst = -math.inf
    for l, k, t0, t1 in scales:
        mu0 = 0.5 / t0
        vals = np.exp(0.5 * mu0 * ens.T[l - 1, k - 1])
        se = vals.std(ddof=1) / math.sqrt(replicates)
        worst = max(worst, float(vals.mean()) - (1.0 - mu0 * t0) ** (-p / 2.0) - 3.0 * se)
        for table, t in ((ens.T[l - 1, k - 1], t0), (ens.T[k - 1, l - 1], t1)):
            powered = table**r
            se = powered.std(ddof=1) / math.sqrt(replicates)
            worst = max(worst, float(powered.mean()) - t**r * chi_square_moment(p, r) - 3.0 * se)
    return _result("pair_moment_bounds", worst <= 0.0, f"worst excess over bound {worst:.3e}")


def check_stacked_covariance(replicates: int = 20000, seed: int = 20) -> CheckResult:
    """Empirical covariance of the stacked estimators matches the joint law (delta 0.15, p 2, n 120)."""
    delta = 0.15
    ld, pts = _unit_design(2, 120, 3, 1.6)
    n = ld.points.shape[0]
    sigma0 = SigmaSpec("sine", 1.0, delta, 0.5).values(pts)
    S0 = joint_covariance(ld.D_list, sigma0**2)
    eps = noise_matrix(seed, replicates, n, np.arange(n))  # the design holds its window only
    draws = ld.fit_stacked(eps * sigma0).reshape(replicates, -1)  # rows (theta_1, ..., theta_K)
    emp = np.cov(draws, rowvar=False)
    dg = np.diag(S0)
    se = np.sqrt((np.outer(dg, dg) + S0**2) / replicates)
    worst = float(np.max(np.abs(emp - S0) / se))
    return _result("stacked_covariance", worst <= 5.0, f"worst entry deviation {worst:.2f} SE (tol 5)")


def check_noise_model(dataset: Dataset, delta_declared: float | None = None) -> CheckResult:
    """Relative-variability condition on a dataset carrying sigma_true."""
    if dataset.sigma_true is None:
        return _result("noise_model_a4", True, "no sigma_true column; nothing to check")
    try:
        nm = dataset.noise_model(delta=delta_declared)
    except (ParameterDomainError, LpAdaptError) as exc:
        return _result("noise_model_a4", False, str(exc))
    return _result("noise_model_a4", True, f"realized delta {nm.delta:.4f}")


def run_all(
    quick: bool = False,
    seed: int = 2024,
    dataset: Dataset | None = None,
    delta_declared: float | None = None,
) -> list[CheckResult]:
    """Run the full verification suite; quick mode shrinks MC sizes only.

    Check i is seeded with seed + i, so seed must be a non-negative integer.
    """
    seed = _check_index("seed", seed)
    mc = 4000 if quick else 20000
    pc_mc = 3000 if quick else 10000
    trials = 6 if quick else 20
    results = [
        check_determinant_identity(seed=seed + 1, trials=trials),
        check_covariance_sandwich(seed=seed + 2, trials=max(trials // 2, 4)),
        check_wilks(p=1, replicates=mc, seed=seed + 3),
        check_wilks(p=2, replicates=mc, seed=seed + 4),
        check_wilks(p=2, replicates=mc, seed=seed + 5, kernel="epanechnikov"),
        check_domination(delta=0.05, replicates=mc, seed=seed + 6),
        check_domination(delta=0.2, replicates=mc, seed=seed + 7),
        check_quasi_parametric_moment(replicates=mc, seed=seed + 8),
        check_kl_sandwich(seed=seed + 9, trials=2 * trials),
        check_pc_theoretical(mc_size=pc_mc, seed=seed + 10),
        check_pair_tail_bounds(replicates=mc, seed=seed + 11),
        check_pair_moment_bounds(replicates=mc, seed=seed + 12),
        check_stacked_covariance(replicates=mc, seed=seed + 13),
    ]
    if dataset is not None:
        results.append(check_noise_model(dataset, delta_declared))
    return results
