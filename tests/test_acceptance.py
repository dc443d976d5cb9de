"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default test run.
"""

import math
import time

import numpy as np
import pytest

from conftest import mc_noise, risk_row
from lpadapt.calibration import (
    SelectionEnsemble,
    chi_square_moment,
    mc_calibrate,
    theoretical_cv,
    validate_pc,
)
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, default_h1
from lpadapt.oracle_diagnostics import oracle_risk_bound, wilks_spectrum
from lpadapt.sim_harness import Scene, SigmaSpec, risk_experiment
from lpadapt.verification import (
    _unit_design,
    check_determinant_identity,
    check_domination,
    check_kl_sandwich,
    check_wilks,
)


def _report(tag: str, passed: bool, detail: str):
    print(f"[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def a1_setup():
    """Scene, MC-calibrated thresholds and a fresh-seed validation report."""
    n, p, K, alpha, r = 200, 1, 4, 1.0, 0.5
    basis = Basis.polynomial(p - 1)
    points = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(8 / (2.0 * n), K, growth=1.5, kernel="boxcar")
    sigma = np.ones(n)
    t0 = time.perf_counter()
    cv = mc_calibrate(basis, ladder, sigma, points, 0.5, alpha, r, 20000, seed=20240501)
    report = validate_pc(cv, basis, ladder, sigma, points, 0.5, 20000, seed=20240502)
    elapsed = time.perf_counter() - t0
    return basis, ladder, points, sigma, cv, report, elapsed


def test_A1_pc_satisfaction(a1_setup):
    basis, ladder, points, sigma, cv, report, elapsed = a1_setup
    ok = report.passed and elapsed <= 120.0
    detail = (
        f"moments {[round(e.moment, 5) for e in report.entries]} vs bound "
        f"{report.entries[0].bound:.4f} (alpha C(1,0.5)); 20000 replicates in {elapsed:.1f}s"
    )
    _report("A1", ok, detail)


def test_A2_theoretical_conservative(a1_setup):
    basis, ladder, points, sigma, cv, _, _ = a1_setup
    ld = LadderDesign(basis, ladder, points, 0.5, sigma)
    _, u_hat = ld.growth_bounds()
    theo = theoretical_cv(basis.p, cv.r, cv.K, cv.alpha, u_hat)
    rep = validate_pc(theo, basis, ladder, sigma, points, 0.5, 20000, seed=20240503)
    dominates = all(zt >= zm - 1e-9 for zt, zm in zip(theo.z, cv.z))
    ok = rep.passed and dominates
    _report("A2", ok, f"analytic z {[round(z, 2) for z in theo.z]} >= MC z {[round(z, 2) for z in cv.z]}, PC pass={rep.passed}")


def test_A3_wilks_identity():
    results = []
    for p in (1, 2, 3):
        ld, _ = _unit_design(p, 120, 3, 1.6)  # the design check_wilks builds
        assert wilks_spectrum(ld, ld.K_eff, ld.sigma_model).size == p
        results.append(check_wilks(mc_noise(160 + p, 100000, 30), p=p))  # p = 3's window has 30 points
    _report("A3", all(r.passed for r in results), "; ".join(f"p={p}: {r.detail}" for p, r in zip((1, 2, 3), results)))


def test_A4_chi_square_domination():
    # P{form >= z} against the chi^2_p tail at z/(1+delta), for p = 1 and 2 and delta = 0.05 and 0.2
    results = [
        check_domination(mc_noise(int(1000 * delta) + p, 20000), delta=delta, p=p)
        for p in (1, 2)
        for delta in (0.05, 0.2)
    ]
    _report("A4", all(r.passed for r in results), "; ".join(f"{r.name}: {r.detail}" for r in results))


@pytest.fixture(scope="module")
def jump_setup():
    n, p, K, alpha, r, x = 200, 1, 6, 1.0, 0.5, 0.45
    basis = Basis.polynomial(p - 1)
    scene = Scene(f="jump", n=n, sigma_model=SigmaSpec("constant", 0.25), seed=5)
    ladder = ScaleLadder.geometric(default_h1(n, p), K, growth=1.5)
    cv = mc_calibrate(basis, ladder, scene.sigma_model_values(), scene.design_points(), x, alpha, r, 20000, seed=3)
    table = risk_experiment(scene, ladder, basis, cv, r, replicates=10000, x=x, delta_budget=1.0)
    return basis, scene, ladder, cv, table, x, r, alpha


def test_A5_oracle_bound_domination(jump_setup):
    basis, scene, ladder, cv, table, x, r, alpha = jump_setup
    K, p = table.meta["K"], table.meta["p"]
    k_star = table.meta["k_star"]
    z_star = cv.z[min(k_star, K - 1) - 1]
    emp = risk_row(table, "oracle_gap_pow_r2", k_star)
    bound = oracle_risk_bound(z_star, p, k_star, 0.0, 1.0, r, alpha, homogeneous=True)
    ok_total = emp.estimate <= bound

    j = 1
    k_star_j = table.meta["k_star_j"][j - 1]
    comp = risk_row(table, f"component_{j}_gap_pow_r_scaled", k_star_j)
    z_star_j = cv.z[min(k_star_j, K - 1) - 1]
    bound_j = oracle_risk_bound(z_star_j, p, k_star_j, 0.0, 1.0, r, alpha, homogeneous=True)
    ok_comp = comp.estimate <= bound_j
    _report(
        "A5",
        ok_total and ok_comp,
        f"oracle risk {emp.estimate:.4f} <= {bound:.4f} at k*={k_star}; "
        f"componentwise scaled {comp.estimate:.4f} <= {bound_j:.4f} at k*(1)={k_star_j} (10000 replicates)",
    )


def test_A6_determinant_identity():
    result = check_determinant_identity(seed=606, trials=50)
    _report("A6", result.passed, result.detail)


def test_A7_kl_sandwich():
    result = check_kl_sandwich(seed=707, trials=100)
    _report("A7", result.passed, f"100 random scenes, delta in [0, 0.3]; {result.detail}")


def test_A8_pivotality():
    n, p, K = 120, 2, 4
    basis = Basis.polynomial(p - 1)
    pts = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(default_h1(n, p), K, growth=1.5, kernel="boxcar")
    sigma = np.ones(n)
    ld = LadderDesign(basis, ladder, pts, 0.5, sigma)
    rng = np.random.default_rng(808)
    z = np.array([12.0, 8.0, 4.0])
    worst_stat, worst_moment, khat_mismatch = 0.0, 0.0, 0
    for trial in range(100):
        theta = rng.normal(size=p) * 5.0
        base = SelectionEnsemble.pure_noise(ld, 50, seed=trial)
        shifted = SelectionEnsemble.draw(ld, 50, trial, ld.sigma_model, mean=ld.psi.T @ theta)
        mask = ~np.isnan(base.T)
        worst_stat = max(worst_stat, float(np.max(np.abs(base.T[mask] - shifted.T[mask]))))
        if not np.array_equal(base.k_hat(z), shifted.k_hat(z)):
            khat_mismatch += 1
        mb, _ = base.pc_moments(z, 0.5)
        ms, _ = shifted.pc_moments(z, 0.5)
        worst_moment = max(worst_moment, float(np.max(np.abs(mb - ms))))
    ok = worst_stat <= 1e-9 and worst_moment <= 1e-9 and khat_mismatch == 0
    _report(
        "A8",
        ok,
        f"100 seeded trials: max |T shift-gap| {worst_stat:.2e}, max |moment gap| {worst_moment:.2e}, "
        f"k_hat mismatches {khat_mismatch} (tol 1e-9)",
    )


def test_A10_moment_function():
    rng = np.random.default_rng(1010)
    exact_ok = all(abs(chi_square_moment(p, 1.0) - p) <= 1e-12 for p in (1, 2, 5))
    worst = 0.0
    N = 200000
    for p in (1, 2, 5):
        draws = rng.chisquare(p, N)
        for r in (0.5, 1.0, 2.0):
            powered = draws**r
            se = powered.std(ddof=1) / math.sqrt(N)
            worst = max(worst, abs(powered.mean() - chi_square_moment(p, r)) / se)
    _report("A10", exact_ok and worst <= 3.0, f"C(p,1)=p exact to 1e-12; worst MC deviation {worst:.2f} SE over {{1,2,5}}x{{0.5,1,2}} (tol 3)")
