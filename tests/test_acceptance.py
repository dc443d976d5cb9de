"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default test run.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from lpadapt.calibration import (
    SelectionEnsemble,
    chi_square_moment,
    mc_calibrate,
    theoretical_cv,
    validate_pc,
)
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, default_h1
from lpadapt.oracle_diagnostics import (
    boxcar_determinant,
    joint_covariance,
    kl_joint,
    bias_profile,
    oracle_risk_bound,
    wilks_spectrum,
)
from lpadapt.sim_harness import Scene, SigmaSpec, delta_sweep, risk_experiment
from lpadapt.verification import _random_boxcar_scene, _wilks_forms


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
    n, reps = 120, 100000
    worst_gap, worst_dev = 0.0, 0.0
    for p in (1, 2, 3):
        basis = Basis.polynomial(p - 1)
        pts = np.linspace(0.0, 1.0, n)
        ladder = ScaleLadder.geometric(default_h1(n, p), 3, growth=1.6, kernel="boxcar")
        sigma = np.ones(n)
        ld = LadderDesign(basis, ladder, pts, 0.5, sigma)
        k = ld.K_eff
        lam = wilks_spectrum(ld, k, sigma)
        gap = float(np.max(np.abs(lam - 1.0)))
        worst_gap = max(worst_gap, gap)
        assert lam.size == p
        forms = _wilks_forms(ld, sigma, k, reps, seed=160 + p)
        se = forms.std(ddof=1) / math.sqrt(reps)
        dev = abs(forms.mean() - p) / se
        worst_dev = max(worst_dev, dev)
    ok = worst_gap <= 1e-10 and worst_dev <= 4.0
    _report("A3", ok, f"max |eig - 1| = {worst_gap:.2e} (tol 1e-10); worst MC-mean deviation {worst_dev:.2f} SE (tol 4)")


def test_A4_chi_square_domination():
    n, reps = 150, 20000
    z_grid = (1.0, 2.0, 4.0, 8.0, 16.0)
    worst = -math.inf
    for p in (1, 2):
        basis = Basis.polynomial(p - 1)
        pts = np.linspace(0.0, 1.0, n)
        ladder = ScaleLadder.geometric(default_h1(n, p), 3, growth=1.6, kernel="boxcar")
        sigma = np.ones(n)
        ld = LadderDesign(basis, ladder, pts, 0.5, sigma)
        for delta in (0.05, 0.2):
            sigma0 = np.sqrt(1.0 + delta * np.sin(2.0 * np.pi * pts + 0.3))
            forms = _wilks_forms(ld, sigma0, ld.K_eff, reps, seed=int(1000 * delta) + p)
            for z in z_grid:
                emp = float(np.mean(forms >= z))
                bound = float(chi2.sf(z / (1.0 + delta), p))
                se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / reps)
                worst = max(worst, emp - bound - 3.0 * se)
    _report("A4", worst <= 0.0, f"worst exceedance over chi2 bound + 3 SE: {worst:.2e} (must be <= 0)")


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
    emp = table.lookup("oracle_gap_pow_r2", k_star)
    bound = oracle_risk_bound(z_star, p, k_star, 0.0, 1.0, r, alpha, homogeneous=True)
    ok_total = emp.estimate <= bound

    j = 1
    k_star_j = table.meta["k_star_j"][j - 1]
    comp = table.lookup(f"component_{j}_gap_pow_r_scaled", k_star_j)
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
    rng = np.random.default_rng(606)
    worst = 0.0
    scenes = 0
    combos = [(p, k) for p in (1, 2, 3) for k in (2, 3, 4)]
    while scenes < 50:
        p, k = combos[scenes % len(combos)]
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k, n=70)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        if ld.K_eff < k:
            continue
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(joint_covariance(ld.D_list, sigma**2)))
        worst = max(worst, abs(formula - dense) / abs(dense))
        scenes += 1
    _report("A6", worst <= 1e-8, f"50 scenes over (p,k) in {{1,2,3}}x{{2,3,4}}; worst relative error {worst:.2e} (tol 1e-8)")


def test_A7_kl_sandwich():
    rng = np.random.default_rng(707)
    violations = 0
    worst = -math.inf
    for trial in range(100):
        p = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k, n=60)
        delta = float(rng.uniform(0.0, 0.3))
        sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        if ld.K_eff < k:
            continue
        S = joint_covariance(ld.D_list, sigma**2)
        S0 = joint_covariance(ld.D_list, sigma0**2)
        f = np.sin(4 * pts) + 0.5 * pts**2
        bars = ld.pseudo_true(f)
        deltas, _ = bias_profile(bars, bars[0], S)
        res = kl_joint(S, S0, float(deltas[-1]), p, ld.K_eff, delta)
        gap = max(res.lower - res.kl, res.kl - res.upper)
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    _report("A7", violations == 0, f"100 random scenes, delta in [0, 0.3]; violations = {violations}, worst interval gap {worst:.2e}")


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


def test_A9_misspecification_trend():
    basis = Basis.polynomial(0)
    cells = delta_sweep([0.0, 0.05, 0.1, 0.2, 0.3], [100, 400, 1600], basis, replicates=2000, mc_size=4000, seed=909)
    byn = {}
    for c in cells:
        byn.setdefault(c.n, []).append(c)
    monotone = all(
        all(b.inflation > a.inflation for a, b in zip(group, group[1:])) for group in byn.values()
    )
    bounded = all(c.within_bound for c in cells)
    summary = "; ".join(
        f"n={n}: inflation {[round(c.inflation, 4) for c in group]} vs factors {[round(c.bound_factor, 3) for c in group]}"
        for n, group in sorted(byn.items())
    )
    _report("A9", monotone and bounded, summary)


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
