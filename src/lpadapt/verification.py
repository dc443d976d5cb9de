"""Numerical verification of the structural identities and tail bounds.

Each check builds a small synthetic scene, runs a Monte-Carlo experiment
where needed, and compares against the closed-form side within an explicit
tolerance.  A Monte-Carlo check takes its standard normals from its caller
as a table, one replicate per row in window coordinates (_shared_rows);
the other checks are seeded.  These are the suites behind the `verify`
command; the package test suite calls them as well.

The tail checks bound by the chi-square tail with p = 1 or 2 degrees of
freedom, P{chi^2_1 >= x} = erfc(sqrt(x / 2)), which `math.erfc` evaluates,
and P{chi^2_2 >= x} = exp(-x / 2); the package needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calibration import (
    SelectionEnsemble,
    _check_index,
    check_mc_size,
    chi_square_moment,
    noise_matrix,
    pc_report,
    theoretical_cv,
)
from .dataset import Dataset
from .exceptions import ParameterDomainError
from .local_model import Basis, LadderDesign, ScaleLadder, check_noise, default_h1, generalized_eigvalsh, relative_gap
from .oracle_diagnostics import bias_profile, boxcar_determinant, joint_covariance, kl_joint, wilks_spectrum
from .sim_harness import SigmaSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def chi_square_tail(x: float, p: int = 1) -> float:
    """P{chi^2_p >= x} for x >= 0 and p = 1 or 2: P{|N(0, 1)| >= sqrt(x)} = erfc(sqrt(x / 2)), and exp(-x / 2)."""
    if p == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if p == 2:
        return math.exp(-x / 2.0)
    raise ParameterDomainError(f"chi_square_tail covers p = 1 and 2, got p={p!r}")


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
    check reads its noise in window coordinates: row j of its table is
    replicate j, its i-th value on the i-th window point.
    """
    pts = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(default_h1(n, p), K, growth=growth, kernel=kernel)
    ld = LadderDesign(Basis.polynomial(p - 1, dim=1), ladder, pts, 0.5, np.ones(n))
    return ld.restrict(ld.support), pts[ld.support]


def check_determinant_identity(seed: int = 11, trials: int = 20) -> CheckResult:
    """Product formula for the stacked determinant vs the dense determinant, within 1e-8 relative.

    Scenes have n = 70 points and cycle (p, k) over {1, 2, 3} x {2, 3, 4};
    a scene whose ladder the gate cuts below k is redrawn, and the check
    fails when fewer than `trials` scenes are accepted in 10 * trials draws.
    test_A6_determinant_identity runs it with seed 606 and 50 scenes, and
    TestBoxcarDeterminant::test_matches_dense_determinant with seed 11 and 9 scenes.
    """
    rng = np.random.default_rng(seed)
    combos = list(itertools.product((1, 2, 3), (2, 3, 4)))
    worst, scenes = 0.0, 0
    for _ in range(10 * trials):
        if scenes == trials:
            break
        p, k = combos[scenes % len(combos)]
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k, n=70)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        if ld.K_eff < k:
            continue
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(joint_covariance(ld.D_list, sigma**2)))
        worst = max(worst, abs(formula - dense) / abs(dense))
        scenes += 1
    detail = f"{scenes} scenes over (p,k) in {{1,2,3}}x{{2,3,4}}; worst relative error {worst:.3e} (tol 1e-08)"
    return _result("determinant_identity", scenes == trials and worst <= 1e-8, detail)


def check_covariance_sandwich(seed: int = 12, trials: int = 12) -> CheckResult:
    """(1-delta) Sigma_k <= Sigma_k0 <= (1+delta) Sigma_k via generalized eigenvalues, within 1e-9, delta up to 0.35.

    Sigma_k0 must also equal D diag(sigma0^2) D^T with the stacked
    D = [D_1; ...; D_k], within 1e-12 of its largest entry, since the
    sandwich alone holds for a covariance of slightly wrong variances.
    TestJointCovariance::test_sandwich_eigenvalues runs it with 10 trials.
    """
    rng = np.random.default_rng(seed)
    worst = dense_gap = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k)
        delta = float(rng.uniform(0.0, 0.35))
        sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        S0 = joint_covariance(ld.D_list, sigma0**2)
        vals = generalized_eigvalsh(S0, S)
        worst = max(worst, max(1.0 - delta - vals[0], vals[-1] - (1.0 + delta), 0.0))
        D = np.concatenate(ld.D_list)
        dense = (D * sigma0**2) @ D.T
        dense_gap = max(dense_gap, float(np.max(np.abs(S0 - dense)) / np.max(np.abs(dense))))
    detail = f"worst sandwich violation {worst:.3e}; worst gap to the dense covariance {dense_gap:.3e} (tol 1e-12)"
    return _result("covariance_sandwich", worst <= 1e-9 and dense_gap <= 1e-12, detail)


def _shared_rows(noise: np.ndarray, m: int) -> np.ndarray:
    """Every row of a Monte-Carlo check's noise table, on its first m columns.

    Row j of noise must be the first values of replicate j's stream, as
    noise_matrix(seed, rows, W, arange(W)) gives them; by the prefix property
    its first m columns are then replicate j on a window of m points.
    ParameterDomainError when the table is not 2-D, is narrower than m or
    has fewer than MIN_MC_SIZE rows (check_mc_size): it is never padded or
    broadcast.
    """
    if np.ndim(noise) != 2 or noise.shape[1] < m:
        raise ParameterDomainError(f"a noise table needs 2 dimensions and at least {m} columns, one per window point; "
                                   f"got shape {np.shape(noise)}")
    check_mc_size(noise.shape[0])
    return noise[:, :m]


def _wilks_forms(ld: LadderDesign, sigma_true: np.ndarray, k: int, noise: np.ndarray) -> np.ndarray:
    """MC draws of the quadratic form (theta_k - theta_bar_k)^T B_k (...), one per row of noise.

    The design must be restricted to its window, as _unit_design's are, so
    that the rows of noise (_shared_rows) are on its points.
    """
    A = ld.D_list[k - 1] * sigma_true  # maps standard normals to theta - theta_bar
    g = _shared_rows(noise, ld.points.shape[0]) @ A.T
    return np.maximum(np.einsum("ri,ij,rj->r", g, ld.B_list[k - 1], g), 0.0)


def check_wilks(noise: np.ndarray, p: int = 2, kernel: str = "boxcar") -> CheckResult:
    """Known noise, boxcar: spectrum is p ones within 1e-10, and the MC mean
    of the likelihood-ratio form matches its trace within 4 standard errors.

    The forms are those of the rows of noise, as for every Monte-Carlo check below.
    test_A3_wilks_identity runs it for p = 1, 2, 3 on 100,000 rows at seed 160 + p.
    """
    ld, _ = _unit_design(p, 120, 3, 1.6, kernel)
    k, sigma = ld.K_eff, ld.sigma_model
    lam = wilks_spectrum(ld, k, sigma)
    spectrum_ok = bool(np.max(np.abs(lam - 1.0)) <= 1e-10) if kernel == "boxcar" else bool(lam[0] <= 1.0 + 1e-10)
    forms = _wilks_forms(ld, sigma, k, noise)
    se = forms.std(ddof=1) / math.sqrt(forms.size)
    mean_ok = abs(forms.mean() - lam.sum()) <= 4.0 * se
    return _result(
        f"wilks_p{p}_{kernel}",
        spectrum_ok and mean_ok,
        f"spectrum gap {np.max(np.abs(lam - 1.0)):.2e}, mean {forms.mean():.4f} vs trace {lam.sum():.4f} (4se={4 * se:.4f})",
    )


def check_domination(noise: np.ndarray, delta: float = 0.2, p: int = 1) -> CheckResult:
    """P{form >= z} <= P{chi^2_p >= z/(1+delta)} + 3 SE for z = 1, 2, 4, 8, 16, with p = 1 or 2 parameters.

    run_all runs p = 1; test_A4_chi_square_domination runs p = 1 and 2.
    """
    ld, pts = _unit_design(p, 150, 3, 1.6)
    sigma0 = SigmaSpec("sine", 1.0, delta, 0.3).values(pts)
    forms = _wilks_forms(ld, sigma0, ld.K_eff, noise)
    worst = -1.0
    for z in (1.0, 2.0, 4.0, 8.0, 16.0):
        emp = float(np.mean(forms >= z))
        bound = chi_square_tail(z / (1.0 + delta), p)
        se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / forms.size)
        worst = max(worst, emp - bound - 3.0 * se)
    name = f"chi2_domination_d{delta:g}" if p == 1 else f"chi2_domination_p{p}_d{delta:g}"
    return _result(name, worst <= 0.0, f"worst excess over bound {worst:.3e}")


def check_quasi_parametric_moment(noise: np.ndarray) -> CheckResult:
    """E|form|^r <= (1+delta)^r C(p,r) within 3 relative standard errors (delta 0.2, p 2, r 1)."""
    delta, p, r = 0.2, 2, 1.0
    ld, pts = _unit_design(p, 150, 3, 1.6)
    sigma0 = SigmaSpec("sine", 1.0, delta).values(pts)
    powered = _wilks_forms(ld, sigma0, ld.K_eff, noise) ** r
    mean = powered.mean()
    rel_se = powered.std(ddof=1) / math.sqrt(powered.size) / mean
    bound = (1.0 + delta) ** r * chi_square_moment(p, r)
    ok = mean <= bound * (1.0 + 3.0 * rel_se)
    return _result("quasi_parametric_moment", ok, f"moment {mean:.4f} vs bound {bound:.4f} (rel_se {rel_se:.3g})")


def check_kl_sandwich(seed: int = 16, trials: int = 40) -> CheckResult:
    """KL between the stacked laws is >= 0 and lies inside its misspecification interval, within 1e-10.

    kl_joint's KL, given bias_profile's Delta(k), must also match the dense
    2 KL = Delta + log det Sigma_k - log det Sigma_k0 + tr(Sigma_k^{-1} Sigma_k0) - pk,
    with its own dense Delta = b^T Sigma_k^{-1} b, within 1e-10, since the
    interval alone holds for a KL a little off, with the two laws swapped or
    with a wrong Delta(k).

    The KL must also lie in the second-order interval
    [Delta/2, Delta/2 + pk psi(delta)/2], psi(delta) = -delta - log(1 - delta),
    within 1e-10: the eigenvalues e_i of Sigma_k^{-1} Sigma_k0 - I lie in
    [-delta, delta], and 2 KL - Delta = sum_i (e_i - log(1 + e_i)).  Every
    third scene has the constant noise ratio sqrt(1 - delta) or, alternately,
    sqrt(1 + delta); at sqrt(1 - delta) the KL sits on the upper end, so an
    interval any narrower fails.
    test_A7_kl_sandwich runs it with seed 707 and 100 trials, and
    TestKl::test_sandwich_on_random_scenes with 15 trials.
    """
    rng = np.random.default_rng(seed)
    worst = second_order = dense_gap = 0.0
    for trial in range(trials):
        p = int(rng.integers(1, 3))
        k = int(rng.integers(2, 5))
        kernel = ("boxcar", "epanechnikov")[int(rng.integers(0, 2))]
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, p, k)
        if kernel != "boxcar":
            ladder = ScaleLadder(ladder.bandwidths, kernel=kernel)
        delta = float(rng.uniform(0.0, 0.3))
        ratio = 1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size)
        if trial % 3 == 2:
            ratio = np.full(sigma.size, 1.0 - delta if trial % 6 == 2 else 1.0 + delta)
        sigma0 = sigma * np.sqrt(ratio)
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
        Delta_bp = float(bias_profile(bars, bars[0], S)[0][-1])
        res = kl_joint(S, S0, Delta_bp, p, kk, delta)
        worst = max(worst, res.lower - res.kl, res.kl - res.upper, -res.kl)
        psi = -delta - math.log1p(-delta)
        second_order = max(second_order, 0.5 * Delta_bp - res.kl, res.kl - 0.5 * (Delta_bp + p * kk * psi))
        log_det_ratio = np.linalg.slogdet(S)[1] - np.linalg.slogdet(S0)[1]
        dense = 0.5 * (Delta_k + log_det_ratio + np.trace(np.linalg.solve(S, S0)) - p * kk)
        dense_gap = max(dense_gap, abs(res.kl - float(dense)))
    detail = (f"worst interval violation {worst:.3e}; worst second-order interval violation {second_order:.3e}; "
              f"worst gap to the dense KL {dense_gap:.3e} (tol 1e-10)")
    return _result("kl_sandwich", worst <= 1e-10 and second_order <= 1e-10 and dense_gap <= 1e-10, detail)


def check_pc_theoretical(noise: np.ndarray) -> CheckResult:
    """Analytic thresholds satisfy the empirical moment conditions (p 1, K 4, alpha 1, r 0.5).

    The conditions are pc_report's, on the pure-noise ensemble of the rows of
    noise (the design has unit model noise).  The detail also gives the share
    of replicates that stop before the largest scale: where it is 0, every
    gap form is 0 and the check cannot fail.
    """
    ld, _ = _unit_design(1, 200, 4, 1.5)
    _, u_hat = ld.growth_bounds()
    cv = theoretical_cv(1, 0.5, ld.K_eff, 1.0, u_hat)
    ens = SelectionEnsemble(ld, ld.fit_stacked(_shared_rows(noise, ld.points.shape[0])))
    report = pc_report(cv, ens)
    stopped = float(np.mean(ens.k_hat(np.asarray(cv.z)) < ens.K))
    detail = "; ".join(f"k={e.k}: {e.moment:.4f}<= {e.bound:.4f}" for e in report.entries)
    return _result("pc_theoretical", report.passed, f"{detail}; stopped before k={ens.K}: {stopped:.4f}")


def check_pair_bounds(noise: np.ndarray) -> tuple[CheckResult, CheckResult]:
    """Tail and moment bounds for the pairwise statistics, on one ensemble (delta 0.1, p 1, r 1).

    The ensemble has p 1, n 150, K 4 and sine noise sigma0 of amplitude
    delta; its replicates are the fits of the rows of noise.  For each pair
    l < k of its scales, T_lk is bounded at the scale
    t0 = 2 (1+delta) (1 + u0_hat^{-(k-l)}) and T_kl at
    t1 = 2 (1+delta) (1 + u_hat^{k-l}).  Returns the chi^2 tail check at
    z = 2, 4, 8, 16 and the moment check: the exponential and polynomial
    moment bounds, and each Monte-Carlo mean of T_lk and T_kl within 5 SE of
    its exact value tr(B_l C_lk) and tr(B_k C_lk), where
    C_lk = (D_l - D_k) diag(sigma0^2) (D_l - D_k)^T is the covariance of
    theta_l - theta_k.
    """
    delta, p, r = 0.1, 1, 1.0
    ld, pts = _unit_design(1, 150, 4, 1.5)
    u0_hat, u_hat = ld.growth_bounds()
    sd = SigmaSpec("sine", 1.0, delta).values(pts)
    ens = SelectionEnsemble(ld, ld.fit_stacked(_shared_rows(noise, pts.size) * sd))
    replicates = ens.mc
    c = 2.0 * (1.0 + delta)
    tail, moment, mean_dev = -1.0, -math.inf, 0.0
    for l, k in itertools.combinations(range(1, ld.K_eff + 1), 2):
        t0, t1 = c * (1.0 + u0_hat ** (-(k - l))), c * (1.0 + u_hat ** (k - l))
        T_lk, T_kl = ens.T[l - 1, k - 1], ens.T[k - 1, l - 1]
        for table, t in ((T_lk, t0), (T_kl, t1)):
            for z in (2.0, 4.0, 8.0, 16.0):
                emp = float(np.mean(table >= z))
                bound = chi_square_tail(z / t)
                se = math.sqrt(max(bound * (1.0 - bound), 1e-12) / replicates)
                tail = max(tail, emp - bound - 3.0 * se)
        mu0 = 0.5 / t0
        vals = np.exp(0.5 * mu0 * T_lk)
        se = vals.std(ddof=1) / math.sqrt(replicates)
        moment = max(moment, float(vals.mean()) - (1.0 - mu0 * t0) ** (-p / 2.0) - 3.0 * se)
        dD = ld.D_list[l - 1] - ld.D_list[k - 1]
        C = (dD * sd**2) @ dD.T
        for table, t, B in ((T_lk, t0, ld.B_list[l - 1]), (T_kl, t1, ld.B_list[k - 1])):
            powered = table**r
            se = powered.std(ddof=1) / math.sqrt(replicates)
            moment = max(moment, float(powered.mean()) - t**r * chi_square_moment(p, r) - 3.0 * se)
            se = table.std(ddof=1) / math.sqrt(replicates)
            mean_dev = max(mean_dev, abs(float(table.mean()) - float(np.trace(B @ C))) / se)
    return (_result("pair_tail_bounds", tail <= 0.0, f"worst excess over bound {tail:.3e}"),
            _result("pair_moment_bounds", moment <= 0.0 and mean_dev <= 5.0,
                    f"worst excess over bound {moment:.3e}; worst pair-mean deviation {mean_dev:.2f} SE (tol 5)"))


def check_stacked_covariance(noise: np.ndarray) -> CheckResult:
    """Empirical covariance of the stacked estimators matches the joint law (delta 0.15, p 2, n 120)."""
    delta = 0.15
    ld, pts = _unit_design(2, 120, 3, 1.6)
    n = ld.points.shape[0]
    sigma0 = SigmaSpec("sine", 1.0, delta, 0.5).values(pts)
    S0 = joint_covariance(ld.D_list, sigma0**2)
    eps = _shared_rows(noise, n)
    replicates = eps.shape[0]
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
        check_noise(dataset.sigma, dataset.sigma_true, delta_declared)
    except ParameterDomainError as exc:
        return _result("noise_model_a4", False, str(exc))
    realized = relative_gap(dataset.sigma, dataset.sigma_true)
    budget = "no declared budget" if delta_declared is None else f"declared delta {delta_declared:.4f}"
    return _result("noise_model_a4", True, f"realized delta {realized:.4f}; {budget}")


#: width of run_all's noise table: the widest window of its Monte-Carlo checks, 26 points
_SHARED_WIDTH = 26


def run_all(
    quick: bool = False,
    seed: int = 2024,
    dataset: Dataset | None = None,
    delta_declared: float | None = None,
) -> list[CheckResult]:
    """Run the full verification suite; quick mode shrinks MC sizes only.

    seed must be a non-negative integer.  The determinant and covariance
    sandwich checks are seeded with seed + 1 and seed + 2, the KL check with
    seed + 9.  The nine Monte-Carlo checks share one draw,
    noise_matrix(seed + 3, mc, _SHARED_WIDTH, arange(_SHARED_WIDTH)):
    check_pc_theoretical takes its first pc_mc rows, every other one all of
    them, and each reads the first m columns for its window of m points.
    Their outcomes are therefore correlated, while each one's false-alarm
    rate is that of its own draw.  The other offsets are unused.
    """
    seed = _check_index("seed", seed)
    mc = 4000 if quick else 20000
    pc_mc = 3000 if quick else 10000
    trials = 6 if quick else 20
    noise = noise_matrix(seed + 3, mc, _SHARED_WIDTH, np.arange(_SHARED_WIDTH))
    results = [
        check_determinant_identity(seed=seed + 1, trials=trials),
        check_covariance_sandwich(seed=seed + 2, trials=max(trials // 2, 4)),
        check_wilks(noise, p=1),
        check_wilks(noise, p=2),
        check_wilks(noise, p=2, kernel="epanechnikov"),
        check_domination(noise, delta=0.05),
        check_domination(noise, delta=0.2),
        check_quasi_parametric_moment(noise),
        check_kl_sandwich(seed=seed + 9, trials=2 * trials),
        check_pc_theoretical(noise[:pc_mc]),
        *check_pair_bounds(noise),
        check_stacked_covariance(noise),
    ]
    if dataset is not None:
        results.append(check_noise_model(dataset, delta_declared))
    return results
