import itertools
import math

import numpy as np
import pytest

from lpadapt.calibration import CriticalValues, chi_square_moment
from lpadapt.exceptions import (
    NoFeasibleScaleError,
    NotBoxcarError,
    ParameterDomainError,
    SingularJointCovarianceError,
)
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, check_noise
from lpadapt.oracle_diagnostics import (
    bias_profile,
    boxcar_determinant,
    build_oracle_report,
    component_submatrix,
    joint_covariance,
    kl_joint,
    lambda0_estimate,
    oracle_index,
    componentwise_scale,
    oracle_risk_bound,
    phi_factor,
    propagation_bound,
    smb_from_tradeoff,
    tightest_sj,
    wilks_spectrum,
    z_moment_bounds,
)
from lpadapt.verification import (
    _random_boxcar_scene,
    check_covariance_sandwich,
    check_determinant_identity,
    check_kl_sandwich,
)

from conftest import kl_homogeneous, z_second_moment_homogeneous


def _nested_boxcar(n=60, K=3, p=1, seed=5):
    rng = np.random.default_rng(seed)
    return _random_boxcar_scene(rng, p, K, n=n)


class TestJointCovariance:
    def test_single_scale_is_estimator_variance(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 2, n=40)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S1 = joint_covariance(ld.D_list[:1], sigma**2)
        oracle = ld.D_list[0] @ np.diag(sigma**2) @ ld.D_list[0].T
        assert S1 == pytest.approx(oracle, rel=1e-12)
        # boxcar with model variances: equals B_1^{-1}
        assert S1 == pytest.approx(np.linalg.inv(ld.B_list[0]), rel=1e-10)

    def test_boxcar_block_structure_p1(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=1, K=2)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        B1, B2 = ld.B_list[0][0, 0], ld.B_list[1][0, 0]
        S = joint_covariance(ld.D_list, sigma**2)
        expected = np.array([[1.0 / B1, 1.0 / B2], [1.0 / B2, 1.0 / B2]])
        assert S == pytest.approx(expected, rel=1e-10)

    def test_sandwich_eigenvalues(self):
        result = check_covariance_sandwich(seed=20240817, trials=10)
        assert result.passed, result.detail


class TestBoxcarDeterminant:
    def test_hand_computed_2x2(self):
        B_list = [np.array([[2.0]]), np.array([[5.0]])]
        weights = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])]
        det = boxcar_determinant(B_list, weights)
        assert det == pytest.approx((0.5 - 0.2) * 0.2, rel=1e-14)  # 0.06

    def test_matches_dense_determinant(self):
        result = check_determinant_identity(seed=11, trials=9)  # each (p, k) of the check's grid once
        assert result.passed, result.detail

    def test_rejects_non_nested_weights(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=1, K=2)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        smooth = [w * 0.9 for w in ld.weights_list]  # no longer 0/1
        with pytest.raises(NotBoxcarError):
            boxcar_determinant(ld.B_list, smooth)


class TestBiasProfile:
    def test_zero_bias(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=40)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        theta = np.array([1.0, -2.0])
        deltas, comp = bias_profile([theta] * ld.K_eff, theta, S)
        assert np.all(deltas == 0.0)
        assert np.all(comp == 0.0)

    def test_single_scale_boxcar_identity(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=1, K=2)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S1 = joint_covariance(ld.D_list[:1], sigma**2)
        bar, ref = np.array([1.7]), np.array([1.0])
        deltas, _ = bias_profile([bar], ref, S1)
        B1 = ld.B_list[0][0, 0]
        assert deltas[0] == pytest.approx(B1 * 0.7**2, rel=1e-9)

    def test_dense_inverse_oracle(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=50)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        bars = rng.normal(size=(3, 2))
        ref = rng.normal(size=2)
        deltas, comp = bias_profile(bars, ref, S)
        for k in (1, 2, 3):
            b = (bars[:k] - ref).reshape(-1)
            Sk = S[: 2 * k, : 2 * k]
            assert deltas[k - 1] == pytest.approx(b @ np.linalg.inv(Sk) @ b, rel=1e-8)
            for j in (1, 2):
                bj = b[j - 1 :: 2]
                Sj = component_submatrix(Sk, 2, j)
                assert comp[k - 1, j - 1] == pytest.approx(bj @ np.linalg.inv(Sj) @ bj, rel=1e-8)

    def test_random_spd_prefix_forms(self, rng):
        """Every Delta(k) and Delta_j(k) is its dense form within 1e-12, and Delta(1) is 0 exactly."""
        for _ in range(60):
            K, p = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            A = rng.normal(size=(K * p, K * p))
            S = A @ A.T + K * p * np.eye(K * p)
            bars = rng.normal(size=(K, p))
            deltas, comp = bias_profile(bars, bars[0], S)
            assert deltas[0] == 0.0 and np.all(comp[0] == 0.0)
            for k in range(2, K + 1):
                b = (bars[:k] - bars[0]).reshape(-1)
                Sk = S[: k * p, : k * p]
                assert deltas[k - 1] == pytest.approx(b @ np.linalg.solve(Sk, b), rel=1e-12)
                for j in range(1, p + 1):
                    bj, Sj = b[j - 1 :: p], component_submatrix(Sk, p, j)
                    assert comp[k - 1, j - 1] == pytest.approx(bj @ np.linalg.solve(Sj, bj), rel=1e-12)

    def test_profile_monotone_on_boxcar(self, rng):
        for seed in range(5):
            basis, ladder, pts, x, sigma = _nested_boxcar(n=70, K=4, p=2, seed=seed)
            ld = LadderDesign(basis, ladder, pts, x, sigma)
            S = joint_covariance(ld.D_list, sigma**2)
            f = np.sin(5 * pts) + pts
            bars = ld.pseudo_true(f)
            deltas, _ = bias_profile(bars, bars[0], S)
            assert np.all(np.diff(deltas) >= -1e-8 * np.maximum(deltas[:-1], 1.0))

    def test_singular_joint_covariance_raises(self):
        S = np.zeros((2, 2))
        with pytest.raises(SingularJointCovarianceError):
            bias_profile([np.array([1.0]), np.array([2.0])], np.array([0.0]), S)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_joint_covariance_raises(self, bad):
        # numpy's Cholesky factors a NaN or inf diagonal without an error
        S = np.eye(2)
        S[0, 0] = bad
        with pytest.raises(SingularJointCovarianceError, match="non-finite"):
            bias_profile([np.array([1.0]), np.array([2.0])], np.array([0.0]), S)
        with pytest.raises(SingularJointCovarianceError, match="non-finite"):
            kl_joint(np.eye(2), S, 0.0, 1, 2, 0.1)


class TestOracleIndex:
    def test_threshold_scan(self):
        assert oracle_index([0.0, 0.1, 0.5, 2.0], 1.0) == 3

    def test_all_zero(self):
        assert oracle_index(np.zeros(5), 0.5) == 5

    def test_no_feasible(self):
        with pytest.raises(NoFeasibleScaleError):
            oracle_index([5.0, 6.0], 1.0)


class TestKl:
    def test_identical_laws_zero(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 1, 3, n=40)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        res = kl_joint(S, S.copy(), 0.0, 1, 3, 0.0)
        assert abs(res.kl) <= 1e-10
        assert res.lower <= res.kl <= res.upper

    def test_homogeneous_zero_case(self):
        assert kl_homogeneous(2, 3, 1.0, 1.0, 0.0) == 0.0

    def test_homogeneous_cross_check(self):
        # sigma0^2 = 1.1 sigma^2 with zero bias: general formula agrees with
        # pk [log(sigma/sigma0) + ((sigma0/sigma)^2 - 1)/2] within 1e-10
        basis, ladder, pts, x, _ = _nested_boxcar(p=2, K=3, seed=3)
        sigma = np.ones(pts.size)
        sigma0 = math.sqrt(1.1) * np.ones(pts.size)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        S0 = joint_covariance(ld.D_list, sigma0**2)
        res = kl_joint(S, S0, 0.0, 2, 3, 0.1)
        closed = kl_homogeneous(2, 3, 1.0, math.sqrt(1.1), 0.0)
        assert res.kl == pytest.approx(closed, abs=1e-10)
        pk = 6
        assert closed == pytest.approx(pk * (math.log(1.0 / math.sqrt(1.1)) + (1.1 - 1.0) / 2.0), rel=1e-12)

    def test_sandwich_on_random_scenes(self):
        result = check_kl_sandwich(seed=20240817, trials=15)
        assert result.passed, result.detail


class TestBounds:
    def test_propagation_collapse(self):
        for p, r in ((1, 0.5), (2, 1.0), (3, 2.0)):
            assert propagation_bound(p, 3, 0.0, 0.0, r, 1.0) == pytest.approx(math.sqrt(chi_square_moment(p, r)), rel=1e-12)

    def test_propagation_closed_form_under_misspecification(self):
        # p = 2, k = 3, delta = 0.1, alpha = 1, r = 1/2: C(2, 1/2) = sqrt(pi / 2) and pk = 6, so the bound is
        # (pi/2)^{1/4} 1.1^{6/4} 0.9^{-18/4} exp(phi Delta / 1.8) with phi = 2 (1.1) / 0.81 - 1
        base = (math.pi / 2.0) ** 0.25 * 1.1**1.5 * 0.9**-4.5
        assert propagation_bound(2, 3, 0.1, 0.0, 0.5, 1.0) == pytest.approx(base, rel=1e-12)
        phi = 2.0 * 1.1 / 0.81 - 1.0
        assert propagation_bound(2, 3, 0.1, 0.7, 0.5, 1.0) == pytest.approx(base * math.exp(phi * 0.7 / 1.8), rel=1e-12)

    def test_propagation_is_root_of_moment_bound(self):
        # Cauchy-Schwarz: the propagation factor is sqrt(alpha C(p, r) E Z^2) with E Z^2 at its upper bound
        worst = 0.0
        for p, k, delta, Dk, r, alpha, hom in itertools.product(
            (1, 2, 3), (1, 3, 6), (0.0, 0.05, 0.3, 0.6), (0.0, 0.5, 5.0), (0.5, 1.0, 2.0), (0.1, 1.0), (False, True)
        ):
            lhs = propagation_bound(p, k, delta, Dk, r, alpha, hom) ** 2
            rhs = alpha * chi_square_moment(p, r) * z_moment_bounds(p, k, delta, Dk, hom)[1]
            worst = max(worst, abs(lhs - rhs) / rhs)
        assert worst <= 1e-14

    def test_overflow_is_vacuous_not_an_error(self):
        # the exponential overflows past an exponent of about 709.78, the power 25^{pk/2} (delta 0.6) past pk = 440
        for p, k, delta, Dk in ((1, 1, 0.0, 710.0), (3, 300, 0.6, 0.0)):
            assert z_moment_bounds(p, k, delta, Dk)[1] == math.inf
            assert propagation_bound(p, k, delta, Dk, 0.5, 1.0) == math.inf
            assert oracle_risk_bound(4.0, p, k, delta, Dk, 0.5, 1.0) == math.inf
        assert z_moment_bounds(1, 1, 0.0, 710.0)[0] == math.inf
        # just below the edge both bounds keep their finite closed forms, bit for bit
        assert z_moment_bounds(1, 1, 0.0, 709.0) == (math.exp(709.0), math.exp(709.0))
        assert propagation_bound(1, 1, 0.0, 709.0, 2.0, 1.0) == math.sqrt(chi_square_moment(1, 2.0) * math.exp(709.0))

    def test_phi_value(self):
        assert phi_factor(0.1, homogeneous=False) == pytest.approx(2.0 * 1.1 / 0.81 - 1.0, rel=1e-12)
        assert phi_factor(0.1, homogeneous=False) == pytest.approx(1.7160493827160495, rel=1e-12)
        assert phi_factor(0.3, homogeneous=True) == 1.0

    def test_monotone_in_delta_and_bias(self):
        grid_d = np.linspace(0.0, 0.5, 6)
        vals = [propagation_bound(1, 4, d, 0.5, 0.5, 1.0) for d in grid_d]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        grid_b = np.linspace(0.0, 3.0, 7)
        vals = [propagation_bound(1, 4, 0.1, Dk, 0.5, 1.0) for Dk in grid_b]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # sigma_true^2 = (1 + delta) sigma^2 scales every pair statistic by 1 + delta, so with thresholds
        # that never bind the risk at power r/2 inflates by (1 + delta)^{r/2}: the bound's ratio covers it
        base = propagation_bound(1, 4, 0.0, 0.0, 0.5, 1.0, homogeneous=True)
        for d in grid_d[1:]:
            assert propagation_bound(1, 4, d, 0.0, 0.5, 1.0, homogeneous=True) / base >= (1.0 + d) ** 0.25

    def test_delta_domain(self):
        with pytest.raises(ParameterDomainError):
            propagation_bound(1, 2, 1.0, 0.0, 0.5, 1.0)
        with pytest.raises(ParameterDomainError):
            propagation_bound(1, 2, -0.1, 0.0, 0.5, 1.0)

    def test_oracle_risk_bound_example(self):
        # z = 1, r = 2, delta = 0, budget 0, alpha = 1, p = 1: 1 + sqrt(C(1,2)) = 1 + sqrt(3)
        assert chi_square_moment(1, 2.0) == pytest.approx(3.0, rel=1e-12)
        assert oracle_risk_bound(1.0, 1, 2, 0.0, 0.0, 2.0, 1.0) == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-12)

    def test_small_r_limit(self):
        assert oracle_risk_bound(50.0, 1, 2, 0.0, 0.0, 1e-9, 1.0) == pytest.approx(
            1.0 + math.sqrt(chi_square_moment(1, 1e-9)), rel=1e-6
        )

    def test_componentwise_scale(self):
        scale = componentwise_scale(n=100, h=0.1, d=1, lambda0=0.5, sigma_max_sq=2.0, r=1.0)
        assert scale == pytest.approx((100 * 0.1 * 0.5 / 2.0) ** 0.5, rel=1e-12)
        assert oracle_risk_bound(4.0, 1, 2, 0.0, 0.0, 1.0, 1.0) == pytest.approx(2.0 + 1.0, rel=1e-12)  # z^{1/2} + sqrt(C(1,1))

    def test_z_moment_bounds_contain_exact_homogeneous(self):
        for delta in (0.05, 0.2, 0.4):
            for Dk in (0.0, 0.7, 2.0):
                sigma0 = math.sqrt(1.0 + delta)
                exact_hi = z_second_moment_homogeneous(1, 3, 1.0, sigma0, Dk)
                lo_h, hi_h = z_moment_bounds(1, 3, delta, Dk, homogeneous=True)
                lo_g, hi_g = z_moment_bounds(1, 3, delta, Dk, homogeneous=False)
                assert lo_h - 1e-12 <= exact_hi <= hi_h + 1e-12
                assert lo_g - 1e-12 <= exact_hi <= hi_g + 1e-12
                assert hi_h <= hi_g + 1e-12  # homogeneous path is the tighter bound
                assert hi_h >= 1.0  # E Z^2 >= (E Z)^2 = 1
                sigma0 = math.sqrt(1.0 - delta)
                exact_lo = z_second_moment_homogeneous(1, 3, 1.0, sigma0, Dk)
                assert lo_h - 1e-12 <= exact_lo <= hi_h + 1e-12

    def test_z_second_moment_domain(self):
        with pytest.raises(ParameterDomainError):
            z_second_moment_homogeneous(1, 2, 1.0, 1.5, 0.0)  # sigma0^2 > 2 sigma^2


class TestWilksSpectrum:
    def test_boxcar_known_noise_all_ones(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=2, K=2, seed=8)
        lam = wilks_spectrum(LadderDesign(basis, ladder, pts, x, sigma), 2, sigma)
        assert lam.shape == (2,)
        assert np.max(np.abs(lam - 1.0)) <= 1e-10

    def test_epanechnikov_bounded_by_one(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 2, n=60)
        ld = LadderDesign(basis, ScaleLadder(ladder.bandwidths, kernel="epanechnikov"), pts, x, sigma)
        lam = wilks_spectrum(ld, 2, sigma)
        assert np.all(lam <= 1.0 + 1e-10)
        assert np.all(lam > 0)

    def test_homogeneous_inflation_scales_exactly(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=2, K=2, seed=9)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        base = wilks_spectrum(ld, 2, sigma)
        delta = 0.2
        lam = wilks_spectrum(ld, 2, np.sqrt(1 + delta) * sigma)
        assert lam == pytest.approx((1 + delta) * base, rel=1e-10)


class TestSmb:
    def test_zero_bias_selects_largest(self):
        k, budget = smb_from_tradeoff(np.zeros(5), np.ones(5), 1.0, 1.0, 2.0, 0.0)
        assert k == 5
        assert budget == pytest.approx(2.0, rel=1e-12)  # 1 * 1 * 1 / (1 - 1/2)

    def test_huge_bias_fails(self):
        with pytest.raises(NoFeasibleScaleError):
            smb_from_tradeoff([10.0, 20.0], [1.0, 1.0], 1.0, 1.0, 2.0, 0.0)

    def test_running_sup_applied(self):
        # a later small per-scale bias cannot reopen the balance relation
        k, _ = smb_from_tradeoff([0.1, 5.0, 0.1], [1.0, 1.0, 100.0], 1.0, 1.0, 2.0, 0.0)
        assert k == 3  # sup-bias 5 <= sqrt(100) at the last scale


class TestOracleReport:
    def test_report_builds_and_serializes(self):
        import json as _json

        n = 200
        basis = Basis.polynomial(0)
        pts = np.linspace(0.0, 1.0, n)
        ladder = ScaleLadder.geometric(8 / (2.0 * n), 5, growth=1.5)
        f = (pts >= 0.5).astype(float)
        sig, sig0 = 0.25 * np.ones(n), 0.25 * np.sqrt(1.1) * np.ones(n)
        cv = CriticalValues(z=(20.0, 15.0, 10.0, 5.0), method="theoretical", alpha=1.0, r=0.5, p=1, K=5, mu=0.125)
        obj = build_oracle_report(basis, ladder, pts, 0.47, sig, sig0, f, cv, delta_budget=1.0)
        assert _json.loads(_json.dumps(obj)) == obj  # JSON values only: no numpy type needs a default
        assert list(obj) == ["x", "p", "K", "delta", "homogeneous", "phi", "u0_hat", "u_hat", "lambda0", "theta_ref",
                             "delta_seq", "delta_seq_monotone", "delta_components", "delta_budget", "k_star",
                             "z_kstar", "oracle_bound", "kl", "propagation_bounds", "z2_bounds", "components",
                             "boxcar_determinant_check"]
        assert obj["k_star"] >= 1
        assert obj["delta_seq"][0] == pytest.approx(0.0, abs=1e-12)
        assert obj["delta_seq_monotone"] is True
        assert all(row["within"] for row in obj["kl"])
        assert obj["boxcar_determinant_check"]["rel_err"] < 1e-8
        assert obj["phi"] == pytest.approx(phi_factor(check_noise(sig, sig0), homogeneous=True), rel=1e-12)

    def test_lambda0_and_sj_estimates(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=60)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        smax = [float(np.max(sigma[w > 0] ** 2)) for w in ld.weights_list]
        lam0 = lambda0_estimate(ld.B_list, ladder.bandwidths, pts.size, 1, smax)
        assert lam0 > 0
        for k, B in enumerate(ld.B_list):
            assert np.linalg.eigvalsh(B)[0] >= pts.size * ladder.bandwidths[k] * lam0 / smax[k] - 1e-9
        S = joint_covariance(ld.D_list, sigma**2)
        sj = tightest_sj(S, 2, 1)
        assert sj >= 1.0 - 1e-9  # diagonal submatrix inverse is always dominated at k = 1

    def test_sj_is_the_largest_eigenvalue_over_the_leading_blocks(self, rng):
        """s_j is max_k lambda_max(Dg^{1/2} Sigma_{k,j}^{-1} Dg^{1/2}) within 1e-12, and 1 for a diagonal Sigma."""
        for _ in range(20):
            K, p = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            A = rng.normal(size=(K * p, K * p))
            S = A @ A.T + K * p * np.eye(K * p)
            for j in range(1, p + 1):
                Sj = component_submatrix(S, p, j)
                dense = []
                for k in range(1, K + 1):
                    dg = np.sqrt(np.diag(Sj[:k, :k]))
                    dense.append(np.linalg.eigvalsh(dg[:, None] * np.linalg.inv(Sj[:k, :k]) * dg[None, :])[-1])
                assert tightest_sj(S, p, j) == pytest.approx(max(dense), rel=1e-12)
        assert tightest_sj(np.diag(rng.uniform(0.5, 2.0, 6)), 2, 1) == pytest.approx(1.0, rel=1e-15)

    def test_componentwise_difference_scaling(self, rng):
        # scaled coefficient gaps are dominated by the B-weighted norm of the
        # full gap, with the scale built from the lambda0 estimate
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=70)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        n = pts.size
        smax = [float(np.max(sigma[w > 0] ** 2)) for w in ld.weights_list]
        sbar = np.maximum.accumulate(smax)
        lam0 = lambda0_estimate(ld.B_list, ladder.bandwidths, n, 1, smax)
        for _ in range(30):
            y = rng.normal(size=n)
            fits = ld.fit(y)
            for k in range(1, ld.K_eff + 1):
                for kp in range(1, ld.K_eff + 1):
                    if k == kp:
                        continue
                    d = fits[k - 1].theta - fits[kp - 1].theta
                    rhs = math.sqrt(max(d @ ld.B_list[k - 1] @ d, 0.0))
                    scale = math.sqrt(n * ladder.bandwidths[k - 1] * lam0 / sbar[k - 1])
                    for j in range(2):
                        assert scale * abs(d[j]) <= rhs + 1e-9
