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
from lpadapt.local_model import Basis, LadderDesign, NoiseModel, ScaleLadder
from lpadapt.oracle_diagnostics import (
    bias_profile,
    boxcar_determinant,
    build_oracle_report,
    component_submatrix,
    joint_covariance,
    kl_homogeneous,
    kl_joint,
    lambda0_estimate,
    modeling_bias,
    oracle_index,
    oracle_risk_bound,
    oracle_risk_bound_componentwise,
    phi_factor,
    propagation_bound,
    smb_from_tradeoff,
    tightest_sj,
    wilks_spectrum,
    z_moment_bounds,
    z_second_moment_homogeneous,
)
from lpadapt.verification import _random_boxcar_scene


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

    def test_sandwich_eigenvalues(self, rng):
        from scipy.linalg import eigvalsh

        for _ in range(10):
            basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=50)
            delta = float(rng.uniform(0.0, 0.35))
            sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
            ld = LadderDesign(basis, ladder, pts, x, sigma)
            S = joint_covariance(ld.D_list, sigma**2)
            S0 = joint_covariance(ld.D_list, sigma0**2)
            vals = eigvalsh(S0, S)
            assert vals[0] >= 1.0 - delta - 1e-9
            assert vals[-1] <= 1.0 + delta + 1e-9


class TestBoxcarDeterminant:
    def test_hand_computed_2x2(self):
        B_list = [np.array([[2.0]]), np.array([[5.0]])]
        weights = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])]
        det = boxcar_determinant(B_list, weights)
        assert det == pytest.approx((0.5 - 0.2) * 0.2, rel=1e-14)  # 0.06

    def test_matches_dense_determinant(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=2, K=3, seed=11)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(joint_covariance(ld.D_list, sigma**2)))
        assert formula == pytest.approx(dense, rel=1e-8)

    def test_rejects_non_nested_weights(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=1, K=2)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        smooth = [w * 0.9 for w in ld.weights_list]  # no longer 0/1
        with pytest.raises(NotBoxcarError):
            boxcar_determinant(ld.B_list, smooth)


class TestModelingBias:
    def test_zero_bias(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=40)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        theta = np.array([1.0, -2.0])
        mb = modeling_bias([theta] * 3, theta, S)
        assert mb.delta_total == 0.0
        assert np.all(mb.delta_components == 0.0)

    def test_single_scale_boxcar_identity(self):
        basis, ladder, pts, x, sigma = _nested_boxcar(p=1, K=2)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S1 = joint_covariance(ld.D_list[:1], sigma**2)
        bar, ref = np.array([1.7]), np.array([1.0])
        mb = modeling_bias([bar], ref, S1)
        B1 = ld.B_list[0][0, 0]
        assert mb.delta_total == pytest.approx(B1 * 0.7**2, rel=1e-9)

    def test_dense_inverse_oracle(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=50)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        S = joint_covariance(ld.D_list, sigma**2)
        bars = rng.normal(size=(3, 2))
        ref = rng.normal(size=2)
        mb = modeling_bias(bars, ref, S)
        b = (bars - ref).reshape(-1)
        assert mb.delta_total == pytest.approx(b @ np.linalg.inv(S) @ b, rel=1e-8)
        for j in (1, 2):
            bj = b[j - 1 :: 2]
            Sj = component_submatrix(S, 2, j)
            assert mb.delta_components[j - 1] == pytest.approx(bj @ np.linalg.inv(Sj) @ bj, rel=1e-8)

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
            modeling_bias([np.array([1.0]), np.array([2.0])], np.array([0.0]), S)


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

    def test_sandwich_on_random_scenes(self, rng):
        for _ in range(15):
            basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 1, 3, n=50)
            delta = float(rng.uniform(0.0, 0.3))
            sigma0 = sigma * np.sqrt(1.0 + delta * rng.uniform(-1.0, 1.0, sigma.size))
            ld = LadderDesign(basis, ladder, pts, x, sigma)
            S = joint_covariance(ld.D_list, sigma**2)
            S0 = joint_covariance(ld.D_list, sigma0**2)
            f = pts**2 - 0.4 * pts
            bars = ld.pseudo_true(f)
            deltas, _ = bias_profile(bars, bars[0], S)
            res = kl_joint(S, S0, float(deltas[-1]), 1, ld.K_eff, delta)
            assert res.lower - 1e-9 <= res.kl <= res.upper + 1e-9
            assert res.kl >= -1e-10


class TestBounds:
    def test_propagation_collapse(self):
        for p, r in ((1, 0.5), (2, 1.0), (3, 2.0)):
            assert propagation_bound(p, 3, 0.0, 0.0, r, 1.0) == pytest.approx(math.sqrt(chi_square_moment(p, r)), rel=1e-12)

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
        res = oracle_risk_bound_componentwise(
            4.0, 1, 2, 0.0, 0.0, 1.0, 1.0, n=100, h_kstar_j=0.1, d=1, lambda0=0.5, sigma_max_sq=2.0
        )
        assert res.scale == pytest.approx((100 * 0.1 * 0.5 / 2.0) ** 0.5, rel=1e-12)
        assert res.bound == pytest.approx(2.0 + 1.0, rel=1e-12)  # z^{1/2} + sqrt(C(1,1))

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
        noise = NoiseModel(sigma_model=0.25 * np.ones(n), sigma_true=0.25 * np.sqrt(1.1) * np.ones(n))
        cv = CriticalValues(z=(20.0, 15.0, 10.0, 5.0), method="theoretical", alpha=1.0, r=0.5, p=1, K=5, mu=0.125)
        rep = build_oracle_report(basis, ladder, pts, 0.47, noise, f, cv, delta_budget=1.0)
        obj = _json.loads(rep.to_json())
        assert obj["k_star"] >= 1
        assert obj["delta_seq"][0] == pytest.approx(0.0, abs=1e-12)
        assert obj["delta_seq_monotone"] is True
        assert all(row["within"] for row in obj["kl"])
        assert obj["boxcar_determinant_check"]["rel_err"] < 1e-8
        assert obj["phi"] == pytest.approx(phi_factor(noise.delta, homogeneous=True), rel=1e-12)

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
