import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from lpadapt.calibration import (
    CriticalValues,
    SelectionEnsemble,
    chi_square_moment,
    mc_calibrate,
    pc_report,
    replicate_noise,
    theoretical_cv,
    threshold_constant,
    validate_pc,
)
from lpadapt.exceptions import CalibrationFailedError, ParameterDomainError
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder


class TestChiSquareMoment:
    def test_first_moment_is_p(self):
        for p in range(1, 7):
            assert chi_square_moment(p, 1.0) == pytest.approx(p, abs=1e-12)

    def test_second_moment_p2(self):
        assert chi_square_moment(2, 2.0) == pytest.approx(8.0, rel=1e-12)

    def test_half_moment_p1(self):
        # sqrt(2) Gamma(1) / Gamma(1/2), evaluated with math.gamma as the oracle
        oracle = math.sqrt(2.0) * math.gamma(1.0) / math.gamma(0.5)
        assert chi_square_moment(1, 0.5) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.7978845608028654, rel=1e-12)

    def test_log_gamma_oracle_grid(self):
        for p in (1, 2, 5, 9):
            for r in (0.25, 0.5, 1.5, 3.0):
                oracle = 2.0**r * math.gamma(r + p / 2.0) / math.gamma(p / 2.0)
                assert chi_square_moment(p, r) == pytest.approx(oracle, rel=1e-12)

    def test_matches_simulated_moments(self, rng):
        N = 200000
        for p in (1, 2, 5):
            draws = rng.chisquare(p, N)
            for r in (0.5, 1.0, 2.0):
                powered = draws**r
                se = powered.std(ddof=1) / math.sqrt(N)
                assert abs(powered.mean() - chi_square_moment(p, r)) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            chi_square_moment(0, 1.0)
        with pytest.raises(ParameterDomainError):
            chi_square_moment(2, 0.0)
        with pytest.raises(ParameterDomainError, match="r=True"):  # a bool is not a number
            chi_square_moment(2, True)


class TestTheoreticalCv:
    def test_term_by_term_oracle_K2(self):
        p, r, K, alpha, u, mu = 2, 0.7, 2, 0.6, 1.4, 0.125
        cv = theoretical_cv(p, r, K, alpha, u, mu=mu)
        cbar = math.log(2.0 ** (2 * r) * math.sqrt(math.gamma(2 * r + p / 2) * math.gamma(p / 2)) / math.gamma(r + p / 2))
        assert threshold_constant(p, r) == pytest.approx(cbar, rel=1e-12)
        expected = (4.0 / mu) * (
            r * (K - 1) * math.log(u)
            + math.log(K / alpha)
            - (p / 4.0) * math.log(1.0 - 4.0 * mu)
            - math.log(1.0 - u**-r)
            + cbar
        )
        assert cv.z[0] == pytest.approx(expected, rel=1e-12)

    def test_small_mu_blows_up(self):
        z_small = theoretical_cv(1, 0.5, 3, 1.0, 1.5, mu=1e-6).z
        z_mid = theoretical_cv(1, 0.5, 3, 1.0, 1.5, mu=0.1).z
        assert all(a > b for a, b in zip(z_small, z_mid))

    def test_nonincreasing_in_k(self):
        z = theoretical_cv(2, 0.5, 5, 1.0, 1.3).z
        assert all(a > b for a, b in zip(z, z[1:]))

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            theoretical_cv(1, 0.5, 3, 1.0, 1.5, mu=0.3)
        with pytest.raises(ParameterDomainError):
            theoretical_cv(1, 0.5, 3, 1.0, 0.9)
        with pytest.raises(ParameterDomainError):
            theoretical_cv(1, 0.5, 3, 1.5, 1.5)
        with pytest.raises(ParameterDomainError):
            theoretical_cv(1, -0.5, 3, 1.0, 1.5)
        with pytest.raises(ParameterDomainError, match="alpha=True"):
            theoretical_cv(1, 0.5, 3, True, 1.5)
        with pytest.raises(ParameterDomainError, match="r=True"):
            theoretical_cv(1, True, 3, 1.0, 1.5)


class TestCriticalValuesType:
    def test_json_round_trip_exact(self):
        cv = CriticalValues(z=(19.5, 13.0001, 6.5), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=4, seed=7, mc_size=1000)
        again = CriticalValues.from_json(json.dumps(asdict(cv)))
        assert again == cv

    def test_ignores_unknown_keys(self):
        obj = asdict(CriticalValues(z=(2.0,), method="theoretical", alpha=1.0, r=0.5, p=1, K=2, mu=0.125))
        obj["provenance"] = {"version": "x"}
        cv = CriticalValues.from_json(json.dumps(obj))
        assert cv.z == (2.0,)

    @pytest.mark.parametrize("text", [
        "{not json",
        "[4.0, 4.0]",
        '{"method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 3}',
        '{"z": [4.0, "high"], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 3}',
        '{"z": 4.0, "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 2}',
        '{"z": [4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1}',
        '{"z": [4.0, 4.0], "alpha": 1.0, "r": 0.5, "p": 1, "K": 3}',
    ], ids=["not_json", "json_list", "no_z", "text_in_z", "scalar_z", "no_K", "no_method"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ParameterDomainError, match="malformed critical values"):
            CriticalValues.from_json(text)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            CriticalValues(z=(1.0,), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=3)
        with pytest.raises(ParameterDomainError):
            CriticalValues(z=(-1.0, 2.0), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=3)
        with pytest.raises(ParameterDomainError):
            CriticalValues(z=(math.inf, 2.0), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=3)

    @pytest.mark.parametrize("field,value", [
        ("alpha", "1"), ("alpha", 1.5), ("alpha", 0), ("alpha", -0.5), ("alpha", None), ("alpha", True),
        ("r", "0.5"), ("r", 0), ("r", -1.0), ("r", None), ("r", True),
        ("p", 0), ("p", 1.5), ("p", "1"), ("K", 0), ("K", 3.0), ("K", "3"),
    ])
    def test_metadata_validation(self, field, value):
        fields = {"z": (4.0, 4.0), "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 3, field: value}
        with pytest.raises(ParameterDomainError, match=field):
            CriticalValues(**fields)
        with pytest.raises(ParameterDomainError, match=field):
            CriticalValues.from_json(json.dumps(fields))


@pytest.fixture(scope="module")
def calib_scene():
    n, p, K = 200, 1, 4
    basis = Basis.polynomial(p - 1)
    points = np.linspace(0.0, 1.0, n)
    ladder = ScaleLadder.geometric(8 / (2.0 * n), K, growth=1.5, kernel="boxcar")
    sigma = np.ones(n)
    return basis, ladder, points, sigma


class TestMcCalibrate:
    def test_returns_positive_decreasing_z(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        cv = mc_calibrate(basis, ladder, sigma, points, 0.5, 1.0, 0.5, 3000, 7)
        assert cv.method == "monte_carlo" and cv.K == 4 and len(cv.z) == 3
        assert all(z > 0 for z in cv.z)
        assert all(a > b for a, b in zip(cv.z, cv.z[1:]))

    def test_passes_fresh_seed_validation(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        cv = mc_calibrate(basis, ladder, sigma, points, 0.5, 1.0, 0.5, 3000, 7)
        report = validate_pc(cv, basis, ladder, sigma, points, 0.5, 4000, 991)
        assert report.passed

    def test_theoretical_dominates_componentwise(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        cv = mc_calibrate(basis, ladder, sigma, points, 0.5, 1.0, 0.5, 3000, 7)
        ld = LadderDesign(basis, ladder, points, 0.5, sigma)
        _, u_hat = ld.growth_bounds()
        theo = theoretical_cv(basis.p, 0.5, ld.K_eff, 1.0, u_hat)
        assert all(zt >= zm - 1e-9 for zt, zm in zip(theo.z, cv.z))

    def test_alpha_monotonicity(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        zs = [mc_calibrate(basis, ladder, sigma, points, 0.5, a, 0.1, 3000, 7).z for a in (0.25, 0.5, 1.0)]
        for smaller_alpha, larger_alpha in zip(zs, zs[1:]):
            assert all(a >= b - 1e-9 for a, b in zip(smaller_alpha, larger_alpha))

    def test_rejects_small_mc(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        with pytest.raises(ParameterDomainError):
            mc_calibrate(basis, ladder, sigma, points, 0.5, 1.0, 0.5, 500, 7)

    @pytest.mark.parametrize("alpha,r,named", [(True, 0.5, "alpha=True"), (1.0, True, "r=True")])
    def test_rejects_a_bool_alpha_or_r(self, calib_scene, alpha, r, named):
        basis, ladder, points, sigma = calib_scene
        with pytest.raises(ParameterDomainError, match=named):
            mc_calibrate(basis, ladder, sigma, points, 0.5, alpha, r, 1000, 7)

    def test_stagnant_ladder_fails(self):
        # two bandwidths capturing identical point sets: windows do not grow
        basis = Basis.polynomial(0)
        points = np.linspace(0.0, 1.0, 50)
        ladder = ScaleLadder((0.101, 0.102, 0.103), kernel="boxcar")
        with pytest.raises(CalibrationFailedError):
            mc_calibrate(basis, ladder, np.ones(50), points, 0.5, 1.0, 0.5, 1000, 7)


class TestSelectionEnsemble:
    def test_infinite_thresholds_never_stop(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        ld = LadderDesign(basis, ladder, points, 0.5, sigma)
        ens = SelectionEnsemble.pure_noise(ld, 500, 3)
        z = np.full(3, np.inf)
        khat = ens.k_hat(z)
        assert np.all(khat == 4)
        assert np.all(ens.gap_forms(khat) == 0.0)

    def test_zero_thresholds_always_stop(self, calib_scene):
        # frozen "too small" fixture: k_hat = 1 a.s., last-step moment strictly positive; 1e-300 stands for
        # zero, which the library rejects
        basis, ladder, points, sigma = calib_scene
        ld = LadderDesign(basis, ladder, points, 0.5, sigma)
        ens = SelectionEnsemble.pure_noise(ld, 500, 3)
        z = np.full(3, 1e-300)
        assert np.all(ens.k_hat(z) == 1)
        mom, _ = ens.pc_moments(z, 0.5)
        assert mom[-1] > 0.5  # seeded run gives ~1.2 for this scene

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_pc_moments_are_powered_gap_forms(self, calib_scene, r):
        # E|gap_k|^r and its standard error recomputed from gap_forms, under thresholds at which some
        # replicates stop early, so that the forms are neither all 0 nor all equal
        basis, ladder, points, sigma = calib_scene
        ld = LadderDesign(basis, ladder, points, 0.5, sigma)
        ens = SelectionEnsemble.pure_noise(ld, 500, 3)
        z = np.array([3.0, 2.0, 1.0])
        khat = ens.k_hat(z)
        gaps = ens.gap_forms(khat)
        assert khat.min() < 4 == khat.max()
        assert np.all(np.any(gaps[1:] > 0, axis=1))
        powered = np.abs(gaps) ** r
        mom, se = ens.pc_moments(z, r)
        np.testing.assert_allclose(mom, powered.sum(axis=1) / 500, rtol=1e-12, atol=0.0)
        dev = powered - powered.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(se, np.sqrt((dev**2).sum(axis=1) / 499 / 500), rtol=1e-12, atol=0.0)
        # formed a scale at a time, they are bit for bit the reductions of the whole (K, mc) table
        assert np.array_equal(mom, powered.mean(axis=1))
        assert np.array_equal(se, powered.std(axis=1, ddof=1) / np.sqrt(500.0))

    def test_replicate_noise_deterministic(self):
        a = replicate_noise(5, 17, 32)
        b = replicate_noise(5, 17, 32)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, replicate_noise(5, 18, 32))

    def test_vectorized_selection_matches_scalar_rule(self, calib_scene):
        # dual route: the batched sweep must agree with the per-replicate rule
        from lpadapt.fll_selector import select_adaptive

        basis, ladder, points, sigma = calib_scene
        ld = LadderDesign(basis, ladder, points, 0.5, sigma)
        ens = SelectionEnsemble.pure_noise(ld, 200, 29)
        z = np.array([3.0, 2.0, 1.0])  # small enough to trigger plenty of stops
        khat = ens.k_hat(z)
        gaps = ens.gap_forms(khat)
        assert khat.min() < 4 and khat.max() == 4
        for j in range(200):
            Yj = ld.psi.T @ np.zeros(basis.p) + replicate_noise(29, j, points.size) * sigma
            fits = ld.fit(Yj)
            trace = select_adaptive(fits, z)
            assert trace.k_hat == khat[j]
            for k in range(2, 5):
                m = min(k, trace.k_hat)
                d = fits[k - 1].theta - fits[m - 1].theta
                expected = max(float(d @ fits[k - 1].B @ d), 0.0)
                assert gaps[k - 1, j] == pytest.approx(expected, abs=1e-12)


class TestValidatePc:
    def test_is_pc_report_on_its_pure_noise_ensemble(self, calib_scene):
        # the pass rule is stated once, in pc_report; thresholds low enough that the moments are not all 0
        basis, ladder, points, sigma = calib_scene
        cv = CriticalValues(z=(3.0, 2.0, 1.5), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=4)
        ens = SelectionEnsemble.pure_noise(LadderDesign(basis, ladder, points, 0.5, sigma), 2000, 31)
        report = validate_pc(cv, basis, ladder, sigma, points, 0.5, 2000, 31)
        assert report == pc_report(cv, ens)
        assert min(e.moment for e in report.entries) > 0

    @pytest.mark.parametrize("excess,passed", [(2.0, True), (10.0, False)])
    def test_allowance_is_three_standard_errors(self, calib_scene, excess, passed):
        # the bound set to m / (1 + excess rel_se) below the k = 4 moment m: an entry passes for excess <= 3 only
        basis, ladder, points, sigma = calib_scene
        ens = SelectionEnsemble.pure_noise(LadderDesign(basis, ladder, points, 0.5, sigma), 2000, 31)
        z, r = (3.0, 2.0, 1.5), 0.5
        mom, se = ens.pc_moments(np.array(z), r)
        alpha = float(mom[-1] / ((1.0 + excess * se[-1] / mom[-1]) * chi_square_moment(1, r)))
        cv = CriticalValues(z=z, method="monte_carlo", alpha=alpha, r=r, p=1, K=4)
        assert pc_report(cv, ens).entries[-1].passed is passed

    def test_halved_first_threshold_violates(self):
        # frozen fixture: tight budget (r = 0.1, alpha = 0.1) where cutting z_1
        # in half breaks the k = 4 moment condition on a fresh large ensemble
        n, p, K = 200, 1, 4
        basis = Basis.polynomial(p - 1)
        points = np.linspace(0.0, 1.0, n)
        ladder = ScaleLadder.geometric(8 / (2.0 * n), K, growth=1.2, kernel="boxcar")
        sigma = np.ones(n)
        cv = mc_calibrate(basis, ladder, sigma, points, 0.5, 0.1, 0.1, 8000, 42)
        assert validate_pc(cv, basis, ladder, sigma, points, 0.5, 30000, 777).passed

        halved = CriticalValues(
            z=(cv.z[0] * 0.5,) + cv.z[1:], method="monte_carlo", alpha=cv.alpha, r=cv.r, p=cv.p, K=cv.K,
            seed=cv.seed, mc_size=cv.mc_size,
        )
        report = validate_pc(halved, basis, ladder, sigma, points, 0.5, 30000, 777)
        assert not report.passed
        assert not report.entries[-1].passed  # the k = 4 condition is the one that breaks

    @pytest.mark.parametrize("mc_size", [0, 1, 999])
    def test_rejects_small_mc(self, calib_scene, mc_size):
        # below the floor mc_calibrate keeps, a size of 1 passed with NaN standard errors and 0 gave NaN moments
        basis, ladder, points, sigma = calib_scene
        cv = theoretical_cv(1, 0.5, ladder.K, 1.0, 1.5)
        with pytest.raises(ParameterDomainError, match="mc_size must be >= 1000"):
            validate_pc(cv, basis, ladder, sigma, points, 0.5, mc_size, 1)

    def test_threshold_length_checked(self, calib_scene):
        basis, ladder, points, sigma = calib_scene
        cv = CriticalValues(z=(5.0,), method="monte_carlo", alpha=1.0, r=0.5, p=1, K=2)
        with pytest.raises(ParameterDomainError):
            validate_pc(cv, basis, ladder, sigma, points, 0.5, 1000, 1)
