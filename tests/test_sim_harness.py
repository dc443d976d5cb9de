import math

import numpy as np
import pytest

from conftest import risk_row
from lpadapt.calibration import CriticalValues, SelectionEnsemble, chi_square_moment, mc_calibrate
from lpadapt.exceptions import ParameterDomainError
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, check_noise, default_h1
from lpadapt.sim_harness import Scene, SigmaSpec, generate, risk_experiment


class TestSceneAndGenerate:
    def test_noiseless_variant_exact(self):
        scene = Scene(f="sin_bump", n=50, sigma_model=SigmaSpec("constant", 1.0),
                      sigma_true=SigmaSpec("constant", 0.0), seed=4)
        data = generate(scene, 3)
        assert np.array_equal(data.y, scene.f_values())

    def test_bit_identical_replicates(self):
        scene = Scene(f="kink", n=64, sigma_model=SigmaSpec("constant", 0.5), seed=12)
        a, b = generate(scene, 7), generate(scene, 7)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        c = generate(scene, 8)
        assert not np.array_equal(a.y, c.y)

    def test_delta_from_profiles(self):
        scene = Scene(
            f="constant", n=400,
            sigma_model=SigmaSpec("constant", 1.0),
            sigma_true=SigmaSpec("sine", 1.0, amplitude=0.2), seed=0,
        )
        assert scene.delta == pytest.approx(0.2, abs=1e-3)
        assert check_noise(scene.sigma_model_values(), scene.sigma_true_values()) < 1.0

    def test_empirical_variance_matches(self):
        # MC variance oracle on a small design
        scene = Scene(f="constant", n=8, sigma_model=SigmaSpec("constant", 1.0),
                      sigma_true=SigmaSpec("ramp", 0.8, amplitude=0.5), seed=99)
        reps = 30000
        f = scene.f_values()
        resid = np.empty((reps, 8))
        for j in range(reps):
            resid[j] = generate(scene, j).y - f
        var_emp = resid.var(axis=0, ddof=1)
        var_true = scene.sigma_true_values() ** 2
        se = var_true * math.sqrt(2.0 / reps)
        assert np.all(np.abs(var_emp - var_true) <= 3.5 * se)

    def test_unknown_function_rejected(self):
        with pytest.raises(ParameterDomainError):
            Scene(f="mystery", n=10).f_values()


@pytest.fixture(scope="module")
def parametric_setup():
    basis = Basis.polynomial(0)
    scene = Scene(f="constant", n=200, sigma_model=SigmaSpec("constant", 1.0), seed=31)
    ladder = ScaleLadder.geometric(default_h1(200, 1), 4, growth=1.5)
    cv = mc_calibrate(basis, ladder, scene.sigma_model_values(), scene.design_points(), 0.5, 1.0, 0.5, 4000, 17)
    return basis, scene, ladder, cv


class TestRiskExperiment:
    def test_parametric_scene_respects_pc(self, parametric_setup):
        basis, scene, ladder, cv = parametric_setup
        table = risk_experiment(scene, ladder, basis, cv, 0.5, 3000, x=0.5)
        bound = chi_square_moment(1, 0.5)
        for k in range(2, table.meta["K"] + 1):
            row = risk_row(table, "adaptive_gap_pow_r", k)
            assert row.estimate <= bound + 3.0 * row.std_error
        assert table.meta["excluded"] == 0
        # parametric-scene sanity: the procedure almost never stops early
        assert risk_row(table, "k_hat_mean").estimate >= table.meta["K"] - 0.01

    def test_huge_thresholds_zero_gap_risk(self, parametric_setup):
        basis, scene, ladder, _ = parametric_setup
        huge = CriticalValues(z=(1e15, 1e15, 1e15), method="theoretical", alpha=1.0, r=0.5, p=1, K=4, mu=0.125)
        table = risk_experiment(scene, ladder, basis, huge, 0.5, 500, x=0.5)
        for k in range(2, 5):
            assert risk_row(table, "adaptive_gap_pow_r", k).estimate == 0.0
        assert risk_row(table, "k_hat_mean").estimate == 4.0

    def test_jump_scene_adaptive_beats_worst_fixed(self):
        # seeded fixture: near the jump the adaptive fit error is below the
        # worst fixed-scale error (the largest window smooths across the jump)
        basis = Basis.polynomial(0)
        scene = Scene(f="jump", n=200, sigma_model=SigmaSpec("constant", 0.25), seed=5)
        ladder = ScaleLadder.geometric(default_h1(200, 1), 6, growth=1.5)
        cv = mc_calibrate(basis, ladder, scene.sigma_model_values(), scene.design_points(), 0.47, 1.0, 0.5, 4000, 3)
        table = risk_experiment(scene, ladder, basis, cv, 0.5, 3000, x=0.47)
        fixed = [risk_row(table, "fit_sqerr_fixed", k).estimate for k in range(1, 7)]
        adaptive = risk_row(table, "fit_sqerr_adaptive").estimate
        assert adaptive < max(fixed)
        assert max(fixed) == fixed[-1]  # largest window carries the jump bias

    def test_truth_row_recomputed_replicate_by_replicate(self):
        """adaptive_truth_pow_r2 is the mean of (d^T B_K d)^(r/2), d = theta_hat - theta_bar_1, within 1e-12 relative.

        The fits are SelectionEnsemble.draw's at the scene's seed, and each
        form is a plain d @ B_K @ d, so the largest scale's B and the smallest
        window's pseudo-true reference are both pinned.
        """
        basis, r, replicates, x = Basis.polynomial(1), 0.5, 600, 0.47
        scene = Scene(f="jump", n=200, sigma_model=SigmaSpec("constant", 0.25),
                      sigma_true=SigmaSpec("sine", 0.25, amplitude=0.1), seed=8)
        ladder = ScaleLadder.geometric(default_h1(200, 2), 5, growth=1.5)
        cv = CriticalValues(z=(20.0, 15.0, 10.0, 8.0), method="fixed", alpha=1.0, r=r, p=2, K=5)
        table = risk_experiment(scene, ladder, basis, cv, r, replicates, x=x)
        ld = LadderDesign(basis, ladder, scene.design_points(), x, scene.sigma_model_values())
        K = ld.K_eff
        ens = SelectionEnsemble.draw(ld, replicates, scene.seed, scene.sigma_true_values(), mean=scene.f_values())
        khat = ens.k_hat(np.asarray(cv.z))
        assert K == 5 and 0 < np.mean(khat < K) < 1  # some replicates stop early, some do not
        ref = ld.D_list[0] @ scene.f_values()
        powered = []
        for j in range(replicates):
            d = ens.theta_tilde[j, khat[j] - 1] - ref
            powered.append(max(float(d @ ld.B_list[K - 1] @ d), 0.0) ** (r / 2.0))
        row = risk_row(table, "adaptive_truth_pow_r2", K)
        want = float(np.mean(powered))
        assert abs(row.estimate - want) <= 1e-12 * want
        want_se = float(np.std(powered, ddof=1)) / math.sqrt(replicates)
        assert abs(row.std_error - want_se) <= 1e-12 * want_se

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_rejects_fewer_than_one_replicate(self, parametric_setup, replicates):
        basis, scene, ladder, cv = parametric_setup
        with pytest.raises(ParameterDomainError, match="replicates must be >= 1"):
            risk_experiment(scene, ladder, basis, cv, 0.5, replicates, x=0.5)

    def test_csv_round_trip(self, parametric_setup):
        import csv
        import io

        basis, scene, ladder, cv = parametric_setup
        table = risk_experiment(scene, ladder, basis, cv, 0.5, 200, x=0.5)
        text = table.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(table.rows)
        assert {r["statistic"] for r in rows} >= {"adaptive_gap_pow_r", "oracle_gap_pow_r2", "fit_sqerr_adaptive"}
        byk = {(r["statistic"], r["k"]): float(r["estimate"]) for r in rows}
        assert byk[("k_hat_mean", "")] == risk_row(table, "k_hat_mean").estimate

