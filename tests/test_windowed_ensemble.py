"""Monte-Carlo ensembles are drawn and fitted on the support of the largest window only.

The windowed SelectionEnsemble is compared with an ensemble built from the
same noise over all n observations, the noise itself is checked bit for bit
against full-length draws, and a structural check bounds what an ensemble
holds, so a regression to mc x n storage fails without any timing.
mc_calibrate and the `verify` checks draw in window coordinates instead:
replicate j's first len(support) values, whatever n is, which a count of
their draws and a bit for bit oracle pin down.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lpadapt import calibration, verification
from lpadapt.calibration import SelectionEnsemble, mc_calibrate, noise_matrix, replicate_noise
from lpadapt.exceptions import ParameterDomainError
from lpadapt.local_model import KERNELS, Basis, LadderDesign, ScaleLadder, default_h1
from lpadapt.verification import _unit_design, _wilks_forms, run_all

Z = np.array([3.0, 2.0, 1.5])  # low enough that many replicates stop early
MC = 400


def full_n_ensemble(ld, mc, seed, theta=None):
    """Oracle: observations over all n points, fitted as Y @ D_k^T."""
    n = ld.points.shape[0]
    mean = np.zeros(n) if theta is None else ld.psi.T @ np.asarray(theta, dtype=float)
    Y = np.stack([mean + replicate_noise(seed, j, n) * ld.sigma_model for j in range(mc)])
    ens = SelectionEnsemble(ld, Y)
    for k, D in enumerate(ld.D_list):
        assert np.array_equal(ens.theta_tilde[:, k, :], Y @ D.T)
    return ens


def assert_matches_full_n(ld, seed, theta=None):
    if theta is None:
        win = SelectionEnsemble.pure_noise(ld, MC, seed)
    else:
        win = SelectionEnsemble.draw(ld, MC, seed, ld.sigma_model, mean=ld.psi.T @ theta)
    full = full_n_ensemble(ld, MC, seed, theta=theta)
    assert win.ld.points.shape[0] == ld.support.size < ld.points.shape[0]
    scale = np.max(np.abs(full.theta_tilde), axis=0)  # (K, p)
    assert np.all(np.abs(win.theta_tilde - full.theta_tilde) <= 1e-11 * scale)
    assert np.array_equal(np.isnan(win.T), np.isnan(full.T))
    np.testing.assert_allclose(win.T, full.T, rtol=1e-9, atol=1e-10)
    khat = win.k_hat(Z)
    assert np.array_equal(khat, full.k_hat(Z))
    assert 1 < len(np.unique(khat))  # the thresholds exercise both stopping and passing
    got, want = win.gap_forms(Z), full.gap_forms(Z)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)


def one_d_ld(kernel="boxcar", degree=1, n=500, x=0.43, K=4, shuffle=False):
    pts = np.linspace(0.0, 1.0, n)
    sigma = 0.2 + 0.3 * pts
    if shuffle:
        perm = np.random.default_rng(n).permutation(n)
        pts, sigma = pts[perm], sigma[perm]
    ladder = ScaleLadder.geometric(default_h1(n, degree + 1), K, growth=1.5, kernel=kernel)
    return LadderDesign(Basis.polynomial(degree), ladder, pts, x, sigma)


@pytest.fixture
def draw_sizes(monkeypatch):
    """Sizes of the standard-normal draws made through np.random.Generator, one per call."""
    sizes = []

    class Recording(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            result = super().standard_normal(*args, **kwargs)
            sizes.append(np.size(result))
            return result

    monkeypatch.setattr(np.random, "Generator", Recording)
    return sizes


class TestNoisePrefix:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_shorter_draw_is_prefix(self, seed):
        n = 3000
        for j in (0, 1, 19, 4321):
            full = replicate_noise(seed, j, n)
            for m in (1, 2, 37, 1024, 2999, n):
                assert np.array_equal(replicate_noise(seed, j, m), full[:m])

    @pytest.mark.parametrize(
        "cols", [np.arange(200), np.arange(40, 101), np.array([0, 3, 4, 90, 199]), np.array([199]), np.arange(0)]
    )
    def test_rows_are_full_draws_on_cols(self, cols):
        n, rows = 200, 25
        got = noise_matrix(11, rows, n, cols)
        want = np.stack([replicate_noise(11, j, n) for j in range(rows)])
        assert np.array_equal(got, want[:, cols])

    def test_draws_stop_at_last_column(self, draw_sizes):
        noise_matrix(3, 10, 1000, np.arange(100, 161))
        assert draw_sizes == [161] * 10

    @pytest.mark.parametrize("cols", [np.array([5, 4]), np.array([3, 3]), np.array([-1, 2]), np.array([2, 200])])
    def test_bad_columns_rejected(self, cols):
        with pytest.raises(ParameterDomainError):
            noise_matrix(0, 2, 200, cols)


class TestWindowedEnsemble:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_sorted_1d(self, kernel, degree):
        assert_matches_full_n(one_d_ld(kernel, degree), seed=degree)

    def test_truncated_ladder(self):
        # one far point makes the largest scale fail the conditioning gate
        n = 400
        pts = np.concatenate([np.linspace(0.0, 1.0, n - 1), [1e4]])
        ladder = ScaleLadder((0.03, 0.05, 0.08, 0.13, 2e4), kernel="boxcar")
        ld = LadderDesign(Basis.polynomial(2), ladder, pts, 0.5, np.full(n, 0.3))
        assert ld.K_eff == 4 and ld.truncated_at == 5
        assert_matches_full_n(ld, seed=5)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shuffled_1d(self, kernel):
        assert_matches_full_n(one_d_ld(kernel, 1, shuffle=True), seed=3)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_2d(self, kernel):
        rng = np.random.default_rng(17)
        n = 900
        pts = rng.uniform(0.0, 1.0, (n, 2))
        sigma = 0.5 + 0.5 * pts[:, 0]
        ladder = ScaleLadder.geometric(0.07, 4, growth=1.3, kernel=kernel)
        ld = LadderDesign(Basis.polynomial(1, dim=2), ladder, pts, [0.5, 0.4], sigma)
        assert ld.K_eff == 4
        assert_matches_full_n(ld, seed=8)

    def test_mean_shift(self):
        ld = one_d_ld("epanechnikov", 2)
        assert_matches_full_n(ld, seed=4, theta=np.array([3.0, -20.0, 150.0]))

    def test_draw_with_mean_and_sd(self):
        # the general constructor behind risk_experiment and the pair checks
        ld = one_d_ld("boxcar", 1, shuffle=True)
        n = ld.points.shape[0]
        f = np.sin(4.0 * ld.points[:, 0])
        sd = 0.3 + 0.1 * np.cos(ld.points[:, 0])
        win = SelectionEnsemble.draw(ld, MC, 12, sd, mean=f)
        Y = np.stack([f + sd * replicate_noise(12, j, n) for j in range(MC)])
        full = SelectionEnsemble(ld, Y)
        np.testing.assert_allclose(win.theta_tilde, full.theta_tilde, rtol=1e-11, atol=1e-12)
        assert np.array_equal(win.k_hat(Z), full.k_hat(Z))


def test_ensemble_holds_support_columns_only(draw_sizes):
    n, mc = 2000, 2000
    ld = one_d_ld("boxcar", 1, n=n, x=0.5, K=6)
    support = ld.support
    assert support.size < 100

    tracemalloc.start()
    try:
        ens = SelectionEnsemble.pure_noise(ld, mc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.ld.points.shape[0] == support.size
    assert all(D.shape == (ld.basis.p, support.size) for D in ens.ld.D_list)
    assert max(draw_sizes) == support[-1] + 1 < n
    # mc x n float64 alone would be 32 MB; the windowed ensemble needs about 3 MB
    assert peak < 8 * 2**20, peak


class TestCalibrationWindow:
    """mc_calibrate draws replicate j's first len(support) values, on the support in design order."""

    @staticmethod
    def calibrate(ld, seed=0):
        return mc_calibrate(ld.basis, ld.ladder, ld.sigma_model, ld.points, ld.x, 1.0, 0.5, 1000, seed)

    @pytest.mark.parametrize("n", [400, 32000])
    def test_draws_do_not_grow_with_n(self, draw_sizes, n):
        ld = one_d_ld("boxcar", 1, n=n, x=0.5, K=6)
        self.calibrate(ld)
        assert draw_sizes == [ld.support.size] * 1000
        assert ld.support.size < 100 < ld.support[-1]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rows_are_replicate_prefixes_on_the_support(self, kernel):
        ld = one_d_ld(kernel, 1, shuffle=True)
        support, seed = ld.support, 9
        built = []

        class Spy(SelectionEnsemble):
            def __init__(self, design, Y):
                built.append((design, np.array(Y)))
                super().__init__(design, Y)

        with mock.patch.object(calibration, "SelectionEnsemble", Spy):
            self.calibrate(ld, seed=seed)
        (design, Y), = built
        assert np.array_equal(design.points, ld.points[support])
        for j in range(Y.shape[0]):
            assert np.array_equal(Y[j], replicate_noise(seed, j, support.size) * ld.sigma_model[support])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_truncated_ladder_keeps_the_accepted_scales(self, kernel):
        # the far point fails scale 5 on the full design; on the window alone it would pass again
        n = 400
        pts = np.concatenate([np.linspace(0.0, 1.0, n - 1), [1e4]])
        ladder = ScaleLadder((0.03, 0.05, 0.08, 0.13, 2e4), kernel=kernel)
        ld = LadderDesign(Basis.polynomial(2), ladder, pts, 0.5, np.full(n, 0.3))
        assert ld.K_eff == 4 and ld.truncated_at == 5
        cv = self.calibrate(ld)
        assert cv.K == ld.K_eff == 4 and len(cv.z) == 3


class TestVerifyWindow:
    """The verify checks draw replicate j's first m values, on the m points of the design's largest window."""

    def test_every_draw_is_a_replicate_prefix(self, monkeypatch):
        calls = []

        def spy(real):
            def noise_matrix(seed, rows, n, cols):
                calls.append((n, np.asarray(cols)))
                return real(seed, rows, n, cols)
            return noise_matrix

        monkeypatch.setattr(calibration, "noise_matrix", spy(calibration.noise_matrix))
        monkeypatch.setattr(verification, "noise_matrix", spy(verification.noise_matrix))
        assert all(result.passed for result in run_all(quick=True))
        assert len(calls) == 10  # 6 quadratic-form checks, validate_pc, 2 pair checks, stacked covariance
        for n, cols in calls:
            assert n == len(cols) and np.array_equal(cols, np.arange(n)), (n, cols)

    @pytest.mark.parametrize("design", [
        (1, 120, 3, 1.6, "boxcar"), (2, 120, 3, 1.6, "epanechnikov"), (1, 150, 3, 1.6, "boxcar"),
        (2, 150, 3, 1.6, "boxcar"), (1, 200, 4, 1.5, "boxcar"), (1, 150, 4, 1.5, "boxcar"),
    ])
    def test_wilks_forms_on_window_coordinates(self, design):
        p, n, K, growth, kernel = design
        ld, pts = _unit_design(*design)
        full = LadderDesign(Basis.polynomial(p - 1), ScaleLadder.geometric(default_h1(n, p), K, growth=growth,
                                                                           kernel=kernel),
                            np.linspace(0.0, 1.0, n), 0.5, np.ones(n))
        m, support = ld.points.shape[0], full.support
        assert m == support.size < support[-1] and np.array_equal(pts, full.points[support, 0])
        for D, D_full in zip(ld.D_list, full.D_list):
            assert np.array_equal(D, D_full[:, support])
        sigma, k, rows, seed = 1.0 + 0.2 * np.sin(7.0 * pts), ld.K_eff, 300, 23
        eps = np.stack([replicate_noise(seed, j, m) for j in range(rows)])  # value i on window point i
        g = eps @ (ld.D_list[k - 1] * sigma).T
        want = np.maximum(np.einsum("ri,ij,rj->r", g, ld.B_list[k - 1], g), 0.0)
        assert np.array_equal(_wilks_forms(ld, sigma, k, rows, seed), want)
