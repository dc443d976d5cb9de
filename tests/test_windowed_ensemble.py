"""Monte-Carlo ensembles are drawn and fitted on the support of the largest window only.

The windowed SelectionEnsemble is compared with an ensemble built from the
same noise over all n observations, the noise itself is checked bit for bit
against full-length draws, and a structural check bounds what an ensemble
holds, so a regression to mc x n (or mc x window) storage fails without any
timing.  A replicate's fits are the same bits at any ensemble size.
mc_calibrate and the `verify` checks draw in window coordinates instead:
replicate j's first len(support) values, whatever n is, which a count of
their draws and a bit for bit oracle pin down.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lpadapt import calibration, fll_selector
from lpadapt.calibration import MIN_MC_SIZE, SelectionEnsemble, mc_calibrate, noise_matrix, replicate_noise
from lpadapt.exceptions import ParameterDomainError
from lpadapt.local_model import KERNELS, Basis, LadderDesign, ScaleLadder, default_h1
from lpadapt.sim_harness import SigmaSpec
from lpadapt.verification import _window_fits, run_all

Z = np.array([3.0, 2.0, 1.5])  # low enough that many replicates stop early
MC = 400


def full_n_ensemble(ld, mc, seed, theta=None):
    """Oracle: observations over all n points, fitted as Y @ D_k^T."""
    n = ld.points.shape[0]
    mean = np.zeros(n) if theta is None else ld.psi.T @ np.asarray(theta, dtype=float)
    Y = np.stack([mean + replicate_noise(seed, j, n) * ld.sigma_model for j in range(mc)])
    ens = SelectionEnsemble(ld, ld.fit_stacked(Y))
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
    got, want = win.gap_forms(khat), full.gap_forms(khat)
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
        # one far point makes the largest scale near-singular, so it fails the conditioning gate
        n = 400
        pts = np.concatenate([np.linspace(0.0, 1.0, n - 1), [1e6]])
        ladder = ScaleLadder((0.03, 0.05, 0.08, 0.13, 2e6), kernel="boxcar")
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
        full = SelectionEnsemble(ld, ld.fit_stacked(Y))
        np.testing.assert_allclose(win.theta_tilde, full.theta_tilde, rtol=1e-11, atol=1e-12)
        assert np.array_equal(win.k_hat(Z), full.k_hat(Z))


def _traced_pure_noise(ld, mc):
    """The pure-noise ensemble of mc replicates and the peak of the memory traced while it was built."""
    tracemalloc.start()
    try:
        ens = SelectionEnsemble.pure_noise(ld, mc, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ens, peak


def test_ensemble_holds_support_columns_only(draw_sizes):
    n, mc = 2000, 2000
    ld = one_d_ld("boxcar", 1, n=n, x=0.5, K=6)
    support = ld.support
    assert support.size < 100

    ens, peak = _traced_pure_noise(ld, mc)
    assert ens.ld.points.shape[0] == support.size
    assert all(D.shape == (ld.basis.p, support.size) for D in ens.ld.D_list)
    assert max(draw_sizes) == support[-1] + 1 < n
    # mc x n float64 alone would be 32 MB; the windowed ensemble needs about 3 MB
    assert peak < 8 * 2**20, peak

    # the K = 17 ladder at n = 32000 (h_K about 0.08) in window coordinates, as mc_calibrate draws:
    # its mc x m observations alone take 85 MB, but the ensemble streams them in blocks and keeps
    # only theta_tilde and the packed T
    ld = one_d_ld("boxcar", 1, n=32000, x=0.5, K=17)
    win = ld.restrict(ld.support)
    assert win.K_eff == 17 and 5000 < win.points.shape[0] < 6000
    held = 8 * mc * (17 * 16 // 2 + 17 * 2)  # 1,360 bytes a replicate
    design = sum(a.nbytes for a in (*win.D_list, *win.weights_list, win.psi))  # the copy that draw restricts
    bound = held + design + 8 * calibration._BLOCK_BYTES
    assert bound < mc * win.points.shape[0] * 8 / 5
    ens, peak = _traced_pure_noise(win, mc)
    assert ens.theta_tilde.nbytes + ens.T.nbytes == held
    assert peak < bound, (peak, bound)


#: traced memory of SelectionEnsemble.pure_noise beyond its fits, T, the pair and two block budgets:
#: the restricted design, index arrays and small temporaries
_ENSEMBLE_SLACK = 64 * 2**10


def test_ensemble_peak_is_its_packed_table_its_fits_and_the_budgets():
    """K = 6, p = 2 and 20000 replicates: 216 bytes a replicate, and a peak within them plus the budgets.

    8 (K (K - 1) / 2 + K p) bytes a replicate are kept, 4.3 MB; a (K, K, mc) table would keep 384 bytes a
    replicate, 7.7 MB.  While the fits are drawn, the block of drawn rows, its taken columns and the
    scaled observations are at most _BLOCK_BYTES each, and they die before pair_statistics' temporaries,
    at most _PAIR_BYTES, are made.
    """
    mc, K, p = 20000, 6, 2
    held = 8 * mc * (K * (K - 1) // 2 + K * p)
    assert held == 216 * mc
    bound = held + fll_selector._PAIR_BYTES + 2 * calibration._BLOCK_BYTES + _ENSEMBLE_SLACK
    ens, peak = _traced_pure_noise(one_d_ld("boxcar", 1, n=2000, x=0.5, K=K), mc)
    assert (ens.K, ens.ld.basis.p) == (K, p)
    assert ens.theta_tilde.nbytes + ens.T.nbytes == held
    assert peak <= bound, (peak, bound)


def test_replicate_fits_do_not_depend_on_mc_size():
    # replicate j's theta_tilde and T are bit for bit the same whether the ensemble holds R - 1, R or
    # 3R + 5 replicates, or runs past a state chunk; one BLAS thread, in a fresh interpreter
    script = """
import json
import numpy as np
from lpadapt import calibration
from lpadapt.calibration import SelectionEnsemble
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder, default_h1
n = 400
pts = np.linspace(0.0, 1.0, n)
ld = LadderDesign(Basis.polynomial(1), ScaleLadder.geometric(default_h1(n, 2), 6, growth=1.5), pts, 0.5,
                  0.2 + 0.3 * pts)
R = max(1, calibration._BLOCK_BYTES // (8 * (int(ld.support[-1]) + 1)))  # block rows at the drawn width
sizes = [R - 1, R, 3 * R + 5, calibration._STATE_CHUNK + 1]
big = SelectionEnsemble.pure_noise(ld, max(sizes) + R + 7, 3)
same = []
for mc in sizes:
    ens = SelectionEnsemble.pure_noise(ld, mc, 3)
    same.append([mc, bool(np.array_equal(ens.theta_tilde, big.theta_tilde[:mc])),
                 bool(np.array_equal(ens.T, big.T[..., :mc], equal_nan=True))])
print(json.dumps({"R": R, "chunk": calibration._STATE_CHUNK, "same": same}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert 1 < result["R"] < 3 * result["R"] + 5 < result["chunk"]
    assert result["same"] == [[mc, True, True] for mc, _, _ in result["same"]]


@pytest.mark.parametrize("name", ["sd", "mean"])
@pytest.mark.parametrize("bad", ["longer", "shorter", "matrix", "nan", "inf"])
def test_draw_rejects_values_that_are_not_one_finite_value_per_design_point(name, bad):
    """ParameterDomainError naming the argument, not a run on a truncated sd, an IndexError or NaN fits."""
    ld = one_d_ld("boxcar", 1)
    n = ld.points.shape[0]
    value = {"longer": np.ones(n + 7), "shorter": np.ones(n - 1), "matrix": np.ones((1, n)),
             "nan": np.full(n, np.nan), "inf": np.where(np.arange(n) == ld.support[0], np.inf, 1.0)}[bad]
    args = (value, None) if name == "sd" else (np.ones(n), value)
    with pytest.raises(ParameterDomainError, match=f"^{name} must hold {n} finite values"):
        SelectionEnsemble.draw(ld, MIN_MC_SIZE, 0, *args)


def test_draw_rejects_a_negative_sd_and_takes_a_noiseless_truth():
    ld = one_d_ld("boxcar", 1)
    n = ld.points.shape[0]
    with pytest.raises(ParameterDomainError, match="sd must be >= 0"):
        SelectionEnsemble.draw(ld, MIN_MC_SIZE, 0, np.where(np.arange(n) == 0, -1e-3, 1.0))  # outside the support too
    f = np.sin(4.0 * ld.points[:, 0])
    ens = SelectionEnsemble.draw(ld, 30, 0, np.zeros(n), mean=f)
    np.testing.assert_allclose(ens.theta_tilde, np.broadcast_to(ld.pseudo_true(f), ens.theta_tilde.shape), rtol=1e-12)


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
        support, seed, mc = ld.support, 9, 1000
        built, blocks, fits = [], [], []

        class Spy(SelectionEnsemble):
            def __init__(self, design, theta_tilde):
                built.append((design, np.array(theta_tilde)))
                super().__init__(design, theta_tilde)

        real_fit = LadderDesign.fit_stacked

        def fit_stacked(design, Y):
            blocks.append(np.array(Y))
            fits.append(real_fit(design, Y))
            return fits[-1]

        with mock.patch.object(calibration, "SelectionEnsemble", Spy), \
                mock.patch.object(LadderDesign, "fit_stacked", fit_stacked):
            self.calibrate(ld, seed=seed)
        (design, theta), = built
        assert np.array_equal(design.points, ld.points[support])
        # the observations are fitted in equal blocks, the last one zero-padded
        R = len(blocks[0])
        assert all(Y.shape == (R, support.size) for Y in blocks) and len(blocks) == -(-mc // R)
        Y = np.concatenate(blocks)
        for j in range(mc):
            assert np.array_equal(Y[j], replicate_noise(seed, j, support.size) * ld.sigma_model[support])
        assert not np.any(Y[mc:])
        assert np.array_equal(theta, np.concatenate(fits)[:mc])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_truncated_ladder_keeps_the_accepted_scales(self, kernel):
        # the far point fails scale 5 on the full design; on the window alone it would pass again
        n = 400
        pts = np.concatenate([np.linspace(0.0, 1.0, n - 1), [1e6]])
        ladder = ScaleLadder((0.03, 0.05, 0.08, 0.13, 2e6), kernel=kernel)
        ld = LadderDesign(Basis.polynomial(2), ladder, pts, 0.5, np.full(n, 0.3))
        assert ld.K_eff == 4 and ld.truncated_at == 5
        cv = self.calibrate(ld)
        assert cv.K == ld.K_eff == 4 and len(cv.z) == 3


class TestVerifyWindow:
    """The verify checks draw replicate j's first m values, on the m points of the design's largest window."""

    def test_every_draw_is_a_replicate_prefix(self, monkeypatch):
        calls = []

        real = calibration._noise_blocks

        def _noise_blocks(seed, rows, n, cols):  # behind noise_matrix and SelectionEnsemble.draw alike
            calls.append((seed, n, np.asarray(cols)))
            return real(seed, rows, n, cols)

        monkeypatch.setattr(calibration, "_noise_blocks", _noise_blocks)
        assert all(result.passed for result in run_all(quick=True, seed=2024))
        assert len(calls) == 1  # the one table that every Monte-Carlo check reads
        seed, n, cols = calls[0]
        assert seed == 2024 + 3 and n == 26  # 26: the widest window among the checks
        assert np.array_equal(cols, np.arange(n)), cols

    @pytest.mark.parametrize("design", [
        (1, 120, 3, 1.6, "boxcar"), (2, 120, 3, 1.6, "epanechnikov"), (1, 150, 3, 1.6, "boxcar"),
        (2, 150, 3, 1.6, "boxcar"), (1, 200, 4, 1.5, "boxcar"), (1, 150, 4, 1.5, "boxcar"),
    ])
    def test_window_fits_on_window_coordinates(self, design):
        """_window_fits' fits of scale k are eps @ (D_k * sd)^T bit for bit, D_k the full design's on its window."""
        p, n, K, growth, kernel = design
        full = LadderDesign(Basis.polynomial(p - 1), ScaleLadder.geometric(default_h1(n, p), K, growth=growth,
                                                                           kernel=kernel),
                            np.linspace(0.0, 1.0, n), 0.5, np.ones(n))
        m, support, rows, seed = full.support.size, full.support, MIN_MC_SIZE, 23
        eps = np.stack([replicate_noise(seed, j, m) for j in range(rows)])  # value i on window point i
        spec = SigmaSpec("sine", 1.0, 0.2, 0.7)
        ld, sd, fits = _window_fits(eps, p, n, K, growth, spec, kernel)
        pts = full.points[support, 0]
        assert m == ld.points.shape[0] < support[-1] and np.array_equal(ld.points[:, 0], pts)
        assert np.array_equal(sd, spec.values(pts))
        assert np.array_equal(_window_fits(eps, p, n, K, growth, kernel=kernel)[1], np.ones(m))  # unit model noise
        assert fits.shape == (rows, full.K_eff, p)
        for k, (D, D_full) in enumerate(zip(ld.D_list, full.D_list)):
            assert np.array_equal(D, D_full[:, support])
            assert np.array_equal(fits[:, k], eps @ (D_full[:, support] * sd).T)
