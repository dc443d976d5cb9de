import tracemalloc

import numpy as np
import pytest

from lpadapt import fll_selector
from lpadapt.calibration import SelectionEnsemble
from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError
from lpadapt.fll_selector import (
    adaptive_estimate,
    fit_curve,
    pair_statistics,
    select_adaptive,
    selection_sweep,
)
from lpadapt.local_model import Basis, LadderDesign, LocalFit, ScaleLadder
from lpadapt.verification import _random_boxcar_scene

from conftest import dense_wls


def _fits_from_thetas(thetas, B=None):
    p = len(thetas[0])
    B = np.eye(p) if B is None else B
    return [LocalFit(theta=np.asarray(t, dtype=float), B=B, k=i + 1) for i, t in enumerate(thetas)]


def _pair_statistics_by_row(theta, B):
    """pair_statistics as it was before rows were grouped: one row l of the table per pass."""
    N, K, p = theta.shape
    T = np.empty((K, K, N))
    for l in range(K):
        d = theta[:, l : l + 1] - theta
        forms = np.zeros((N, K))
        for i in range(p):
            for j in range(p):
                forms += d[..., i] * B[:, l, i, j, None] * d[..., j]
        T[l] = np.maximum(forms, 0.0).T
    T[np.arange(K), np.arange(K)] = np.nan
    return T


def _pair_inputs(rng, N, K, p, shared):
    theta = rng.standard_normal((N, K, p)) * 10.0 ** rng.integers(-3, 4, (1, K, p))
    A = rng.standard_normal((1 if shared else N, K, p, p))
    return theta, A @ A.swapaxes(-1, -2) + 1e-3 * np.eye(p)


class _SliceLog(np.ndarray):
    """An array that records the keys it is indexed with: the replicate blocks pair_statistics takes from theta."""

    def __getitem__(self, key):
        self.log.append(key)
        return np.asarray(self)[key]


def _blocks(theta, B):
    """(T, [(start, stop), ...]) of pair_statistics, the blocks as pair_statistics slices them from theta."""
    logged = theta.view(_SliceLog)
    logged.log = []
    T = pair_statistics(logged, B)
    return T, [(key.start, key.stop) for key in logged.log]


class TestPairStatisticsBlocks:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-B", "stacked-B"])
    @pytest.mark.parametrize("K", range(1, 18))
    def test_any_budget_equals_one_row_at_a_time(self, rng, monkeypatch, shared, K):
        """Every block size, from one replicate to all of them, for N = 0 and K = 1 too."""
        p = 2
        for N in (0, 1, 37):
            theta, B = _pair_inputs(rng, N, K, p, shared)
            want = _pair_statistics_by_row(theta, B)
            for extra in (0, 3000, 20000, 2**20):  # beyond the set-aside ufunc buffers
                monkeypatch.setattr(fll_selector, "_PAIR_BYTES", fll_selector._UFUNC_BUFFERS + extra)
                T, blocks = _blocks(theta, B)
                assert T.shape == (K, K, N) and np.array_equal(T, want, equal_nan=True)
                starts, stops = [b for b, _ in blocks], [e for _, e in blocks]
                assert [0, *stops] == [*starts, N]  # contiguous blocks that cover the replicates in order
                if extra == 0:
                    assert len(blocks) == N  # one replicate a block
                elif extra == 2**20:
                    assert len(blocks) == min(N, 1)  # every replicate in one block

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-B", "stacked-B"])
    @pytest.mark.parametrize("N", [1, 64, 800, 5000])
    def test_default_budget_equals_one_row_at_a_time(self, rng, shared, N):
        """At K = 6, p = 2 one block holds a fit_curve chunk and up to 800 replicates; 5000 take several."""
        K, p = 6, 2
        theta, B = _pair_inputs(rng, N, K, p, shared)
        T, blocks = _blocks(theta, B)
        assert (len(blocks) == 1) == (N <= 800)
        assert len({e - b for b, e in blocks[:-1]}) <= 1 and blocks[-1][1] == N  # equal blocks, then the rest
        assert np.array_equal(T, _pair_statistics_by_row(theta, B), equal_nan=True)

    def test_theory_ladder_takes_a_few_hundred_blocks(self, rng):
        """K = 17 over 20000 replicates: blocks of over 100 replicates, not thousands of tiny ones."""
        theta, B = _pair_inputs(rng, 20000, 17, 2, True)
        _, blocks = _blocks(theta, B)
        assert 20 <= len(blocks) <= 200

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-B", "stacked-B"])
    @pytest.mark.parametrize("K", [6, 17])
    def test_memory_beyond_the_table_stays_within_the_budget(self, rng, shared, K):
        """Traced peak minus the returned table, at 20000 replicates; rows of T a pass at a time took 4.9 and 13.7 MB."""
        theta, B = _pair_inputs(rng, 20000, K, 2, shared)
        tracemalloc.start()
        try:
            T = pair_statistics(theta, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - T.nbytes <= fll_selector._PAIR_BYTES


class TestFllStatistic:
    def test_zero_difference(self):
        T = pair_statistics(np.array([[[1.0, 2.0], [1.0, 2.0]]]), np.stack([np.eye(2)] * 2)[None])
        assert T[0, 1, 0] == 0.0

    def test_scalar_case(self):
        T = pair_statistics(np.array([[[1.0], [0.5]]]), np.array([[[[4.0]], [[9.0]]]]))
        assert T[0, 1, 0] == pytest.approx(1.0)  # 4 * 0.25, B from the smaller scale

    def test_matches_direct_likelihood_difference(self, rng):
        # oracle: T = 2 (L(W_l, theta_l) - L(W_l, theta_m)) evaluated from raw data,
        # with each theta_k refitted by dense weighted least squares
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 3, 3, n=45)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        y = np.sin(4 * pts) + 0.3 * rng.standard_normal(pts.size)
        psi = ld.psi
        thetas = [dense_wls(psi.T, w, sigma, y)[0] for w in ld.weights_list]
        T = pair_statistics(ld.fit_stacked(y[None]), np.stack(ld.B_list)[None])[..., 0]
        data = Dataset(x=pts, y=y, sigma=sigma)
        T_curve = fit_curve(data, np.array([x]), ladder, basis, np.full(2, np.inf)).T[..., 0]

        def loglik(k, theta):
            resid = y - psi.T @ theta
            return -0.5 * float(np.sum(resid**2 * ld.weights_list[k - 1] / sigma**2))

        for l in range(1, 4):
            for m in range(l + 1, 4):
                oracle = 2.0 * (loglik(l, thetas[l - 1]) - loglik(l, thetas[m - 1]))
                assert T[l - 1, m - 1] == pytest.approx(oracle, abs=1e-8)
                assert T_curve[l - 1, m - 1] == pytest.approx(oracle, abs=1e-8)


class TestSelectAdaptive:
    def test_all_accepted(self):
        fits = _fits_from_thetas([[1.0]] * 5)
        trace = select_adaptive(fits, np.full(4, 0.5))
        assert trace.k_hat == 5 and trace.first_violation is None

    def test_first_comparison_fails(self):
        fits = _fits_from_thetas([[0.0], [10.0], [0.0]])
        trace = select_adaptive(fits, np.array([1.0, 1.0]))
        assert trace.k_hat == 1 and trace.first_violation == (1, 2)

    def test_acceptance_on_equality(self):
        fits = _fits_from_thetas([[0.0], [2.0]])  # T = 4 with B = 1
        assert select_adaptive(fits, np.array([4.0])).k_hat == 2
        assert select_adaptive(fits, np.array([3.999])).k_hat == 1

    def test_brute_force_enumeration(self, rng):
        # oracle: literal max over k of the acceptance predicate on the T table
        for _ in range(50):
            K = int(rng.integers(2, 7))
            fits = _fits_from_thetas(rng.normal(size=(K, 2)))
            z = rng.uniform(0.5, 6.0, K - 1)
            trace = select_adaptive(fits, z)
            T = trace.statistics
            accepted = [
                k
                for k in range(1, K + 1)
                if all(T[l - 1, m - 1] <= z[l - 1] for m in range(2, k + 1) for l in range(1, m))
            ]
            assert trace.k_hat == max(accepted)

    def test_monotone_thresholds(self, rng):
        for _ in range(25):
            fits = _fits_from_thetas(rng.normal(size=(5, 2)))
            z = rng.uniform(0.5, 4.0, 4)
            base = select_adaptive(fits, z).k_hat
            bumped = z.copy()
            bumped[int(rng.integers(0, 4))] += rng.uniform(0.0, 3.0)
            assert select_adaptive(fits, bumped).k_hat >= base

    def test_stepwise_constant_after_k_hat(self, rng):
        fits = _fits_from_thetas(rng.normal(size=(6, 2)))
        trace = select_adaptive(fits, np.full(5, 1e9))
        est = adaptive_estimate(fits, trace)
        steps = trace.stepwise_indices()
        assert np.all(steps[trace.k_hat - 1 :] == trace.k_hat)
        assert est.stepwise.shape == (6, 2)
        for k in range(trace.k_hat, 7):
            assert est.stepwise[k - 1] == pytest.approx(est.theta_hat)


class TestComponentwise:
    def test_second_derivative_of_quadratic(self):
        # noiseless quadratic: third coefficient is f''(x) for the degree-2 basis
        basis = Basis.polynomial(2)
        pts = np.linspace(0.0, 1.0, 60)
        x = 0.4
        a, b_, c = 0.5, -1.0, 3.0
        f = a + b_ * (pts - x) + c * (pts - x) ** 2
        ladder = ScaleLadder.geometric(0.1, 3, growth=1.5)
        data = Dataset(x=pts, y=f, sigma=np.ones(60))
        fit = fit_curve(data, [x], ladder, basis, np.full(2, 1.0))
        assert fit.k_hat[0] == 3  # all statistics vanish on noiseless in-model data
        assert fit.theta_hat[0, 2] == pytest.approx(2.0 * c, abs=1e-8)
        assert fit.fitted_values[0] == pytest.approx(a, abs=1e-9)


class TestPivotality:
    def test_shift_leaves_statistics_invariant(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 4, n=50)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        psi = ld.psi
        z = np.array([3.0, 2.0, 1.0])
        for _ in range(20):
            noise = sigma * rng.standard_normal(pts.size)
            theta = rng.normal(size=2)
            t0 = select_adaptive(ld.fit(noise), z)
            t1 = select_adaptive(ld.fit(noise + psi.T @ theta), z)
            assert t1.k_hat == t0.k_hat
            mask = ~np.isnan(t0.statistics)
            assert np.max(np.abs(t0.statistics[mask] - t1.statistics[mask])) < 1e-9


class TestFitCurve:
    def test_constant_data_reproduced(self):
        n = 80
        pts = np.linspace(0.0, 1.0, n)
        data = Dataset(x=pts, y=np.full(n, 3.25), sigma=np.ones(n))
        basis = Basis.polynomial(0)
        ladder = ScaleLadder.geometric(0.05, 4, growth=1.5)
        out = fit_curve(data, np.linspace(0.1, 0.9, 9), ladder, basis, np.full(3, 5.0))
        assert np.all(out.k_eff > 0)
        assert out.fitted_values == pytest.approx(np.full(9, 3.25), abs=1e-10)
        assert np.array_equal(out.k_hat, out.k_eff)  # all statistics vanish

    def test_single_point_matches_manual(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=50)
        y = np.cos(3 * pts) + 0.2 * rng.standard_normal(50)
        data = Dataset(x=pts, y=y, sigma=sigma)
        z = np.array([4.0, 3.0])
        grid_fit = fit_curve(data, np.array([x]), ladder, basis, z)
        manual = fit_curve(data, [x], ladder, basis, z)
        assert grid_fit.theta_hat[0] == pytest.approx(manual.theta_hat[0])
        assert grid_fit.k_hat[0] == manual.k_hat[0]

    def test_noiseless_polynomial_selects_largest_scale(self):
        pts = np.linspace(-1.0, 1.0, 70)
        f = 1.0 - 2.0 * pts + 0.5 * pts**2
        basis = Basis.polynomial(2)
        data = Dataset(x=pts, y=f, sigma=np.ones(70))
        ladder = ScaleLadder.geometric(0.2, 4, growth=1.4)
        out = fit_curve(data, np.array([0.0, 0.3]), ladder, basis, np.full(3, 1e-6))
        assert np.array_equal(out.k_hat, out.k_eff)
        for f_hat, xval in zip(out.fitted_values, (0.0, 0.3)):
            assert f_hat == pytest.approx(1.0 - 2.0 * xval + 0.5 * xval**2, abs=1e-9)

    def test_jump_scene_selects_smaller_scales_near_jump(self):
        # seeded regression: the adaptive scale shrinks next to the discontinuity
        from lpadapt.sim_harness import Scene, SigmaSpec, generate

        scene = Scene(f="jump", n=300, sigma_model=SigmaSpec("constant", 0.08), seed=21)
        data = generate(scene, 0)
        basis = Basis.polynomial(0)
        ladder = ScaleLadder.geometric(8 / 600.0, 6, growth=1.6)
        cvz = np.full(5, 6.0)
        k_near = fit_curve(data, np.array([0.49, 0.51]), ladder, basis, cvz).k_hat.max()
        k_far = fit_curve(data, np.array([0.15, 0.85]), ladder, basis, cvz).k_hat.min()
        assert k_near < k_far  # frozen outcome for seed 21: 2-3 near vs 6 far

    def test_two_dimensional_grid(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(120, 2))
        y = 1.0 + pts[:, 0] - 0.5 * pts[:, 1] + 0.05 * rng.standard_normal(120)
        data = Dataset(x=pts, y=y, sigma=np.full(120, 0.05))
        basis = Basis.polynomial(1, dim=2)
        ladder = ScaleLadder.geometric(0.45, 3, growth=1.4)
        grid = np.array([[0.0, 0.0], [0.2, -0.1]])
        out = fit_curve(data, grid, ladder, basis, np.full(2, 50.0))
        assert np.all(out.k_eff > 0)
        assert out.fitted_values[0] == pytest.approx(1.0, abs=0.05)
        assert out.fitted_values[1] == pytest.approx(1.0 + 0.2 + 0.05, abs=0.05)

    @pytest.mark.parametrize("grid", [[], np.empty((0, 1))], ids=["list", "column"])
    def test_empty_grid_gives_empty_arrays(self, grid):
        pts = np.linspace(0.0, 1.0, 40)
        data = Dataset(x=pts, y=np.sin(pts), sigma=np.ones(40))
        out = fit_curve(data, grid, ScaleLadder.geometric(0.1, 3, growth=1.5), Basis.polynomial(1), np.full(2, 1.0))
        assert out.T.shape == (3, 3, 0) and out.first.shape == (0, 2) and out.theta_hat.shape == (0, 2)
        for arr in (out.k_eff, out.k_hat, out.fitted_values):
            assert arr.shape == (0,)

    def test_failed_point_recorded_not_raised(self):
        pts = np.linspace(0.0, 1.0, 40)
        data = Dataset(x=pts, y=np.zeros(40), sigma=np.ones(40))
        basis = Basis.polynomial(1)
        ladder = ScaleLadder((1e-7, 2e-7, 3e-7), kernel="boxcar")  # no window holds 2 points
        out = fit_curve(data, np.array([0.5]), ladder, basis, np.full(2, 1.0))
        assert out.k_eff.tolist() == out.k_hat.tolist() == [0]
        assert not np.shares_memory(out.k_hat, out.k_eff)  # two fields, not one array under two names
        assert np.all(np.isnan(out.theta_hat)) and np.isnan(out.fitted_values[0])


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
def test_thresholds_that_critical_values_rejects_raise(bad):
    """NaN and <= 0 raise in every selection entry point, also on a grid where no point reaches the sweep.

    +inf, a threshold that never stops, stays allowed: TestFllStatistic fits with it.
    """
    pts = np.linspace(0.0, 1.0, 60)
    data, basis, z = Dataset(x=pts, y=np.sin(3.0 * pts), sigma=np.full(60, 0.1)), Basis.polynomial(1), [4.0, bad]
    ladder, unusable = ScaleLadder.geometric(0.1, 3, growth=1.5), ScaleLadder((1e-7, 2e-7, 3e-7))
    ld = LadderDesign(basis, ladder, pts, 0.5, data.sigma)
    ens = SelectionEnsemble.pure_noise(ld, 10, 0)
    for call in (lambda: fit_curve(data, [0.5], ladder, basis, z), lambda: fit_curve(data, [0.5], unusable, basis, z),
                 lambda: selection_sweep(ens.T, z), lambda: select_adaptive(ld.fit(data.y), z),
                 lambda: ens.k_hat(z), lambda: ens.pc_moments(z, 0.5)):
        with pytest.raises(ParameterDomainError, match="thresholds must be positive"):
            call()
