import math

import numpy as np
import pytest

from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError
from lpadapt.fll_selector import fit_curve
from lpadapt.local_model import (
    Basis,
    LadderDesign,
    NoiseModel,
    ScaleLadder,
    default_h1,
    is_nested_binary,
    stacked_designs,
)
from lpadapt.verification import _random_boxcar_scene

from conftest import dense_wls, poly_design

#: one boxcar scale wide enough to give every point of [-1, 1] weight 1 around x = 0
WIDE = ScaleLadder((2.0,), kernel="boxcar")


def _one_scale_fit(basis, ladder, pts, x, sigma, y):
    """theta of the single scale from LadderDesign.fit, after checking fit_curve returns the same bits."""
    ld = LadderDesign(basis, ladder, pts, x, sigma)
    theta = ld.fit(y)[0].theta
    curve = fit_curve(Dataset(x=pts, y=y, sigma=sigma), np.array([x]), ladder, basis, [])
    assert np.array_equal(curve.theta_hat[0], theta)  # sorted data: the windowed fit equals the full one
    return ld, theta


def _weights(ladder, pts, x):
    """(K, n) kernel weights of every scale at x, from stacked_designs, the one weight builder."""
    pts = np.asarray(pts, dtype=float)
    return stacked_designs(Basis.polynomial(0), ladder, pts[None, :, None], np.array([[x]]), np.ones((1, pts.size)))[1][0]


class TestDefaultH1:
    @pytest.mark.parametrize("n,p,span", [(200, 1, 1.0), (400, 3, 0.37), (6000, 2, 1.0), (57, 5, 12.5)])
    def test_one_dimensional_rule_unchanged(self, n, p, span):
        assert default_h1(n, p, span) == default_h1(n, p, span, d=1) == span * max(4 * p, 8) / (2.0 * n)

    @pytest.mark.parametrize("d", [2, 3])
    def test_smallest_ball_holds_max_4p_8_evenly_spread_points(self, d):
        grid = np.stack(np.meshgrid(*[(np.arange(25) + 0.5) / 25] * d), axis=-1).reshape(-1, d)
        n, p = grid.shape[0], d + 1
        h1 = default_h1(n, p, 1.0, d)
        unit_ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        assert n * unit_ball * h1**d == pytest.approx(max(4 * p, 8), rel=1e-12)
        centers = np.random.default_rng(d).uniform(0.3, 0.7, (200, d))  # averages out the lattice
        inside = np.mean([np.sum(np.linalg.norm(grid - c, axis=1) <= h1) for c in centers])
        assert inside == pytest.approx(max(4 * p, 8), rel=0.1)


class TestKernelsAndWeights:
    def test_boxcar_indicator(self):
        ladder = ScaleLadder((0.5, 2.0), kernel="boxcar")
        pts = np.array([-1.0, 0.0, 1.0])
        assert _weights(ladder, pts, 0.0).tolist() == [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]

    def test_epanechnikov_endpoints(self):
        h = 0.7
        ladder = ScaleLadder((h,), kernel="epanechnikov")
        pts = np.array([0.0, h, 0.3])
        w = _weights(ladder, pts, 0.0)[0]
        # independent scalar evaluation of max(0, 1 - (u/h)^2)
        assert w[0] == 1.0
        assert w[1] == 0.0
        assert w[2] == pytest.approx(1.0 - (0.3 / h) ** 2, abs=1e-15)

    def test_truncated_gaussian(self):
        h = 0.5
        ladder = ScaleLadder((h,), kernel="truncated_gaussian")
        pts = np.array([0.0, 3 * h, 3 * h + 1e-9, 0.2])
        w = _weights(ladder, pts, 0.0)[0]
        assert w[0] == 1.0
        assert w[1] == pytest.approx(math.exp(-4.5), rel=1e-12)
        assert w[2] == 0.0
        assert w[3] == pytest.approx(math.exp(-0.5 * (0.2 / h) ** 2), rel=1e-12)

    def test_weights_nondecreasing_in_k(self, rng):
        pts = rng.uniform(-1, 1, 60)
        for kernel in ("boxcar", "epanechnikov", "truncated_gaussian"):
            ladder = ScaleLadder.geometric(0.2, 5, growth=1.4, kernel=kernel)
            ws = _weights(ladder, pts, 0.1)
            prev = ws[0]
            for cur in ws[1:]:
                assert np.all(cur >= prev - 1e-15)
                assert np.all((cur >= 0) & (cur <= 1))
                prev = cur

    def test_boxcar_idempotence(self, rng):
        pts = rng.uniform(-1, 1, 50)
        ladder = ScaleLadder.geometric(0.15, 4, growth=1.5, kernel="boxcar")
        ws = list(_weights(ladder, pts, 0.0))
        assert is_nested_binary(ws)
        for l in range(4):
            for m in range(l, 4):
                assert np.array_equal(ws[l] * ws[m], ws[l])

    def test_ladder_validation(self):
        with pytest.raises(ParameterDomainError):
            ScaleLadder((0.5, 0.5))
        with pytest.raises(ParameterDomainError):
            ScaleLadder((0.5, 0.2))
        with pytest.raises(ParameterDomainError):
            ScaleLadder((0.5,), kernel="triangle")
        with pytest.raises(ParameterDomainError):
            ScaleLadder.geometric(0.1, 3, growth=1.0)


class TestBasis:
    def test_polynomial_at_zero(self):
        for degree in (0, 1, 3):
            b = Basis.polynomial(degree)
            expected = np.zeros(degree + 1)
            expected[0] = 1.0
            assert np.array_equal(b.evaluate(0.0), expected)

    def test_polynomial_factorial_normalization(self):
        b = Basis.polynomial(3)
        u = 0.7
        assert b.evaluate(u) == pytest.approx([1.0, u, u**2 / 2.0, u**3 / 6.0], rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_polynomial_rounds_each_offset_alike_wherever_it_sits(self, rng, dim):
        # the stacked curve fit evaluates a chunk of slabs at once, a one-point fit one slab of 43
        # points here: a point's Psi must not depend on how many points are evaluated with it
        b = Basis.polynomial(3, dim=dim)
        offsets = rng.uniform(-1.0, 1.0, (3010, dim))
        psi = b._evaluate(offsets)
        assert np.array_equal(psi, np.concatenate([b._evaluate(slab) for slab in offsets.reshape(70, 43, dim)], axis=1))
        u = offsets[:, 0]
        assert np.array_equal(psi[3 if dim == 1 else 6], u * u * u * (1.0 / 6.0))  # u1^3 / 3!, by repeated products

    def test_polynomial_2d_size(self):
        b = Basis.polynomial(2, dim=2)
        assert b.p == 6  # C(2+2, 2)
        assert np.array_equal(b.evaluate([0.0, 0.0]), np.array([1.0, 0, 0, 0, 0, 0]))

    def test_custom_basis(self):
        b = Basis(p=2, dim=1, _evaluate=lambda u: np.stack([np.ones(len(u)), np.sin(u[:, 0])]))
        assert b.evaluate(math.pi / 2) == pytest.approx([1.0, 1.0])
        psi = LadderDesign(b, WIDE, np.array([0.0, math.pi / 2]), 0.0, np.ones(2)).psi
        assert psi[:, 1] == pytest.approx([1.0, 1.0])

    def test_qmle_recovers_plane_in_2d(self, rng):
        # radial boxcar window over a 2-d design, degree-1 total-degree basis
        b = Basis.polynomial(1, dim=2)
        pts = rng.uniform(-1.0, 1.0, size=(80, 2))
        x = np.array([0.1, -0.2])
        y = 0.7 + 1.5 * (pts[:, 0] - x[0]) - 2.0 * (pts[:, 1] - x[1])
        ladder = ScaleLadder((0.8,), kernel="boxcar")
        ld = LadderDesign(b, ladder, pts, x, np.ones(80))
        w = ld.weights_list[0]
        assert 0 < w.sum() < 80  # the window genuinely localizes
        theta = ld.fit(y)[0].theta
        assert theta == pytest.approx([0.7, 1.5, -2.0], abs=1e-10)
        oracle, _ = dense_wls(np.column_stack([np.ones(80), pts - x]), w, np.ones(80), y)
        assert theta == pytest.approx(oracle, abs=1e-10)
        curve = fit_curve(Dataset(x=pts, y=y, sigma=np.ones(80)), x[None], ladder, b, [])
        assert curve.theta_hat[0] == pytest.approx(oracle, abs=1e-10)


class TestBuildB:
    def test_constant_basis_sum(self):
        b = Basis.polynomial(0)
        pts = np.arange(5.0)
        ld = LadderDesign(b, ScaleLadder((10.0,), kernel="boxcar"), pts, 2.0, np.ones(5))
        assert ld.B_list[0] == pytest.approx(np.array([[5.0]]))

    def test_symmetric_three_points(self):
        b = Basis.polynomial(1)
        pts = np.array([-1.0, 0.0, 1.0])
        ld = LadderDesign(b, WIDE, pts, 0.0, np.ones(3))
        assert ld.B_list[0] == pytest.approx(np.array([[3.0, 0.0], [0.0, 2.0]]))

    def test_brute_force_accumulation(self, rng):
        # oracle: explicit triple loop over i, a, b, with the kernel's own weights
        n, p = 7, 3
        b = Basis.polynomial(p - 1)
        pts = rng.normal(size=n)
        sig = rng.uniform(0.5, 2.0, n)
        x = 0.3
        ld = LadderDesign(b, ScaleLadder((1.5,), kernel="truncated_gaussian"), pts, x, sig)
        w = ld.weights_list[0]
        assert np.all(w > 0) and np.ptp(w) > 0.1  # every point counts, with unequal weights
        expected = np.zeros((p, p))
        for i in range(n):
            psi_i = np.array([1.0, pts[i] - x, (pts[i] - x) ** 2 / 2.0])
            for a in range(p):
                for c in range(p):
                    expected[a, c] += psi_i[a] * psi_i[c] * w[i] / sig[i] ** 2
        assert ld.B_list[0] == pytest.approx(expected, rel=1e-12)
        assert ld.B_list[0] == pytest.approx(dense_wls(poly_design(pts, x, 2), w, sig, np.zeros(n))[1], rel=1e-12)

    def test_too_few_active_points(self):
        b = Basis.polynomial(2)
        pts = np.linspace(0, 1, 10)
        # the first window holds 2 points (1/3 and 4/9) < p = 3; the second holds all 10
        ladder = ScaleLadder((0.08, 1.0), kernel="boxcar")
        ld = LadderDesign(b, ladder, pts, 0.4, np.ones(10))
        assert np.count_nonzero(_weights(ladder, pts, 0.4)[0]) == 2
        assert ld.K_eff == 0 and ld.truncated_at == 1
        data = Dataset(x=pts, y=np.zeros(10), sigma=np.ones(10))
        curve = fit_curve(data, np.array([0.4]), ladder, b, [1.0])
        assert curve.k_eff.tolist() == curve.k_hat.tolist() == [0] and np.all(np.isnan(curve.theta_hat))

    def test_degenerate_design_rejected(self):
        b = Basis.polynomial(1)
        pts = np.full(6, 0.5)  # all points identical: no slope information
        ld = LadderDesign(b, ScaleLadder((1.0,), kernel="boxcar"), pts, 0.5, np.ones(6))
        assert ld.K_eff == 0 and ld.truncated_at == 1


class TestQmle:
    def test_exact_interpolation(self):
        b = Basis.polynomial(1)
        pts = np.linspace(-1, 1, 9)
        y = 2.0 + 3.0 * pts
        _, theta = _one_scale_fit(b, WIDE, pts, 0.0, np.ones(9), y)
        assert theta == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_zero_data(self):
        b = Basis.polynomial(2)
        pts = np.linspace(-1, 1, 9)
        _, theta = _one_scale_fit(b, WIDE, pts, 0.0, np.ones(9), np.zeros(9))
        assert theta == pytest.approx(np.zeros(3), abs=1e-15)

    def test_dense_inverse_oracle(self, rng):
        n, p = 25, 3
        b = Basis.polynomial(p - 1)
        pts = np.sort(rng.uniform(-1, 1, n))
        sig = rng.uniform(0.5, 2.0, n)
        y = rng.normal(size=n)
        x = 0.1
        ld, theta = _one_scale_fit(b, ScaleLadder((1.5,), kernel="epanechnikov"), pts, x, sig, y)
        w = ld.weights_list[0]
        assert np.all(w > 0) and np.ptp(w) > 0.1
        psi = poly_design(pts, x, p - 1).T
        B = (psi * (w / sig**2)) @ psi.T
        expected = np.linalg.inv(B) @ (psi @ (w / sig**2 * y))
        assert theta == pytest.approx(expected, rel=1e-10)
        assert theta == pytest.approx(dense_wls(psi.T, w, sig, y)[0], rel=1e-10)

    def test_linearity_in_y(self, rng):
        b = Basis.polynomial(1)
        pts = np.linspace(-1, 1, 15)
        sig = np.ones(15)
        y1, y2 = rng.normal(size=15), rng.normal(size=15)
        t1 = _one_scale_fit(b, WIDE, pts, 0.0, sig, y1)[1]
        t2 = _one_scale_fit(b, WIDE, pts, 0.0, sig, y2)[1]
        t12 = _one_scale_fit(b, WIDE, pts, 0.0, sig, 2.0 * y1 - 0.5 * y2)[1]
        assert t12 == pytest.approx(2.0 * t1 - 0.5 * t2, rel=1e-10, abs=1e-12)

    def test_shift_equivariance(self, rng):
        # adding a model-space shift moves the estimate by exactly that shift
        b = Basis.polynomial(2)
        pts = np.sort(rng.uniform(-1, 1, 30))
        sig = rng.uniform(0.5, 1.5, 30)
        y = rng.normal(size=30)
        theta = np.array([0.7, -1.2, 2.0])
        ladder = ScaleLadder((1.5,), kernel="epanechnikov")  # unequal weights
        ld, base = _one_scale_fit(b, ladder, pts, 0.0, sig, y)
        shifted = _one_scale_fit(b, ladder, pts, 0.0, sig, y + ld.psi.T @ theta)[1]
        assert shifted == pytest.approx(base + theta, abs=1e-9)


class TestPseudoTrue:
    def test_parametric_case_every_scale(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 3, n=50)
        theta = np.array([1.5, -0.8])
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        psi = ld.psi
        f = psi.T @ theta
        assert ld.K_eff == 3
        bars = ld.pseudo_true(f)
        for k in range(1, 4):
            assert bars[k - 1] == pytest.approx(theta, abs=1e-10)
            assert bars[k - 1] == pytest.approx(dense_wls(psi.T, ld.weights_list[k - 1], sigma, f)[0], abs=1e-10)

    def test_zero_function(self):
        b = Basis.polynomial(0)
        pts = np.linspace(-1, 1, 7)
        bar = LadderDesign(b, WIDE, pts, 0.0, np.ones(7)).pseudo_true(np.zeros(7))[0]
        assert bar == pytest.approx([0.0], abs=1e-15)

    def test_weighted_mean_oracle(self):
        # p = 1, symmetric boxcar over {-1, 0, 1}: theta_bar = sum f w / sum w
        b = Basis.polynomial(0)
        pts = np.array([-1.0, 0.0, 1.0])
        f = pts**2
        bar = LadderDesign(b, WIDE, pts, 0.0, np.ones(3)).pseudo_true(f)[0]
        assert bar == pytest.approx([2.0 / 3.0], rel=1e-14)

    def test_matches_qmle_on_noiseless(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 3, 2, n=40)
        f = np.sin(3 * pts)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        bar = ld.pseudo_true(f)[1]
        assert bar == pytest.approx(ld.fit(f)[1].theta)
        assert bar == pytest.approx(dense_wls(poly_design(pts, x, 2), ld.weights_list[1], sigma, f)[0])


class TestNoiseModel:
    def test_delta_computed(self):
        sig = np.ones(4)
        sig0 = np.sqrt(np.array([1.1, 0.95, 1.0, 1.05]))
        nm = NoiseModel(sigma_model=sig, sigma_true=sig0)
        assert nm.delta == pytest.approx(0.1, rel=1e-12)

    def test_declared_budget_enforced(self):
        sig = np.ones(3)
        sig0 = np.sqrt(np.array([1.3, 1.0, 1.0]))
        with pytest.raises(ParameterDomainError):
            NoiseModel(sigma_model=sig, sigma_true=sig0, delta=0.2)
        nm = NoiseModel(sigma_model=sig, sigma_true=sig0, delta=0.4)
        assert nm.delta == 0.4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterDomainError):
            NoiseModel(sigma_model=np.array([1.0, 0.0]))
        with pytest.raises(ParameterDomainError):
            NoiseModel(sigma_model=np.ones(3), sigma_true=2.0 * np.ones(3))  # delta = 3 >= 1


class TestLadderDesign:
    def test_monotone_information(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 4, n=60)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        for gamma in rng.normal(size=(10, basis.p)):
            vals = [gamma @ B @ gamma for B in ld.B_list]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))

    def test_growth_bounds_definition(self, rng):
        basis, ladder, pts, x, sigma = _random_boxcar_scene(rng, 2, 4, n=60)
        ld = LadderDesign(basis, ladder, pts, x, sigma)
        u0, u = ld.growth_bounds()
        assert 1.0 < u0 <= u
        # oracle: explicit similarity eigenvalues
        lo, hi = math.inf, 0.0
        for Bp, Bn in zip(ld.B_list[:-1], ld.B_list[1:]):
            vals_b, vecs = np.linalg.eigh(Bp)
            half = vecs @ np.diag(vals_b**-0.5) @ vecs.T
            sim = np.linalg.eigvalsh(half @ Bn @ half)
            lo = min(lo, sim[0])
            hi = max(hi, sim[-1])
        assert u0 == pytest.approx(lo, rel=1e-9)
        assert u == pytest.approx(hi, rel=1e-9)

    def test_truncates_at_first_bad_scale(self):
        basis = Basis.polynomial(1)
        pts = np.linspace(0.0, 1.0, 50)
        # first bandwidth too small to hold p = 2 points
        ladder = ScaleLadder((1e-6, 0.1, 0.2), kernel="boxcar")
        ld = LadderDesign(basis, ladder, pts, 0.5, np.ones(50))
        assert ld.K_eff == 0 and ld.truncated_at == 1

    def test_boxcar_variance_identity_exact(self, standard_ladder_design):
        # delta = 0 boxcar: Var theta_k = D_k Sigma D_k^T equals B_k^{-1} exactly
        ld = standard_ladder_design
        for D, B in zip(ld.D_list, ld.B_list):
            V = (D * ld.sigma_model**2) @ D.T
            assert np.max(np.abs(V - np.linalg.inv(B))) < 1e-12

    def test_variance_matches_monte_carlo(self, standard_ladder_design, rng):
        # delta = 0 boxcar: Var(theta_k) = B_k^{-1}; check within 5 SE
        ld = standard_ladder_design
        n = ld.points.shape[0]
        reps = 4000
        eps = rng.standard_normal((reps, n))
        for k in (1, ld.K_eff):
            draws = eps @ ld.D_list[k - 1].T
            var = float(np.var(draws[:, 0], ddof=1))
            target = 1.0 / ld.B_list[k - 1][0, 0]
            se = target * math.sqrt(2.0 / reps)
            assert abs(var - target) <= 5.0 * se

    def test_fit_stacked_matches_fit(self, standard_ladder_design, rng):
        ld = standard_ladder_design
        Y = rng.normal(size=(3, ld.points.shape[0]))
        stacked = ld.fit_stacked(Y)
        for i in range(3):
            fits = ld.fit(Y[i])
            for k, fit in enumerate(fits):
                assert stacked[i, k] == pytest.approx(fit.theta)
