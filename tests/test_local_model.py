import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigvalsh as scipy_eigvalsh

from lpadapt import local_model as lm
from lpadapt.calibration import mc_calibrate
from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError
from lpadapt.fll_selector import fit_curve
from lpadapt.local_model import (
    MIN_EIG_RATIO,
    SIGMA_MIN,
    Basis,
    LadderDesign,
    ScaleLadder,
    check_noise,
    default_h1,
    is_nested_binary,
    stacked_designs,
    stacked_solve,
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
        for bandwidths in ((0.1, math.inf), (math.nan, 0.2), (0.1, math.nan)):
            with pytest.raises(ParameterDomainError, match="finite"):
                ScaleLadder(bandwidths)
        for h1, growth in ((math.nan, 1.5), (0.1, math.nan), (0.1, math.inf)):
            with pytest.raises(ParameterDomainError, match="finite"):
                ScaleLadder.geometric(h1, 3, growth=growth)


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
        assert check_noise(sig, sig0) == pytest.approx(0.1, rel=1e-12)

    def test_declared_budget_enforced(self):
        sig = np.ones(3)
        sig0 = np.sqrt(np.array([1.3, 1.0, 1.0]))
        with pytest.raises(ParameterDomainError):
            check_noise(sig, sig0, declared=0.2)
        assert check_noise(sig, sig0, declared=0.4) == 0.4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterDomainError):
            check_noise(np.array([1.0, 0.0]))
        with pytest.raises(ParameterDomainError, match="sigma_model must be positive and finite"):
            check_noise(np.array([1.0, np.nan]))
        with pytest.raises(ParameterDomainError):
            check_noise(np.ones(3), 2.0 * np.ones(3))  # delta = 3 >= 1


@pytest.mark.parametrize("tiny", [1e-200, 1e-160], ids=["square_zero", "inverse_square_inf"])
def test_sigma_whose_square_underflows_is_named(tiny):
    """One sigma whose square underflows is rejected, before any weight is formed, by every entry point.

    At 1e-200 sigma^2 is 0; at 1e-160 it is subnormal and 1 / sigma^2
    overflows.  Under errstate(all="raise") a weight formed first would
    raise FloatingPointError instead.
    """
    x = np.linspace(0.0, 1.0, 40)
    sigma = np.full(40, 0.1)
    sigma[17] = tiny
    basis, ladder = Basis.polynomial(1), ScaleLadder.geometric(0.1, 3)
    calls = [
        lambda: fit_curve(Dataset(x=x, y=np.sin(x), sigma=sigma), x, ladder, basis, [4.0, 4.0]),
        lambda: LadderDesign(basis, ladder, x, 0.45, sigma),
        lambda: mc_calibrate(basis, ladder, sigma, x, 0.45, 1.0, 0.5, 1000, 0),
        lambda: check_noise(sigma),
    ]
    for call in calls:
        with np.errstate(all="raise"), pytest.raises(ParameterDomainError, match=r"^sigma(_model)? must be positive"):
            call()
    sigma[17] = SIGMA_MIN  # its square is the smallest normal float
    with np.errstate(all="raise"):
        assert check_noise(sigma) == 0.0


class TestLadderDesign:
    def test_k_eff_is_the_smaller_of_pivot_and_gate_counts(self, monkeypatch):
        """K_eff = min(pivot count, gate count); the pivots bind at x = 0.2 and the gate at x = 0.5.

        A B_k that passes the gate has positive pivots, so stacked_solve is
        given a negative-pivot matrix at scale 4 while the gate sees the
        design's own B.  A point of weight 1e14 at 0.56 makes B_3 at x = 0.5
        nearly rank one, and the gate stops there after 2 scales.
        """
        basis, ladder = Basis.polynomial(1), ScaleLadder.geometric(0.03, 6, growth=1.5)
        pts, sigma = np.linspace(0.0, 1.0, 101), np.ones(101)
        sigma[56] = 1e-7
        solve = lm.stacked_solve

        def planted(B, PW):
            B = B.copy()
            B[:, 3] = _bad_matrix("negative", 2)
            return solve(B, PW)

        monkeypatch.setattr(lm, "stacked_solve", planted)
        counts = []
        for x in (0.2, 0.5):
            _, _, PW, B, active = stacked_designs(basis, ladder, pts[None, :, None], np.array([[x]]), sigma[None])
            ld = LadderDesign(basis, ladder, pts, x, sigma)
            counts.append((int(lm.gate_count(B, active, 2)[0]), int(planted(B, PW)[1][0]), ld.K_eff, ld.truncated_at))
        assert counts == [(6, 3, 3, 4), (2, 3, 2, 3)]

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

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_generalized_eigvalsh_matches_scipy(self, rng, p):
        for _ in range(20):
            G, H = rng.normal(size=(2, p, p))
            A, B = G @ G.T, H @ H.T + p * np.eye(p)
            ref = scipy_eigvalsh(A, B)
            assert np.all(np.abs(lm.generalized_eigvalsh(A, B) - ref) <= 1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "B"])
    def test_generalized_eigvalsh_rejects_non_finite(self, where, bad, entry):
        # LAPACK would return NaN eigenvalues, or read past an upper-triangle entry of B
        A, B = np.eye(2), np.eye(2)
        (A if where == "A" else B)[entry] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            lm.generalized_eigvalsh(A, B)

    def test_generalized_eigvalsh_rejects_indefinite_B(self):
        with pytest.raises(np.linalg.LinAlgError):
            lm.generalized_eigvalsh(np.eye(2), np.diag([1.0, -1.0]))

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


def _spd_stack(rng, p, size):
    """(size, p, p) SPD matrices and (size, p, 30) right-hand sides.

    Half are random Gram matrices; half are weighted polynomial designs on
    offsets in units of 1e-3, whose B spans up to 30 orders of magnitude.
    """
    B, PW = [], []
    basis = Basis.polynomial(p - 1)
    for i in range(size):
        if i % 2:
            u = np.sort(rng.uniform(-1.0, 1.0, 30)) * 1e-3
            psi = basis._evaluate(u[:, None])
            rhs = psi * rng.uniform(0.1, 1.0, 30)
            b = rhs @ psi.T
        else:
            a = rng.standard_normal((p, p + 3))
            b, rhs = a @ a.T, rng.standard_normal((p, 30))
        B.append(0.5 * (b + b.T))
        PW.append(rhs)
    return np.array(B), np.array(PW)


def _bad_matrix(kind, p):
    """A symmetric (p, p) matrix whose last Cholesky pivot is NaN, zero or negative."""
    b = np.eye(p)
    if kind == "nan":
        b[-1, 0] = b[0, -1] = np.nan
    elif kind == "zero":
        b[-1, -1] = 0.0
    elif p == 1:
        b[0, 0] = -1.0
    else:  # positive diagonal, last pivot 1 - 2^2
        b[-1, 0] = b[0, -1] = 2.0
    return b


def _cho_fails(b):
    try:
        cho_factor(b, lower=True)
    except (LinAlgError, ValueError):
        return True
    return False


class TestStackedSolve:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_scipy_cholesky_slice_by_slice(self, rng, p):
        B, PW = _spd_stack(rng, p, 24)
        D, pivots = stacked_solve(B.reshape(4, 6, p, p), PW.reshape(4, 6, p, 30))
        assert pivots.tolist() == [6] * 4
        assert all(d.flags.f_contiguous for d in D.reshape(24, p, 30))  # as LAPACK's potrs leaves it
        for b, pw, d in zip(B, PW, D.reshape(24, p, 30)):
            ref = cho_solve(cho_factor(b, lower=True), pw)
            # each row of D relative to its largest entry: row j carries the scale of 1 / u^j
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(d - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_flags_exactly_where_cho_factor_raises(self, rng, p):
        B, PW = _spd_stack(rng, p, 12)
        kinds = ["nan", "zero", "negative"]
        for i, kind in enumerate(kinds):
            B[3 * i + 1] = _bad_matrix(kind, p)
        raises = np.array([_cho_fails(b) for b in B])
        assert raises.sum() == 3
        _, pivots = stacked_solve(B[:, None], PW[:, None])
        assert np.array_equal(pivots == 0, raises)

    @pytest.mark.parametrize("kind", ["nan", "zero", "negative"])
    def test_bad_slice_leaves_its_neighbours_bit_identical(self, rng, kind):
        p = 3
        B, PW = _spd_stack(rng, p, 20)
        clean, clean_pivots = stacked_solve(B.reshape(4, 5, p, p), PW.reshape(4, 5, p, 30))
        B[7] = _bad_matrix(kind, p)  # ladder 1, scale 2
        D, pivots = stacked_solve(B.reshape(4, 5, p, p), PW.reshape(4, 5, p, 30))
        assert pivots.tolist() == [5, 2, 5, 5] and clean_pivots.tolist() == [5] * 4
        keep = np.ones((4, 5), dtype=bool)
        keep[1, 2] = False
        assert np.array_equal(D[keep], clean[keep])


def _plain_gate(B, active, p):
    """The conditioning gate with every scale decided by eigvalsh, as before the Gershgorin accept."""
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    s = 1.0 / np.sqrt(np.where(diag > 0, diag, np.inf))
    eigs = _EIGVALSH(s[..., :, None] * B * s[..., None, :])
    return (active >= p) & (eigs[..., 0] > MIN_EIG_RATIO * np.maximum(eigs[..., -1], 0.0))


_EIGVALSH = np.linalg.eigvalsh


def _with_ratio(rng, p, ratio):
    """A p x p information matrix whose Jacobi-scaled form has eigenvalues 1 - rho, 1 (p - 2 times), 1 + rho.

    lambda_min / lambda_max = ratio, and Gershgorin's discs bound the
    spectrum exactly.  Rows and columns are permuted and scaled by random
    powers of ten, which the Jacobi scaling removes.
    """
    rho = (1.0 - ratio) / (1.0 + ratio) * rng.choice([-1.0, 1.0])
    S = np.eye(p)
    S[0, 1] = S[1, 0] = rho
    perm = rng.permutation(p)
    scale = 10.0 ** rng.uniform(-4.0, 4.0, p)
    return scale[:, None] * S[np.ix_(perm, perm)] * scale[None, :]


class TestGershgorinAccept:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_same_decisions_as_eigvalsh_at_the_threshold(self, rng, monkeypatch, p):
        fast = MIN_EIG_RATIO + lm._GATE_MARGIN * p  # the Gershgorin accept needs lo / hi above this
        v = 10.0 ** rng.uniform(-3.0, 3.0, p)
        A = rng.standard_normal((p, p - 1)) * v[:, None]
        zero_row = _with_ratio(rng, p, 0.5)
        zero_row[0, :] = zero_row[:, 0] = 0.0
        cases = [  # (B, active, passes, decided by eigvalsh)
            (_with_ratio(rng, p, 0.5), p, True, False),
            (_with_ratio(rng, p, 1e-3), p, True, False),
            (_with_ratio(rng, p, fast * (1.0 + 1e-3)), p, True, False),
            (_with_ratio(rng, p, fast * (1.0 - 1e-3)), p, True, True),
            (_with_ratio(rng, p, MIN_EIG_RATIO * (1.0 + 1e-3)), p, True, True),
            (_with_ratio(rng, p, MIN_EIG_RATIO * (1.0 - 1e-3)), p, False, True),
            (_with_ratio(rng, p, 1e-14), p, False, True),
            (np.outer(v, v), p, False, True),  # exactly singular, positive diagonal
            (A @ A.T, p, False, True),  # rank p - 1
            (zero_row, p, False, True),
            (_with_ratio(rng, p, 0.5), p - 1, False, False),  # too few active points
        ]
        B = np.stack([c[0] for c in cases])[None]
        active = np.array([[c[1] for c in cases]])
        seen = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: seen.append(len(S)) or _EIGVALSH(S))
        passed = lm._conditioned(B, active, p)
        assert passed[0].tolist() == [c[2] for c in cases]
        assert np.array_equal(passed, _plain_gate(B, active, p))
        assert seen == [sum(c[3] for c in cases)]

    def test_well_conditioned_stack_makes_no_eigenvalue_call(self, rng, monkeypatch):
        B = np.stack([[_with_ratio(rng, 3, r) for r in (0.9, 0.1, 1e-4)] for _ in range(8)])
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda S: pytest.fail("eigvalsh called"))
        assert lm._conditioned(B, np.full((8, 3), 10), 3).all()

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_designs_gate_alike(self, rng, degree):
        """The gate of stacked_designs on real windows, a duplicated point included, against eigvalsh alone."""
        basis = Basis.polynomial(degree)
        pts = np.sort(rng.uniform(0.0, 1.0, 60))
        pts[30:34] = pts[30]  # a cluster of equal points: small windows there are singular
        ladder = ScaleLadder.geometric(0.002, 6, growth=2.0)
        centres = pts[::3, None]
        points = np.broadcast_to(pts[None, :, None], (len(centres), 60, 1))
        _, W, _, B, active = stacked_designs(basis, ladder, points, centres, np.ones((len(centres), 60)))
        assert np.array_equal(active, np.count_nonzero(W > 0, axis=-1))
        k_gate = lm.gate_count(B, active, basis.p)
        plain = _plain_gate(B, active, basis.p)
        assert np.array_equal(k_gate, np.where(plain.all(axis=-1), ladder.K, plain.argmin(axis=-1)))
        assert 0 < np.count_nonzero(k_gate < ladder.K)
