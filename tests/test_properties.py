"""Property tests of the chunked curve fit and the shared selection sweep.

fit_curve builds grid points in stacked chunks; each point's result must be
the one-point fit bit for bit, whatever else is in its chunk and in whatever
order the grid comes.  The selection sweep shared by single points and by
Monte-Carlo ensembles must follow the literal rule: stop at the first m with
a pair T_lm > z_l, accepting on equality.  pair_statistics, the one place a
pairwise form is computed, must be the written-out double sum in both
triangles, for any batch, and the ensembles' gathers from its table must
equal the loops over scales they replace.  mc_calibrate draws its noise in
window coordinates, so design points outside the largest window leave its
thresholds unchanged.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lpadapt.fll_selector as fll
import lpadapt.sim_harness as sim_harness
from lpadapt.calibration import CriticalValues, SelectionEnsemble, mc_calibrate
from lpadapt.dataset import Dataset
from lpadapt.fll_selector import fit_curve, pair_statistics, select_adaptive, selection_sweep
from lpadapt.local_model import (
    KERNEL_RADIUS,
    KERNELS,
    Basis,
    LadderDesign,
    LocalFit,
    ScaleLadder,
    default_h1,
)
from lpadapt.sim_harness import Scene, SigmaSpec, risk_experiment

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def curve_problems(draw):
    """A random design (1-D or 2-D, sorted or shuffled, heteroscedastic), ladder, thresholds and grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2]))
    degree = draw(st.integers(0, 2))
    n = draw(st.integers(8, 160))
    x = rng.uniform(0.0, 1.0, (n, d))
    if draw(st.booleans()):
        x = x[np.argsort(x[:, 0], kind="stable")]
    sigma = rng.uniform(0.05, 1.0, n)
    y = np.sin(4.0 * x[:, 0]) + (x[:, -1] > 0.6) + sigma * rng.standard_normal(n)
    kernel = draw(st.sampled_from(KERNELS))
    K = draw(st.integers(1, 5))
    h1 = draw(st.floats(0.02, 0.25)) / KERNEL_RADIUS[kernel] * (2.0 if d == 2 else 1.0)
    ladder = ScaleLadder.geometric(h1, K, growth=draw(st.floats(1.2, 2.0)), kernel=kernel)
    z = rng.uniform(0.05, 8.0, max(K - 1, 0))
    # longer than the chunk in some draws; points beyond the data give empty or short slabs
    G = draw(st.sampled_from([1, 7, fll._CHUNK + 9]))
    grid = rng.uniform(-0.2, 1.2, (G, d))
    grid[: G // 3] = x[rng.integers(0, n, G // 3)]  # some points on observations
    data = Dataset(x=x[:, 0] if d == 1 else x, y=y, sigma=sigma)
    return data, grid[:, 0] if d == 1 else grid, ladder, Basis.polynomial(degree, dim=d), z


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


#: the (G, ...) arrays of a CurveFit; T is (K, K, G)
ROWS = ("x", "k_eff", "k_hat", "first", "theta_hat", "fitted_values")


def assert_same_point(a, i, b, j):
    """Point i of curve a and point j of curve b agree bit for bit, NaN for NaN."""
    for name in ROWS:
        assert same(getattr(a, name)[i], getattr(b, name)[j]), name
    assert same(a.T[..., i], b.T[..., j])


@SETTINGS
@given(curve_problems(), st.sampled_from([1, 2, 5, fll._CHUNK]))
def test_curve_rows_equal_one_point_fits(problem, chunk):
    data, grid, ladder, basis, z = problem
    with mock.patch.object(fll, "_CHUNK", chunk):  # chunk boundaries inside groups of equal slab width
        curve = fit_curve(data, grid, ladder, basis, z)
    assert curve.k_eff.shape == (len(grid),) and np.all(curve.k_eff <= ladder.K)
    for i, x in enumerate(grid):
        assert_same_point(curve, i, fit_curve(data, [x], ladder, basis, z), 0)
    ok = curve.k_eff > 0
    assert np.all((1 <= curve.k_hat[ok]) & (curve.k_hat[ok] <= curve.k_eff[ok])) and np.all(curve.k_hat[~ok] == 0)


@SETTINGS
@given(curve_problems(), st.integers(0, 2**32 - 1))
def test_permuting_the_grid_permutes_the_output(problem, seed):
    data, grid, ladder, basis, z = problem
    perm = np.random.default_rng(seed).permutation(len(grid))
    curve = fit_curve(data, grid, ladder, basis, z)
    permuted = fit_curve(data, grid[perm], ladder, basis, z)
    for i, j in enumerate(perm):
        assert_same_point(permuted, i, curve, j)


@SETTINGS
@given(curve_problems(), st.integers(0, 2**32 - 1))
def test_permuting_the_data_rows_changes_nothing(problem, seed):
    """fit_curve sorts the data once by the first coordinate, so without ties the row order is lost bit for bit."""
    data, grid, ladder, basis, z = problem
    key = data.x if data.d == 1 else data.x[:, 0]
    assume(np.unique(key).size == data.n)
    perm = np.random.default_rng(seed).permutation(data.n)
    shuffled = Dataset(x=data.x[perm], y=data.y[perm], sigma=data.sigma[perm])
    curve, again = fit_curve(data, grid, ladder, basis, z), fit_curve(shuffled, grid, ladder, basis, z)
    for name in ROWS + ("T",):
        assert same(getattr(curve, name), getattr(again, name)), name


@SETTINGS
@given(curve_problems(), st.integers(-20, 20))
def test_scaling_y_and_sigma_scales_theta_only(problem, j):
    """y and sigma times c = 2**j: theta times c exactly, the same k_hat and T (a power of two scales exactly)."""
    data, grid, ladder, basis, z = problem
    c = 2.0**j
    curve = fit_curve(data, grid, ladder, basis, z)
    scaled = fit_curve(Dataset(x=data.x, y=c * data.y, sigma=c * data.sigma), grid, ladder, basis, z)
    for name in ("k_eff", "k_hat", "first", "T"):
        assert same(getattr(curve, name), getattr(scaled, name)), name
    for name in ("theta_hat", "fitted_values"):
        assert same(c * getattr(curve, name), getattr(scaled, name)), name


def literal_rule(T, z, K):
    """The selection rule as written: (k_hat, first violated (l, m) or None) for one (K, K) table."""
    for m in range(2, K + 1):
        for l in range(1, m):
            if T[l - 1, m - 1] > z[l - 1]:
                return m - 1, (l, m)
    return K, None


@st.composite
def tables(draw):
    """(K, K, N) statistics with NaN beyond each column's ladder, thresholds hit exactly by some entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, N = draw(st.integers(1, 7)), draw(st.integers(1, 40))
    T = rng.choice([0.0, 1.0, 2.0, 4.0], (K, K, N)) * rng.uniform(0.5, 1.5, (1, 1, N))
    T[np.tril_indices(K)] = np.nan
    z = rng.choice([1.0, 2.0, 4.0], max(K - 1, 0))
    ties = rng.random((K, K, N)) < 0.3  # T == z_l exactly
    T = np.where(ties & ~np.isnan(T), np.append(z, 0.0)[:, None, None], T)
    k_eff = rng.integers(1, K + 1, N)
    scale = np.arange(K)
    T[(scale[:, None, None] >= k_eff) | (scale[:, None] >= k_eff)] = np.nan
    return T, z, k_eff


@SETTINGS
@given(tables())
def test_sweep_follows_the_literal_rule(table):
    T, z, k_eff = table
    k_hat, first = selection_sweep(T, z, k_eff)
    for i in range(T.shape[-1]):
        expected_k, expected_first = literal_rule(T[:, :, i], z, int(k_eff[i]))
        assert k_hat[i] == expected_k
        assert (tuple(first[i]) if first[i, 1] else None) == expected_first


def double_sum(d, B):
    """max(d^T B d, 0) written out: the sum of d_i B_ij d_j over i, then j, from 0."""
    acc = 0.0
    for i in range(len(d)):
        for j in range(len(d)):
            acc += d[i] * B[i, j] * d[j]
    return max(acc, 0.0)


@st.composite
def fit_batches(draw):
    """Fits (N, K, p) from a few values, so equal fits and zero differences occur, and B (N or 1, K, p, p).

    Some B are indefinite, so negative forms reach the clamp at 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N, K, p = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 6]))
    theta = rng.choice([-1.0, 0.0, 0.5, 1.0], (N, K, p)) * rng.choice([1.0, 1e-3, 7.0], (N, 1, 1))
    A = rng.standard_normal((N, K, p, p))
    B = A @ A.swapaxes(-1, -2) + (np.eye(p) if draw(st.booleans()) else -0.5 * p * np.eye(p))
    return theta, B[:1] if draw(st.booleans()) else B


@SETTINGS
@given(fit_batches())
def test_pair_statistics_is_the_double_sum_in_both_triangles(batch):
    theta, B = batch
    N, K, _ = theta.shape
    T = pair_statistics(theta, B)
    assert T.shape == (K, K, N)
    for g in range(N):
        Bg = B[g % B.shape[0]]
        for l in range(K):
            assert np.isnan(T[l, l, g])
            for m in range(K):
                if l != m:
                    assert T[l, m, g] == double_sum(theta[g, l] - theta[g, m], Bg[l])


@SETTINGS
@given(fit_batches())
def test_pair_statistics_of_a_batch_are_those_of_its_items(batch):
    theta, B = batch
    T = pair_statistics(theta, B)
    for g in range(theta.shape[0]):
        one = pair_statistics(theta[g : g + 1], B if B.shape[0] == 1 else B[g : g + 1])
        assert same(T[..., g : g + 1], one)


def scale_loop_gap_forms(ens, khat):
    """SelectionEnsemble.gap_forms as a loop over the scales, reading the lower triangle of T."""
    vals = np.zeros((ens.K, ens.mc))
    for k in range(2, ens.K + 1):
        mstep = np.minimum(k, khat)
        for m in range(1, k):
            idx = mstep == m
            if np.any(idx):
                vals[k - 1, idx] = ens.T[k - 1, m - 1, idx]
    return vals


def scale_loop_oracle_gaps(T, khat, k_star):
    """risk_experiment's oracle comparison as a loop over the selected scales: B from k_star, in either triangle."""
    vals = np.zeros(khat.size)
    for m in range(1, T.shape[0] + 1):
        idx = khat == m
        if np.any(idx) and m != k_star:
            vals[idx] = T[k_star - 1, m - 1, idx]
    return vals


@st.composite
def risk_scenes(draw):
    n = draw(st.integers(60, 200))
    degree = draw(st.integers(0, 1))
    scene = Scene(f=draw(st.sampled_from(["jump", "kink", "sin_bump"])), n=n, sigma_model=SigmaSpec("constant", 0.25),
                  sigma_true=SigmaSpec("sine", 0.25, 0.1), seed=draw(st.integers(0, 1000)))
    ladder = ScaleLadder.geometric(default_h1(n, degree + 1), draw(st.integers(2, 5)), growth=draw(st.floats(1.3, 1.8)))
    return scene, ladder, Basis.polynomial(degree), draw(st.floats(0.3, 0.7)), draw(st.sampled_from([0.01, 1.0, 1e6]))


@SETTINGS
@given(risk_scenes(), st.integers(0, 2**32 - 1))
def test_gathers_equal_the_scale_loops(problem, seed):
    scene, ladder, basis, x, budget = problem
    ld = LadderDesign(basis, ladder, scene.design_points(), x, scene.sigma_model_values())
    reps, r = 80, 0.5
    ens = SelectionEnsemble.draw(ld, reps, scene.seed, scene.sigma_true_values(), mean=scene.f_values())
    upper = ens.T[np.triu_indices(ens.K, 1)].ravel()
    # realised statistics as thresholds: ties for some replicates
    z = np.random.default_rng(seed).choice(upper[upper > 0], ens.K - 1)
    khat = ens.k_hat(z)
    assert same(ens.gap_forms(z), scale_loop_gap_forms(ens, khat))

    cv = CriticalValues(z=tuple(z.tolist()), method="fixed", alpha=1.0, r=r, p=basis.p, K=ens.K)
    rows = {}
    with mock.patch.object(sim_harness, "_moment_row", wraps=sim_harness._moment_row) as spy:
        table = risk_experiment(scene, ladder, basis, cv, r, reps, x=x, delta_budget=budget)
        for call in spy.call_args_list:
            rows[call.args[2]] = call.args[3]
    expected = scale_loop_oracle_gaps(ens.T, khat, table.meta["k_star"]) ** (r / 2.0)
    assert same(rows["oracle_gap_pow_r2"], expected)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_select_adaptive_is_the_sweep_on_one_column(seed, K, p):
    rng = np.random.default_rng(seed)
    thetas = rng.choice([-1.0, 0.0, 0.5, 1.0], (K, p))
    A = rng.standard_normal((p, p))
    fits = [LocalFit(theta=t, B=A @ A.T + np.eye(p), k=k + 1) for k, t in enumerate(thetas)]
    T = select_adaptive(fits, np.full(max(K - 1, 0), np.inf)).statistics
    # thresholds equal to realised statistics, so T == z ties occur
    pool = np.append(T[np.triu_indices(K, 1)], [0.5, 2.0])
    z = rng.choice(pool, max(K - 1, 0))
    trace = select_adaptive(fits, z)
    assert (trace.k_hat, trace.first_violation) == literal_rule(trace.statistics, z, K)
    for l, m in zip(*np.nonzero(~np.eye(K, dtype=bool))):
        assert trace.statistics[l, m] == double_sum(fits[l].theta - fits[m].theta, fits[l].B)  # bit for bit


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_ensemble_selection_is_the_literal_rule(seed, degree):
    n = 120
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(0.0, 1.0, n))
    sigma = rng.uniform(0.2, 1.0, n)
    ld = LadderDesign(Basis.polynomial(degree), ScaleLadder.geometric(0.06, 4, growth=1.5), points, 0.5, sigma)
    ens = SelectionEnsemble.pure_noise(ld, 60, seed % 1000)
    T = ens.T
    z = rng.choice(T[np.triu_indices(ens.K, 1)].ravel(), ens.K - 1)  # realised statistics: ties for some replicates
    k_hat = ens.k_hat(z)
    assert [literal_rule(T[:, :, j], z, ens.K)[0] for j in range(ens.mc)] == k_hat.tolist()


def test_tie_cases_from_the_selector_suite():
    unit = np.eye(1)
    tie = [LocalFit(theta=np.array([0.0]), B=unit, k=1), LocalFit(theta=np.array([2.0]), B=unit, k=2)]  # T = 4
    assert select_adaptive(tie, np.array([4.0])).k_hat == 2
    assert select_adaptive(tie, np.array([3.999])).first_violation == (1, 2)
    T = np.array([[np.nan, 4.0], [np.nan, np.nan]])[..., None]
    assert selection_sweep(T, [4.0])[0].tolist() == [2]
    assert selection_sweep(T, [np.nextafter(4.0, 0.0)])[1].tolist() == [[1, 2]]


@st.composite
def calibration_problems(draw):
    """A 1-D design and a calibration whose thresholds depend on the noise (small alpha and r)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(80, 300))
    points = rng.uniform(0.0, 1.0, n)
    if draw(st.booleans()):
        points = np.sort(points)
    sigma = rng.uniform(0.2, 1.0, n)
    kernel = draw(st.sampled_from(KERNELS))
    degree = draw(st.integers(0, 1))
    h1 = 4.0 * default_h1(n, degree + 1) / KERNEL_RADIUS[kernel]
    ladder = ScaleLadder.geometric(h1, draw(st.integers(3, 5)), growth=draw(st.floats(1.25, 1.6)), kernel=kernel)
    return Basis.polynomial(degree), ladder, points, sigma, draw(st.sampled_from([0.05, 0.1, 0.2]))


@SETTINGS
@given(calibration_problems(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_points_outside_the_window_leave_the_calibration_unchanged(problem, m, seed):
    basis, ladder, points, sigma, alpha = problem
    rng = np.random.default_rng(seed)
    # m far points at random indices, so some come before the window and shift its design indices
    at = rng.integers(0, points.size + 1, m)
    more_points = np.insert(points, at, rng.uniform(-12.0, -10.0, m))
    more_sigma = np.insert(sigma, at, rng.uniform(0.2, 1.0, m))
    calibration = (0.5, alpha, 0.1, 1000, seed)
    want = mc_calibrate(basis, ladder, sigma, points, *calibration)
    assert mc_calibrate(basis, ladder, more_sigma, more_points, *calibration).z == want.z
