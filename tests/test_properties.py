"""Property tests of the chunked curve fit and the shared selection sweep.

fit_curve builds grid points in stacked chunks; each point's result must be
the one-point fit bit for bit, whatever else is in its chunk and in whatever
order the grid comes.  The selection sweep shared by single points and by
Monte-Carlo ensembles must follow the literal rule: stop at the first m with
a pair T_lm > z_l, accepting on equality.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lpadapt.fll_selector as fll
from lpadapt.calibration import SelectionEnsemble
from lpadapt.dataset import Dataset
from lpadapt.fll_selector import fit_curve, fit_point, select_adaptive, selection_sweep
from lpadapt.local_model import KERNEL_RADIUS, KERNELS, Basis, LadderDesign, LocalFit, NoiseModel, ScaleLadder

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


def assert_same_point(a, b):
    assert a.k_eff == b.k_eff and a.error == b.error and same(a.x, b.x)
    if not a.ok:
        return
    ea, eb, ta, tb = a.estimate, b.estimate, a.trace, b.trace
    assert ea.k_hat == eb.k_hat and ta.first_violation == tb.first_violation
    assert same(ea.theta_hat, eb.theta_hat) and same(ea.stepwise, eb.stepwise)
    assert same(ta.statistics, tb.statistics) and same(ta.thresholds, tb.thresholds)
    assert ea.fitted_value == eb.fitted_value


@SETTINGS
@given(curve_problems(), st.sampled_from([1, 2, 5, fll._CHUNK]))
def test_curve_rows_equal_one_point_fits(problem, chunk):
    data, grid, ladder, basis, z = problem
    noise = NoiseModel(sigma_model=data.sigma)
    with mock.patch.object(fll, "_CHUNK", chunk):  # chunk boundaries inside groups of equal slab width
        curve = fit_curve(data, grid, ladder, basis, noise, z)
    assert len(curve) == len(grid)
    for i, x in enumerate(grid):
        pf = curve[i]
        assert_same_point(pf, fit_point(data, x, ladder, basis, noise, z))
        assert pf.k_eff == curve.k_eff[i] <= ladder.K
        if pf.ok:
            assert 1 <= pf.estimate.k_hat <= pf.k_eff
            assert pf.estimate.fitted_value == curve.fitted_values[i]
            assert same(pf.estimate.theta_hat, curve.theta_hat[i])


@SETTINGS
@given(curve_problems(), st.integers(0, 2**32 - 1))
def test_permuting_the_grid_permutes_the_output(problem, seed):
    data, grid, ladder, basis, z = problem
    noise = NoiseModel(sigma_model=data.sigma)
    perm = np.random.default_rng(seed).permutation(len(grid))
    curve = fit_curve(data, grid, ladder, basis, noise, z)
    permuted = fit_curve(data, grid[perm], ladder, basis, noise, z)
    for i, j in enumerate(perm):
        assert_same_point(permuted[i], curve[j])


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


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 3))
def test_select_adaptive_is_the_sweep_on_one_column(seed, K, p):
    rng = np.random.default_rng(seed)
    thetas = rng.choice([-1.0, 0.0, 0.5, 1.0], (K, p))
    A = rng.standard_normal((p, p))
    fits = [LocalFit(theta=t, B=A @ A.T + np.eye(p), k=k + 1) for k, t in enumerate(thetas)]
    T = select_adaptive(fits, np.full(max(K - 1, 0), np.inf)).statistics
    # thresholds equal to realised statistics, so T == z ties occur
    pool = np.append(T[~np.isnan(T)], [0.5, 2.0])
    z = rng.choice(pool, max(K - 1, 0))
    trace = select_adaptive(fits, z)
    assert (trace.k_hat, trace.first_violation) == literal_rule(trace.statistics, z, K)
    for l, m in zip(*np.triu_indices(K, 1)):
        d = fits[l].theta - fits[m].theta
        assert trace.statistics[l, m] == max(float(d @ fits[l].B @ d), 0.0)  # the stacked forms, bit for bit


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_ensemble_selection_is_the_literal_rule(seed, degree):
    n = 120
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(0.0, 1.0, n))
    sigma = rng.uniform(0.2, 1.0, n)
    ld = LadderDesign(Basis.polynomial(degree), ScaleLadder.geometric(0.06, 4, growth=1.5), points, 0.5, sigma)
    ens = SelectionEnsemble.pure_noise(ld, 60, seed % 1000)
    T = ens.T_small
    z = rng.choice(T[~np.isnan(T)], ens.K - 1)  # realised statistics: ties for some replicates
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
