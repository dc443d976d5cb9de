"""fit_curve fits each point on the observations of its largest window only.

The windowed fits are compared with the same fits built over all n
observations, and structural checks bound the slab of every design that
fit_curve builds and the memory of a whole curve, so a regression to O(n)
work per point or to whole-grid stacks fails without any timing.
"""

from pathlib import Path

import numpy as np
import pytest

import lpadapt.fll_selector as fll
import lpadapt.local_model as lm
from lpadapt.dataset import Dataset
from lpadapt.fll_selector import adaptive_estimate, fit_curve, select_adaptive
from lpadapt.local_model import (
    KERNELS,
    Basis,
    LadderDesign,
    ScaleLadder,
    kernel_profile,
    stacked_designs,
    stacked_solve,
)
from lpadapt.sim_harness import Scene, SigmaSpec, generate

FIT_DENSE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "fit_dense.csv.gz"

Z = np.full(3, 3.0)  # low enough that some points stop early


def full_n_fit(data, x, ladder, basis, sigma, z):
    """(k_hat, k_eff, theta) from one LadderDesign over all n observations; k_hat 0 if none usable."""
    ld = LadderDesign(basis, ladder, data.x, x, sigma)
    if ld.K_eff == 0:
        return 0, 0, None
    fits = ld.fit(data.y)
    est = adaptive_estimate(fits, select_adaptive(fits, z))
    return est.k_hat, ld.K_eff, est.theta_hat


def one_d_scene(seed, n=600):
    """Uniform design on [0, 0.45] and [0.55, 1]: a gap wider than every window."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 2 * n)
    x = np.sort(x[(x < 0.45) | (x > 0.55)][:n])
    sigma = 0.1 + 0.2 * x
    y = np.sin(6.0 * x) + (x > 0.7) + sigma * rng.standard_normal(x.size)
    return x, y, sigma


# beyond the data range, inside the gap, near its edges and across the jump
GRID_1D = np.concatenate([[-0.3, -0.01, 0.5, 0.46, 0.54, 1.02, 1.4], np.linspace(0.0, 1.0, 41)])


def assert_matches_full_n(data, grid, ladder, basis, rel):
    out = fit_curve(data, grid, ladder, basis, Z)
    assert out.k_eff.size == len(grid)
    n_errors = 0
    for i, x in enumerate(grid):
        k_hat, k_eff, theta = full_n_fit(data, x, ladder, basis, data.sigma, Z)
        assert out.k_eff[i] == k_eff
        if k_eff == 0:
            n_errors += 1
            assert out.k_hat[i] == 0 and np.all(np.isnan(out.theta_hat[i]))
            continue
        assert out.k_hat[i] == k_hat
        assert np.all(np.abs(out.theta_hat[i] - theta) <= rel * np.abs(theta) + 1e-15), (x, out.theta_hat[i], theta)
    return n_errors


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_sorted_1d_matches_full_n(kernel, degree):
    x, y, sigma = one_d_scene(seed=degree)
    data = Dataset(x=x, y=y, sigma=sigma)
    ladder = ScaleLadder.geometric(0.012, 4, growth=1.5, kernel=kernel)
    n_errors = assert_matches_full_n(data, GRID_1D, ladder, Basis.polynomial(degree), rel=1e-12)
    assert n_errors >= 3  # -0.3, 1.4 and the gap centre have no usable scale


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_shuffled_1d_matches_full_n(kernel, degree):
    x, y, sigma = one_d_scene(seed=10 + degree)
    perm = np.random.default_rng(degree).permutation(x.size)
    data = Dataset(x=x[perm], y=y[perm], sigma=sigma[perm])
    ladder = ScaleLadder.geometric(0.012, 4, growth=1.5, kernel=kernel)
    assert_matches_full_n(data, GRID_1D, ladder, Basis.polynomial(degree), rel=1e-9)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_two_dimensional_matches_full_n(kernel, degree):
    rng = np.random.default_rng(30 + degree)
    pts = rng.uniform(0.0, 1.0, size=(500, 2))
    sigma = 0.1 + 0.1 * pts[:, 1]
    y = np.cos(3.0 * pts[:, 0]) * pts[:, 1] + sigma * rng.standard_normal(500)
    data = Dataset(x=pts, y=y, sigma=sigma)
    ladder = ScaleLadder.geometric(0.09, 4, growth=1.4, kernel=kernel)
    grid = np.vstack([[[-0.5, 0.5], [1.6, 1.6], [0.5, -0.4]], rng.uniform(0.0, 1.0, size=(30, 2))])
    n_errors = assert_matches_full_n(data, grid, ladder, Basis.polynomial(degree, dim=2), rel=1e-9)
    assert n_errors >= 2


def test_sorted_degree_one_is_bitwise_equal():
    # the slope is the ill-conditioned component; aligned windows reproduce it exactly
    x, y, sigma = one_d_scene(seed=7, n=1000)
    data = Dataset(x=x, y=y, sigma=sigma)
    ladder = ScaleLadder.geometric(0.004, 6, growth=1.5)
    basis = Basis.polynomial(1)
    out = fit_curve(data, x[::7], ladder, basis, np.full(5, 4.0))
    for xi, theta_hat in zip(out.x, out.theta_hat):
        _, _, theta = full_n_fit(data, xi, ladder, basis, sigma, np.full(5, 4.0))
        assert np.array_equal(theta_hat, theta)


def test_each_point_is_ladder_design_on_its_slab(monkeypatch):
    """At every point, the ends of the data included, fit_curve's fits are those of LadderDesign on its slab.

    The slab is the aligned run of rows fit_curve hands stacked_designs.  A
    fit over all n observations differs in the last bits at 10 of these
    200 points, all near the ends.  With thresholds of +inf every point
    selects its largest accepted scale, and T compares the fits of the
    smaller ones.
    """
    x = np.linspace(0.0, 1.0, 200)
    data = Dataset(x=x, y=np.sin(5.0 * x), sigma=np.full(200, 0.1))
    ladder, basis, z = ScaleLadder.geometric(0.012, 6, growth=1.5), Basis.polynomial(1), np.full(5, np.inf)
    slabs = {}

    def recording_designs(basis, ladder, points, centres, sigma):
        for c, rows in zip(centres[:, 0].tolist(), points[:, :, 0]):
            start = int(np.searchsorted(x, rows[0]))
            slabs[c] = slice(start, start + rows.size)
        return stacked_designs(basis, ladder, points, centres, sigma)

    monkeypatch.setattr(fll, "stacked_designs", recording_designs)
    out = fit_curve(data, x, ladder, basis, z)
    for g, xi in enumerate(x.tolist()):
        rows = slabs[xi]
        assert rows.start % fll._LANES == 0 and (rows.stop - rows.start) % fll._LANES == 0
        ld = LadderDesign(basis, ladder, x[rows], xi, data.sigma[rows])
        fits = ld.fit(data.y[rows])
        assert (out.k_eff[g], out.k_hat[g]) == (ld.K_eff, ld.K_eff) == (6, 6)
        assert np.array_equal(out.theta_hat[g], fits[-1].theta)
        assert np.array_equal(out.T[..., g], select_adaptive(fits, z).statistics, equal_nan=True)


def test_fit_dense_reference_at_seed_0():
    """The benchmark's seed-0 fit_dense pass, in process, against its recorded fit.csv.

    The data are those of perfbench/workloads.write_inputs (its CSV round trip
    is exact): a 6000-point jump scene with ramp noise, a boxcar ladder from
    h1 = 8 / 12000 with K = 6 and growth 1.5, degree 1 and z = 4.  The
    smallest windows' slopes are ill-conditioned, so rounding shows: a solve
    whose D slices are in C order, not in LAPACK's Fortran order, sends
    D @ y down another BLAS path and drifts past 1e-12 at a few of the 6000
    points.
    """
    data = generate(Scene("jump", n=6000, sigma_model=SigmaSpec("ramp", 0.25, 0.5), seed=0), 0)
    ladder = ScaleLadder.geometric(8 / 12000, 6, growth=1.5)
    out = fit_curve(data, data.x, ladder, Basis.polynomial(1), np.full(5, 4.0))
    ref = np.loadtxt(FIT_DENSE_REFERENCE, delimiter=",", skiprows=2, usecols=range(6))  # x,f_hat,k_hat,k_eff,theta
    assert np.array_equal(out.x[:, 0], ref[:, 0])
    assert np.array_equal(out.k_hat, ref[:, 2]) and np.array_equal(out.k_eff, ref[:, 3])
    for got, want in ((out.theta_hat, ref[:, 4:]), (out.fitted_values, ref[:, 1])):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)


def test_one_solve_per_chunk(monkeypatch):
    """fit_curve solves each chunk's whole (point, scale) stack in one stacked_solve call, never point by point."""
    n = 2000
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    data = Dataset(x=x, y=np.sin(5.0 * x), sigma=np.full(n, 0.1))
    ladder = ScaleLadder.geometric(4.0 / n, 5, growth=1.5)
    designs, solves = [], []

    def recording_designs(*args):
        out = stacked_designs(*args)
        designs.append(out[3].shape[:2])
        return out

    def recording_solve(B, PW):
        solves.append(B.shape[:2])
        return stacked_solve(B, PW)

    monkeypatch.setattr(fll, "stacked_designs", recording_designs)
    monkeypatch.setattr(fll, "stacked_solve", recording_solve)
    out = fit_curve(data, x, ladder, Basis.polynomial(1), np.full(4, 4.0))
    assert np.all(out.k_eff > 0)
    assert solves == designs and sum(g for g, _ in solves) == n
    assert all(k == ladder.K for _, k in solves)
    assert len(solves) < n // 10


@pytest.mark.parametrize("eig_ratio", [lm.MIN_EIG_RATIO, -1.0], ids=["gate", "pivot"])
def test_duplicated_points_cut_ladders_as_per_point_designs(monkeypatch, eig_ratio):
    """The conditioning gate and the Cholesky pivots cut a curve's ladders as one LadderDesign per point does.

    Ten equal points sit at 0.5 with no other point within 0.027, so the
    windows that hold only them have a singular B.  With the gate as it is,
    it cuts the ladders of grid points just off the cluster, whose pivots all
    pass, inside chunks whose other points keep every scale.  With a gate
    that accepts any eigenvalue ratio (MIN_EIG_RATIO = -1), the points on the
    cluster pass it, and their zero pivot cuts their ladders below it.
    Every scale is solved with its own pivots, gated or not, and no step may
    raise a floating-point warning.
    """
    monkeypatch.setattr(lm, "MIN_EIG_RATIO", eig_ratio)
    x = np.linspace(0.0, 1.0, 200)
    x[95:105] = 0.5
    data = Dataset(x=x, y=np.sin(5.0 * x), sigma=np.full(200, 0.1))
    grid = np.concatenate([x[16:-16], 0.5 + np.array([-0.004, 0.003, 0.0021, 0.001, -0.0005])])  # off the data's ends
    ladder, basis, z = ScaleLadder.geometric(0.012, 6, growth=1.5), Basis.polynomial(1), np.full(5, 3.0)
    chunks = []

    def recording_designs(basis, ladder, points, centres, sigma):
        chunks.append(centres[:, 0].copy())
        return stacked_designs(basis, ladder, points, centres, sigma)

    monkeypatch.setattr(fll, "stacked_designs", recording_designs)
    with np.errstate(all="raise"):
        out = fit_curve(data, grid, ladder, basis, z)
        _, _, PW, B, active = stacked_designs(basis, ladder, np.broadcast_to(x[None, :, None], (grid.size, 200, 1)),
                                              grid[:, None], np.broadcast_to(data.sigma, (grid.size, 200)))
        gate, pivots = lm.gate_count(B, active, basis.p), stacked_solve(B, PW)[1]
        refs = [full_n_fit(data, g, ladder, basis, data.sigma, z) for g in grid]
    assert np.array_equal(out.k_eff, np.minimum(gate, pivots))
    cut = out.k_eff < ladder.K
    if eig_ratio > 0:
        assert np.any(gate < pivots) and np.array_equal(cut, gate < ladder.K)
    else:
        assert np.any(pivots < gate) and np.all(gate == ladder.K)
    by_point = {float(g): k for g, k in zip(grid, out.k_eff)}
    assert any(len({by_point[float(g)] < ladder.K for g in c}) == 2 for c in chunks)  # a chunk with cut and whole ladders
    for g, (k_hat, k_eff, theta) in enumerate(refs):
        assert (out.k_hat[g], out.k_eff[g]) == (k_hat, k_eff)
        assert np.array_equal(out.theta_hat[g], theta) if k_eff else np.all(np.isnan(out.theta_hat[g]))
    m = np.tril_indices(ladder.K, -1)[0]  # the larger scale of each packed row
    assert np.array_equal(np.isnan(out.T), m[:, None] >= out.k_eff)  # NaN exactly where a pair leaves its ladder


def test_ladder_design_solves_every_scale_of_duplicated_points_quietly():
    """LadderDesign solves every scale, singular ones included, with no floating-point warning, and keeps fit_curve's k_eff.

    Ten equal points sit at 0.5.  There and at two points just off it the
    smallest window's B has a zero pivot; at three others every pivot
    passes and the gate alone cuts the ladder.
    """
    x = np.linspace(0.0, 1.0, 200)
    x[95:105] = 0.5
    data = Dataset(x=x, y=np.sin(5.0 * x), sigma=np.full(200, 0.1))
    grid = 0.5 + np.array([0.0, -0.004, 0.003, 0.0021, 0.001, -0.0005, 0.1, -0.2])
    ladder, basis = ScaleLadder.geometric(0.012, 6, growth=1.5), Basis.polynomial(1)
    with np.errstate(all="raise"):
        k_eff = [LadderDesign(basis, ladder, x, g, data.sigma).K_eff for g in grid]
        out = fit_curve(data, grid, ladder, basis, np.full(5, 3.0))
    assert k_eff == out.k_eff.tolist() == [0] * 6 + [ladder.K] * 2


def test_designs_hold_only_their_window(monkeypatch):
    """Every slab fit_curve hands the design builder holds its window's support plus at most 14 padding columns."""
    n = 2000
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    data = Dataset(x=x, y=np.sin(5.0 * x), sigma=np.full(n, 0.1))
    ladder = ScaleLadder.geometric(4.0 / n, 5, growth=1.5)
    sizes = []

    def recording_designs(basis, ladder, points, centres, sigma, *args, **kwargs):
        dist = np.abs(points[:, :, 0] - centres[:, :1])
        support = np.count_nonzero(kernel_profile(ladder.kernel, dist / ladder.bandwidths[-1]) > 0, axis=1)
        sizes.extend((points.shape[1], int(s)) for s in support)
        return stacked_designs(basis, ladder, points, centres, sigma, *args, **kwargs)

    monkeypatch.setattr(fll, "stacked_designs", recording_designs)
    out = fit_curve(data, x, ladder, Basis.polynomial(1), np.full(4, 4.0))
    assert np.all(out.k_eff > 0)
    assert len(sizes) == n
    assert all(size <= support + 14 for size, support in sizes)
    assert max(size for size, _ in sizes) < n // 10


def test_curve_memory_stays_at_chunk_size():
    """fit_curve stacks one chunk of designs at a time, never the whole grid.

    At n = 6000 with six scales of a local-linear fit, PW alone for every grid
    point at once would take about 41 MB.
    """
    import tracemalloc

    n = 6000
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 1.0, n)
    sigma = 0.25 * (1.0 + 0.5 * x)
    data = Dataset(x=x, y=(x >= 0.5) + sigma * rng.standard_normal(n), sigma=sigma)
    ladder = ScaleLadder.geometric(8.0 / (2 * n), 6, growth=1.5)
    tracemalloc.start()
    try:
        out = fit_curve(data, x, ladder, Basis.polynomial(1), np.full(5, 4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.k_eff.shape == (n,) and np.all(out.k_eff == 6)
    assert peak < 12e6


def test_grid_dimension_checked():
    data = Dataset(x=np.linspace(0.0, 1.0, 20), y=np.zeros(20), sigma=np.ones(20))
    ladder = ScaleLadder.geometric(0.2, 2)
    with pytest.raises(ValueError):
        fit_curve(data, np.zeros((3, 2)), ladder, Basis.polynomial(0), [1.0])


@pytest.mark.parametrize("level", [0.0, -1.0])
def test_nonpositive_sigma_rejected(level):
    # fit_curve weights by data.sigma; Dataset alone checks only that it is finite
    sigma = np.ones(20)
    sigma[7] = level
    data = Dataset(x=np.linspace(0.0, 1.0, 20), y=np.zeros(20), sigma=sigma)
    with pytest.raises(ValueError, match="must be positive"):
        fit_curve(data, [0.5], ScaleLadder.geometric(0.2, 2), Basis.polynomial(0), [1.0])


def test_non_finite_grid_rejected():
    data = Dataset(x=np.linspace(0.0, 1.0, 20), y=np.zeros(20), sigma=np.ones(20))
    ladder = ScaleLadder.geometric(0.2, 2, kernel="epanechnikov")
    with pytest.raises(ValueError, match="non-finite"):
        fit_curve(data, [0.5, np.nan], ladder, Basis.polynomial(0), [1.0])


def test_column_shaped_1d_design_matches_flat():
    x, y, sigma = one_d_scene(seed=4)
    ladder = ScaleLadder.geometric(0.012, 4, growth=1.5)
    basis = Basis.polynomial(1)
    flat = fit_curve(Dataset(x=x, y=y, sigma=sigma), GRID_1D, ladder, basis, Z)
    # reversed rows in an (n, 1) column: sorted back before fitting
    column = fit_curve(Dataset(x=x[::-1, None], y=y[::-1], sigma=sigma[::-1]), GRID_1D, ladder, basis, Z)
    assert np.array_equal(flat.k_eff, column.k_eff) and np.array_equal(flat.k_hat, column.k_hat)
    assert np.array_equal(flat.theta_hat, column.theta_hat, equal_nan=True)


def test_custom_basis_on_empty_window():
    x, y, sigma = one_d_scene(seed=5)
    data = Dataset(x=x, y=y, sigma=sigma)
    ladder = ScaleLadder.geometric(0.012, 4, growth=1.5)
    basis = Basis(p=2, dim=1, _evaluate=lambda u: np.stack([np.ones(len(u)), u[:, 0]]))
    assert_matches_full_n(data, np.array([-0.3, 0.5, 0.25]), ladder, basis, rel=1e-12)
