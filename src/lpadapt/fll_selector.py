"""Pairwise fitted-likelihood statistics and the adaptive scale selection.

The pairwise statistic for scales l < m is the quadratic form

    T_lm = (theta_l - theta_m)^T B_l (theta_l - theta_m),

twice the maximized local log-likelihood difference.  The selected index is

    k_hat = max{ k <= K : T_lm <= z_l for all l < m <= k },

so the smallest scale is always accepted and acceptance holds on equality.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import ParameterDomainError
from .local_model import Basis, LocalFit, NoiseModel, ScaleLadder, factor_solve, stacked_designs


def pair_statistics(theta: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All T_lm for l < m from fits theta (N, K, p) and matrices B (N, K, p, p).

    Returns (K, K, N) with T[l-1, m-1] = max(d^T B_l d, 0), d = theta_l - theta_m,
    and NaN for l >= m.  The forms are stacked matrix products, bit for bit
    the d @ B_l @ d of a single pair.
    """
    N, K, _ = theta.shape
    ls, ms = np.triu_indices(K, 1)
    d = theta[:, ls] - theta[:, ms]  # (N, pairs, p)
    forms = (d[:, :, None, :] @ B[:, ls]) @ d[..., None]
    T = np.full((K, K, N), np.nan)
    T[ls, ms] = np.maximum(forms[..., 0, 0].T, 0.0)
    return T


def _thresholds(z, K: int) -> np.ndarray:
    zv = np.asarray(getattr(z, "z", z), dtype=float)
    if zv.size < K - 1:
        raise ParameterDomainError(f"need at least {K - 1} thresholds for K={K} scales, got {zv.size}")
    return zv


@dataclass
class SelectionTrace:
    """Outcome of the selection sweep at one reference point."""

    k_hat: int
    statistics: np.ndarray  # (K, K), T[l-1, m-1] for l < m
    thresholds: np.ndarray
    first_violation: tuple[int, int] | None  # 1-indexed (l, m), None if fully accepted

    @property
    def K(self) -> int:
        return self.statistics.shape[0]

    def stepwise_indices(self) -> np.ndarray:
        """min(k, k_hat) for k = 1..K, the scale used after each step."""
        return np.minimum(np.arange(1, self.K + 1), self.k_hat)


def selection_sweep(T: np.ndarray, z, k_eff=None) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule for every column of a (K, K, N) statistics table.

    Scale m is reachable only if every pair (l, m') with l < m' <= m passed,
    so each column stops at the first m with a violated pair T_lm > z_l, and
    k_hat = m - 1.  Only entries l < m are read, and NaN entries never
    violate, so ladders shorter than K are padded with NaN; k_eff (N,) gives
    their length, the k_hat of a column without a violation (K when omitted).
    The sweep runs over the K - 1 columns m, each vectorised over N.

    Returns k_hat (N,) and the first violated pair (N, 2) as 1-indexed (l, m),
    the smallest l at the first m, or (0, 0) where none is violated.
    """
    K, N = T.shape[0], T.shape[-1]
    zv = _thresholds(z, K)
    k_hat = np.full(N, K) if k_eff is None else np.array(k_eff)
    first = np.zeros((N, 2), dtype=int)
    alive = np.ones(N, dtype=bool)
    for m in range(1, K):  # 0-based scale index; its pairs are (l, m), l < m
        viol = T[:m, m] > zv[:m, None]
        stop = alive & viol.any(axis=0)
        k_hat[stop] = m
        first[stop, 0] = viol[:, stop].argmax(axis=0) + 1
        first[stop, 1] = m + 1
        alive &= ~stop
    return k_hat, first


def select_adaptive(fits: Sequence[LocalFit], z) -> SelectionTrace:
    """Run the selection rule over a contiguous family of fits: selection_sweep on one column."""
    K = len(fits)
    if K < 1:
        raise ParameterDomainError("need at least one fit")
    zv = _thresholds(z, K)
    theta = np.stack([f.theta for f in fits], dtype=float)[None]
    T = pair_statistics(theta, np.stack([f.B for f in fits], dtype=float)[None])
    k_hat, first = selection_sweep(T, zv)
    l, m = first[0].tolist()
    return SelectionTrace(k_hat=int(k_hat[0]), statistics=T[..., 0], thresholds=zv[: K - 1],
                          first_violation=(l, m) if m else None)


@dataclass
class AdaptiveEstimate:
    """Selected coefficient vector plus the per-step estimates."""

    theta_hat: np.ndarray
    k_hat: int
    stepwise: np.ndarray  # (K, p); row k-1 holds theta_{min(k, k_hat)}
    psi0: np.ndarray  # basis at zero offset, for the fitted value

    @property
    def fitted_value(self) -> float:
        return float(self.theta_hat @ self.psi0)


def adaptive_estimate(fits: Sequence[LocalFit], trace: SelectionTrace, basis: Basis) -> AdaptiveEstimate:
    steps = np.stack([fits[i - 1].theta for i in trace.stepwise_indices()])
    return AdaptiveEstimate(
        theta_hat=fits[trace.k_hat - 1].theta,
        k_hat=trace.k_hat,
        stepwise=steps,
        psi0=basis.evaluate(np.zeros(basis.dim)),
    )


@dataclass
class PointFit:
    """Adaptive fit at one grid point; error is set when no scale was usable."""

    x: np.ndarray
    estimate: AdaptiveEstimate | None
    trace: SelectionTrace | None
    k_eff: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class CurveFit(Sequence):
    """The PointFit of each grid point, built on access from whole-grid arrays.

    fit_curve computes every point in stacked arrays.  Indexing builds that
    point's PointFit (with its AdaptiveEstimate and SelectionTrace) from
    them, a fresh object on every access; callers that only need the
    estimates read the arrays.  A point without a usable scale has
    k_eff = k_hat = 0 and NaN estimates.
    """

    def __init__(self, x, theta, k_eff, T, k_hat, first, z, psi0):
        G = len(k_eff)
        self.x = x  # (G, d) grid points
        self.theta = theta  # (G, K, p) per-scale fits, NaN beyond k_eff
        self.k_eff = k_eff  # (G,)
        self.T = T  # (K, K, G) pairwise statistics, NaN outside each point's ladder
        self.k_hat = k_hat  # (G,)
        self.first = first  # (G, 2) first violated pair, (0, 0) where none
        self.z, self.psi0 = z, psi0
        self.theta_hat = theta[np.arange(G), k_hat - 1]  # (G, p)
        # stacked one-row products: bit for bit AdaptiveEstimate.fitted_value
        self.fitted_values = (self.theta_hat[:, None, :] @ psi0[:, None])[:, 0, 0]

    def __len__(self) -> int:
        return len(self.k_eff)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        K = int(self.k_eff[i])
        if K == 0:
            return PointFit(x=self.x[i], estimate=None, trace=None, k_eff=0, error="singular design at every scale")
        l, m = self.first[i].tolist()
        trace = SelectionTrace(
            k_hat=int(self.k_hat[i]),
            statistics=self.T[:K, :K, i].copy(),
            thresholds=self.z[: K - 1],
            first_violation=(l, m) if m else None,
        )
        est = AdaptiveEstimate(
            theta_hat=self.theta_hat[i],
            k_hat=trace.k_hat,
            stepwise=self.theta[i, trace.stepwise_indices() - 1],
            psi0=self.psi0,
        )
        return PointFit(x=self.x[i], estimate=est, trace=trace, k_eff=K)


def fit_point(
    data: Dataset,
    x,
    ladder: ScaleLadder,
    basis: Basis,
    noise: NoiseModel,
    cv,
) -> PointFit:
    """Adaptive fit at one reference point: the one-row case of fit_curve."""
    return fit_curve(data, [x], ladder, basis, noise, cv)[0]


#: windows start and end on multiples of this many observations (see fit_curve)
_LANES = 8
#: grid points whose designs fit_curve builds in one stack; bounds its temporaries
_CHUNK = 64


def fit_curve(
    data: Dataset,
    x_grid,
    ladder: ScaleLadder,
    basis: Basis,
    noise: NoiseModel,
    cv,
) -> CurveFit:
    """Independent adaptive fits at each grid point.

    Each point is fitted on the observations that can carry weight there.
    The data are sorted once by their first coordinate (not at all when
    already sorted), and two binary searches find the slab
    |X_i1 - x_1| <= ladder.support, which contains the support of every
    scale's weights in any dimension.  A curve of G points therefore costs
    O(n log n + G * window) rather than O(G * n).

    The slab is widened with zero-weight neighbours to a start index and a
    length that are multiples of _LANES.  BLAS reductions assign terms to
    accumulator lanes by index, so aligned slabs group the nonzero terms as
    a fit over all n observations does, and on sorted data the results match
    that fit bit for bit.

    Points whose slabs have the same width are processed in chunks of up to
    _CHUNK: stacked_designs builds the chunk's weights, B_k and conditioning
    gate in one set of array operations, each accepted (point, scale) gets
    its own LAPACK Cholesky solve and theta_k = D_k y, and pair_statistics
    forms the chunk's T_lm.  One selection_sweep then selects every point.
    Each point's arithmetic is that of LadderDesign on its slab, so results
    do not depend on the grid's order or on the other points.

    Per-point singular designs are recorded in the returned PointFit rather
    than aborting the grid.
    """
    grid = np.array(x_grid, dtype=float)
    centres = grid[:, None] if grid.ndim == 1 else grid
    if centres.ndim != 2 or centres.shape[1] != data.d:
        raise ParameterDomainError("grid dimension does not match data dimension")
    if not np.all(np.isfinite(centres)):
        raise ParameterDomainError("grid has non-finite entries")
    sigma = np.asarray(noise.sigma_model, dtype=float)
    if sigma.shape != (data.n,):
        raise ParameterDomainError("noise model and data must have equal length")

    xs, y = data.x, data.y
    key = xs if xs.ndim == 1 else xs[:, 0]
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        xs, y, sigma, key = xs[order], y[order], sigma[order], key[order]
    xs = xs.reshape(data.n, data.d)
    # a few ulps of slack keep boundary points whose weight rounds to positive
    reach = ladder.support * (1.0 + 1e-9) + 4.0 * np.spacing(np.abs(centres[:, 0]))
    lo = np.searchsorted(key, centres[:, 0] - reach, side="left") // _LANES * _LANES
    hi = -(-np.searchsorted(key, centres[:, 0] + reach, side="right") // _LANES) * _LANES
    width = np.minimum(hi, data.n) - lo

    G, K, p = len(centres), ladder.K, basis.p
    theta = np.full((G, K, p), np.nan)
    T = np.full((K, K, G), np.nan)
    k_eff = np.zeros(G, dtype=int)
    by_width = np.argsort(width, kind="stable")
    bounds = np.append(np.flatnonzero(np.diff(width[by_width], prepend=-1)), G)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for c in range(a, b, _CHUNK):
            idx = by_width[c : min(c + _CHUNK, b)]
            rows = lo[idx, None] + np.arange(width[idx[0]])
            _, _, PW, B, k_gate = stacked_designs(basis, ladder, xs[rows], centres[idx], sigma[rows])
            ys = y[rows]
            fits = np.full((idx.size, K, p), np.nan)
            for g, kg in enumerate(k_gate.tolist()):
                yg = ys[g]
                for k in range(kg):
                    solved = factor_solve(B[g, k], PW[g, k])
                    if solved is None:
                        k_gate[g] = k
                        break
                    fits[g, k] = solved[1] @ yg
            k_eff[idx] = k_gate
            theta[idx] = fits
            T[:, :, idx] = pair_statistics(fits, B)
    K_max = int(k_eff.max(initial=0))
    k_hat, first = selection_sweep(T[:K_max, :K_max], cv, k_eff) if K_max else (k_eff, np.zeros((G, 2), dtype=int))
    return CurveFit(centres, theta, k_eff, T, k_hat, first, _thresholds(cv, K_max), basis.evaluate(np.zeros(basis.dim)))
