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
from .local_model import Basis, LocalFit, ScaleLadder, factor_solve, stacked_designs


def pair_statistics(theta: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every pairwise form from fits theta (N, K, p) and matrices B (N or 1, K, p, p).

    Returns (K, K, N) with T[l-1, m-1] = max(d^T B_l d, 0), d = theta_l - theta_m,
    for every l != m, and NaN on the diagonal: the selection statistics above
    it (B of the smaller scale), the moment-condition forms below it (B of
    the larger scale).  Each form is the double sum of d_i B_ij d_j over i,
    then j, from 0, in elementwise arithmetic, so it rounds the same for any
    N and for a shared (N = 1) or a stacked B.
    """
    N, K, p = theta.shape
    T = np.empty((K, K, N))
    for l in range(K):  # row by row, so temporaries stay (N, K) whatever the batch
        d = theta[:, l : l + 1] - theta  # (N, K, p), d_m = theta_l - theta_m
        forms = np.zeros((N, K))
        for i in range(p):
            for j in range(p):
                forms += d[..., i] * B[:, l, i, j, None] * d[..., j]
        T[l] = np.maximum(forms, 0.0).T
    T[np.arange(K), np.arange(K)] = np.nan
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
    statistics: np.ndarray  # (K, K) pair_statistics table: T[l-1, m-1] for l != m, NaN diagonal
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


def adaptive_estimate(fits: Sequence[LocalFit], trace: SelectionTrace) -> AdaptiveEstimate:
    steps = np.stack([fits[i - 1].theta for i in trace.stepwise_indices()])
    return AdaptiveEstimate(theta_hat=fits[trace.k_hat - 1].theta, k_hat=trace.k_hat, stepwise=steps)


@dataclass
class CurveFit:
    """The adaptive fits of every grid point, as whole-grid arrays.

    A point without a usable scale has k_eff = k_hat = 0 and NaN estimates.
    """

    x: np.ndarray  # (G, d) grid points
    k_eff: np.ndarray  # (G,) scales that passed the conditioning gate
    k_hat: np.ndarray  # (G,)
    theta_hat: np.ndarray  # (G, p) the fit at scale k_hat
    fitted_values: np.ndarray  # (G,) theta_hat @ psi(0)
    T: np.ndarray  # (K, K, G) pair_statistics tables, NaN on the diagonal and outside each point's ladder
    first: np.ndarray  # (G, 2) first violated pair (l, m), 1-indexed, (0, 0) where none


#: windows start and end on multiples of this many observations (see fit_curve)
_LANES = 8
#: grid points whose designs fit_curve builds in one stack; bounds its temporaries
_CHUNK = 64


def fit_curve(data: Dataset, x_grid, ladder: ScaleLadder, basis: Basis, cv) -> CurveFit:
    """Independent adaptive fits at each grid point, weighting the data by data.sigma.

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
    do not depend on the grid's order or on the other points, nor on the
    order of the data rows when their first coordinates have no ties.

    A point with no usable scale gets k_eff = k_hat = 0 and NaN estimates
    in the returned CurveFit rather than aborting the grid.
    """
    grid = np.array(x_grid, dtype=float)
    centres = grid[:, None] if grid.ndim == 1 else grid
    if centres.ndim != 2 or centres.shape[1] != data.d:
        raise ParameterDomainError("grid dimension does not match data dimension")
    if not np.all(np.isfinite(centres)):
        raise ParameterDomainError("grid has non-finite entries")
    if np.any(data.sigma <= 0):
        raise ParameterDomainError("model standard deviations must be positive")

    xs, y, sigma = data.x, data.y, data.sigma
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
                    D = factor_solve(B[g, k], PW[g, k])
                    if D is None:
                        k_gate[g] = k
                        break
                    fits[g, k] = D @ yg
            k_eff[idx] = k_gate
            theta[idx] = fits
            T[:, :, idx] = pair_statistics(fits, B)
    K_max = int(k_eff.max(initial=0))
    k_hat, first = selection_sweep(T[:K_max, :K_max], cv, k_eff) if K_max else (k_eff.copy(), np.zeros((G, 2), dtype=int))
    theta_hat = theta[np.arange(G), k_hat - 1]
    psi0 = basis.evaluate(np.zeros(basis.dim))
    fitted = (theta_hat[:, None, :] @ psi0[:, None])[:, 0, 0]  # stacked one-row products
    return CurveFit(x=centres, k_eff=k_eff, k_hat=k_hat, theta_hat=theta_hat, fitted_values=fitted, T=T, first=first)
