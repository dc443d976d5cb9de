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
from .local_model import Basis, LocalFit, ScaleLadder, check_sigma, gate_count, stacked_designs, stacked_solve


#: byte budget of the temporaries of pair_statistics; sets how many replicates one block holds
_PAIR_BYTES = 2**20
#: set aside from _PAIR_BYTES for numpy's buffers of the strided or broadcast operands of a ufunc call
_UFUNC_BUFFERS = 3 * 8 * np.getbufsize()


def pair_statistics(theta: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Every pairwise form from fits theta (N, K, p) and matrices B (N or 1, K, p, p).

    Returns (K, K, N) with T[l-1, m-1] = max(d^T B_l d, 0), d = theta_l - theta_m,
    for every l != m, and NaN on the diagonal: the selection statistics above
    it (B of the smaller scale), the moment-condition forms below it (B of
    the larger scale).  Each form is the double sum of d_i B_ij d_j over i,
    then j, from 0, in elementwise arithmetic, so it rounds the same for any
    N, any block size and a shared (N = 1) or a stacked B.

    The replicates are taken n at a time.  A block copies its theta
    replicate-last, as (p, K, n), and a stacked B as (p, p, K, n), forms each
    difference theta_l - theta_m with l < m once, and weights it by B_l above
    the diagonal and by B_m below it, since (-d)_i B_ij (-d)_j rounds as
    d_i B_ij d_j.  n is the most replicates whose temporaries fit in
    _PAIR_BYTES, with _UFUNC_BUFFERS of it set aside, so the memory beyond
    the returned table does not grow with N.
    """
    N, K, p = theta.shape
    T = np.empty((K, K, N))
    T[np.arange(K), np.arange(K)] = np.nan
    l, m = np.triu_indices(K, 1)  # the pairs l < m, 0-based, in row order
    P, shared = l.size, B.shape[0] == 1
    sizes = (p * K, p * P, P, P, P, 0 if shared else p * p * K)  # theta, differences, two forms, product, B
    n = max(1, min(N, (_PAIR_BYTES - _UFUNC_BUFFERS) // (8 * (sum(sizes) + P))))  # + P: one gathered B entry
    th_buf, d_buf, upper_buf, lower_buf, prod_buf, B_buf = (np.empty(size * n) for size in sizes)
    Bb = B.transpose(2, 3, 1, 0)  # (p, p, K, 1) when shared
    for b in range(0, N, n):
        w = min(n, N - b)  # a block works on contiguous views of the buffers' first entries
        th, d = th_buf[: p * K * w].reshape(p, K, w), d_buf[: p * P * w].reshape(p, P, w)
        upper, lower, prod = (buf[: P * w].reshape(P, w) for buf in (upper_buf, lower_buf, prod_buf))
        np.copyto(th, theta[b : b + w].transpose(2, 1, 0))
        if not shared:
            Bb = B_buf[: p * p * K * w].reshape(p, p, K, w)
            np.copyto(Bb, B[b : b + w].transpose(2, 3, 1, 0))
        for a in range(K - 1):  # the pairs of l = a: d = theta_a - theta_m for m > a
            s = P - (K - a) * (K - a - 1) // 2
            np.subtract(th[:, a, None], th[:, a + 1 :], out=d[:, s : s + K - a - 1])
        upper[:] = 0.0
        lower[:] = 0.0
        for i in range(p):
            for j in range(p):
                for forms, k in ((upper, l), (lower, m)):
                    np.multiply(d[i], Bb[i, j, k], out=prod)
                    prod *= d[j]
                    forms += prod
        T[l, m, b : b + w] = np.maximum(upper, 0.0, out=upper)
        T[m, l, b : b + w] = np.maximum(lower, 0.0, out=lower)
    return T


def _thresholds(z, K: int) -> np.ndarray:
    zv = np.asarray(getattr(z, "z", z), dtype=float)
    if zv.size < K - 1:
        raise ParameterDomainError(f"need at least {K - 1} thresholds for K={K} scales, got {zv.size}")
    if not np.all(zv > 0):  # NaN fails too; +inf, a threshold that never stops, passes
        raise ParameterDomainError("thresholds must be positive and not NaN")
    return zv


@dataclass
class SelectionTrace:
    """Outcome of the selection sweep at one reference point."""

    k_hat: int
    statistics: np.ndarray  # (K, K) pair_statistics table: T[l-1, m-1] for l != m, NaN diagonal
    first_violation: tuple[int, int] | None  # 1-indexed (l, m), None if fully accepted

    @property
    def K(self) -> int:
        return self.statistics.shape[0]

    def stepwise_indices(self) -> np.ndarray:
        """min(k, k_hat) for k = 1..K, the scale used after each step."""
        return np.minimum(np.arange(1, self.K + 1), self.k_hat)


def selection_sweep(T: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule for every column of a (K, K, N) statistics table.

    Scale m is reachable only if every pair (l, m') with l < m' <= m passed,
    so each column stops at the first m with a violated pair T_lm > z_l, and
    k_hat = m - 1; a column without a violation gets K.  Only entries l < m
    are read, and NaN entries never violate, so a ladder shorter than K,
    padded with NaN, gets K where its own length is meant.  The sweep runs
    over the K - 1 columns m, each vectorised over N.

    Returns k_hat (N,) and the first violated pair (N, 2) as 1-indexed (l, m),
    the smallest l at the first m, or (0, 0) where none is violated.
    """
    K, N = T.shape[0], T.shape[-1]
    zv = _thresholds(z, K)
    k_hat = np.full(N, K)
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
    theta = np.stack([f.theta for f in fits], dtype=float)[None]
    T = pair_statistics(theta, np.stack([f.B for f in fits], dtype=float)[None])
    k_hat, first = selection_sweep(T, z)
    l, m = first[0].tolist()
    return SelectionTrace(k_hat=int(k_hat[0]), statistics=T[..., 0], first_violation=(l, m) if m else None)


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
#: grid points that fit_curve passes through the conditioning gate at once
_GATE_BLOCK = 4 * _CHUNK


def _gated_fits(basis: Basis, ladder: ScaleLadder, xs, y, sigma, centres, lo, width):
    """fit_curve's fits theta (G, K, p), NaN from each point's k_eff on, the grid's B (G, K, p, p) and k_eff (G,).

    Point g's slab is rows lo[g] .. lo[g] + width[g] of the sorted data.
    Every scale of a chunk is solved, then the grid is gated in blocks of
    _GATE_BLOCK points, and k_eff is the smaller of the pivot and gate
    counts.  The chunks' temporaries and the weight counts die on return.
    """
    G, K, p = len(centres), ladder.K, basis.p
    theta = np.empty((G, K, p))
    B = np.empty((G, K, p, p))
    active = np.empty((G, K), dtype=np.intp)
    k_eff = np.empty(G, dtype=int)
    by_width = np.argsort(width, kind="stable")
    bounds = np.append(np.flatnonzero(np.diff(width[by_width], prepend=-1)), G)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for c in range(a, b, _CHUNK):
            idx = by_width[c : min(c + _CHUNK, b)]
            rows = lo[idx, None] + np.arange(width[idx[0]])
            _, _, PW, Bc, active[idx] = stacked_designs(basis, ladder, xs[rows], centres[idx], sigma[rows])
            D, k_eff[idx] = stacked_solve(Bc, PW)
            theta[idx] = (D @ y[rows][:, None, :, None])[..., 0]  # one gemv per (point, scale), as D_k @ y
            B[idx] = Bc
    for c in range(0, G, _GATE_BLOCK):
        blk = slice(c, c + _GATE_BLOCK)
        np.minimum(k_eff[blk], gate_count(B[blk], active[blk], p), out=k_eff[blk])
    theta[np.arange(K) >= k_eff[:, None]] = np.nan
    return theta, B, k_eff


def fit_curve(data: Dataset, x_grid, ladder: ScaleLadder, basis: Basis, cv) -> CurveFit:
    """Independent adaptive fits at each grid point, weighting the data by data.sigma.

    Each point is fitted on its slab, the rows with |X_i1 - x_1| <=
    ladder.support of the data sorted by their first coordinate (once, and
    not when already sorted), found by two binary searches.  The slab holds
    every scale's weights in any dimension, so a curve of G points costs
    O(n log n + G * window) rather than O(G * n).  It is widened with
    zero-weight rows to a start and a length that are multiples of _LANES
    (cut at n), and each point's fit is, bit for bit, LadderDesign built on
    its slab.  BLAS reductions assign terms to accumulator lanes by index,
    so an aligned slab sums the nonzero terms as a fit over all n sorted
    rows does: inside the data the two agree bit for bit, but near its ends,
    where slabs are narrow, BLAS may sum another way.  _LANES stays: with
    _LANES = 1, fit_dense's theta moved by up to 6.5e-12 relative, past its
    1e-12 reference bound.

    Points whose slabs have the same width are processed in chunks of up to
    _CHUNK: stacked_designs builds the chunk's weights and B_k in one set of
    array operations, one stacked_solve call solves every scale of the
    chunk, and one stacked product gives every theta_k = D_k y.  The grid's
    B_k are kept.  After the chunks, gate_count gates the grid in blocks of
    _GATE_BLOCK points, k_eff is the smaller of each point's gate and pivot
    counts, and the fits from k_eff on become NaN in one write.  One
    pair_statistics call then forms every point's T_lm, one
    selection_sweep selects every point, and each k_hat is capped at its
    k_eff.  Results therefore do not depend on the grid's order or on the
    other points, nor on the order of the data rows when their first
    coordinates have no ties.

    A point with no usable scale gets k_eff = k_hat = 0 and NaN estimates
    in the returned CurveFit rather than aborting the grid.
    """
    grid = np.array(x_grid, dtype=float)
    centres = grid[:, None] if grid.ndim == 1 else grid
    if centres.ndim != 2 or centres.shape[1] != data.d:
        raise ParameterDomainError("grid dimension does not match data dimension")
    if not np.all(np.isfinite(centres)):
        raise ParameterDomainError("grid has non-finite entries")
    check_sigma(data.sigma, "sigma")

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

    theta, B, k_eff = _gated_fits(basis, ladder, xs, y, sigma, centres, lo, width)
    G = len(centres)
    T = pair_statistics(theta, B)
    K_max = int(k_eff.max(initial=0))
    k_hat, first = selection_sweep(T[:K_max, :K_max], cv)
    k_hat = np.minimum(k_hat, k_eff)  # a ladder cut at k_eff has NaN pairs beyond it, which never violate
    theta_hat = theta[np.arange(G), k_hat - 1]
    psi0 = basis.evaluate(np.zeros(basis.dim))
    fitted = (theta_hat[:, None, :] @ psi0[:, None])[:, 0, 0]  # stacked one-row products
    return CurveFit(x=centres, k_eff=k_eff, k_hat=k_hat, theta_hat=theta_hat, fitted_values=fitted, T=T, first=first)
