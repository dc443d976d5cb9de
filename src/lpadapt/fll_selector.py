"""Pairwise fitted-likelihood statistics and the adaptive scale selection.

The pairwise statistic for scales l < m is the quadratic form

    T_lm = (theta_l - theta_m)^T B_l (theta_l - theta_m),

twice the maximized local log-likelihood difference.  The selected index is

    k_hat = max{ k <= K : T_lm <= z_l for all l < m <= k },

so the smallest scale is always accepted and acceptance holds on equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .exceptions import ParameterDomainError, ScaleOrderError
from .local_model import Basis, LadderDesign, LocalFit, NoiseModel, ScaleLadder


def fll_statistic(fit_l: LocalFit, fit_m: LocalFit) -> float:
    """Quadratic-form statistic between two fits, weighted by the smaller-scale B."""
    if fit_l.k >= fit_m.k:
        raise ScaleOrderError(f"need l < m, got l={fit_l.k}, m={fit_m.k}")
    d = fit_l.theta - fit_m.theta
    return max(float(d @ fit_l.B @ d), 0.0)


def statistics_table(fits: Sequence[LocalFit]) -> np.ndarray:
    """All T_lm for l < m as a (K, K) array; unused entries are NaN."""
    K = len(fits)
    T = np.full((K, K), np.nan)
    for li in range(K):
        for mi in range(li + 1, K):
            d = fits[li].theta - fits[mi].theta
            T[li, mi] = max(float(d @ fits[li].B @ d), 0.0)
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


def select_adaptive(fits: Sequence[LocalFit], z) -> SelectionTrace:
    """Run the selection rule over a contiguous family of fits.

    The literal max-over-k definition is used: scale m is reachable only if
    every pair (l, m') with l < m' <= m passed, so the sweep stops at the
    first violated pair and k_hat is the preceding index.
    """
    K = len(fits)
    if K < 1:
        raise ParameterDomainError("need at least one fit")
    zv = _thresholds(z, K)
    T = statistics_table(fits)
    for m in range(2, K + 1):
        for l in range(1, m):
            if T[l - 1, m - 1] > zv[l - 1]:
                return SelectionTrace(k_hat=m - 1, statistics=T, thresholds=zv[: K - 1], first_violation=(l, m))
    return SelectionTrace(k_hat=K, statistics=T, thresholds=zv[: K - 1], first_violation=None)


@dataclass
class AdaptiveEstimate:
    """Selected coefficient vector plus the per-step estimates."""

    theta_hat: np.ndarray
    k_hat: int
    stepwise: np.ndarray  # (K, p); row k-1 holds theta_{min(k, k_hat)}
    psi0: np.ndarray  # basis at zero offset, for the fitted value

    @property
    def p(self) -> int:
        return self.theta_hat.size

    @property
    def fitted_value(self) -> float:
        return float(self.theta_hat @ self.psi0)

    def component(self, j: int) -> float:
        return componentwise(self, j)


def adaptive_estimate(fits: Sequence[LocalFit], trace: SelectionTrace, basis: Basis) -> AdaptiveEstimate:
    steps = np.stack([fits[i - 1].theta for i in trace.stepwise_indices()])
    return AdaptiveEstimate(
        theta_hat=fits[trace.k_hat - 1].theta,
        k_hat=trace.k_hat,
        stepwise=steps,
        psi0=basis.evaluate(np.zeros(basis.dim)),
    )


def componentwise(estimate: AdaptiveEstimate, j: int) -> float:
    """j-th coefficient (1-indexed); for the polynomial basis in d=1 this is
    the estimate of the (j-1)-th derivative at the reference point."""
    if not 1 <= j <= estimate.p:
        raise IndexError(f"component {j} outside 1..{estimate.p}")
    return float(estimate.theta_hat[j - 1])


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


def fit_curve(
    data: Dataset,
    x_grid,
    ladder: ScaleLadder,
    basis: Basis,
    noise: NoiseModel,
    cv,
) -> list[PointFit]:
    """Independent adaptive fits at each grid point.

    Each point's LadderDesign holds only the observations that can carry
    weight there.  The data are sorted once by their first coordinate (not
    at all when already sorted), and two binary searches find the slab
    |X_i1 - x_1| <= ladder.support, which contains the support of every
    scale's weights in any dimension.  A curve of G points therefore costs
    O(n log n + G * window) rather than O(G * n).

    The slab is widened with zero-weight neighbours to a start index and a
    length that are multiples of _LANES.  BLAS reductions assign terms to
    accumulator lanes by index, so aligned slabs group the nonzero terms as
    a fit over all n observations does, and on sorted data the results match
    that fit bit for bit.

    Per-point singular designs are recorded in the returned PointFit rather
    than aborting the grid; results do not depend on evaluation order.
    """
    grid = np.asarray(x_grid, dtype=float)
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
    # a few ulps of slack keep boundary points whose weight rounds to positive
    reach = ladder.support * (1.0 + 1e-9) + 4.0 * np.spacing(np.abs(centres[:, 0]))
    lo = np.searchsorted(key, centres[:, 0] - reach, side="left") // _LANES * _LANES
    hi = -(-np.searchsorted(key, centres[:, 0] + reach, side="right") // _LANES) * _LANES

    out = []
    for row, a, b in zip(centres, lo, np.minimum(hi, data.n)):
        ld = LadderDesign(basis, ladder, xs[a:b], row if data.d > 1 else row[0], sigma[a:b])
        if ld.K_eff == 0:
            out.append(PointFit(x=ld.x, estimate=None, trace=None, k_eff=0, error="singular design at every scale"))
            continue
        fits = ld.fit(y[a:b])
        trace = select_adaptive(fits, cv)
        out.append(PointFit(x=ld.x, estimate=adaptive_estimate(fits, trace, basis), trace=trace, k_eff=ld.K_eff))
    return out
