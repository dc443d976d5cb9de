"""Localized weighted designs and quasi-likelihood fits at a reference point.

A scale is a set of kernel weights around a reference point x.  For each
scale k the weighted information matrix

    B_k = sum_i Psi_i Psi_i^T w_{k,i} / sigma_i^2

is assembled and the weighted least-squares (quasi-ML) coefficient vector is
obtained from the normal equations B_k theta = Psi W_k y.  Each accepted
scale is solved once for its propagator D_k = B_k^{-1} Psi W_k through a
Cholesky factorization of B_k; the factor is not kept, and no explicit
inverse is formed.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigvalsh, get_lapack_funcs

from .exceptions import ParameterDomainError

# LAPACK Cholesky factor and solve, the routines behind scipy's cho_factor and
# cho_solve, called without the wrappers' per-call checks
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))

#: reject a scale when lambda_min(B) < MIN_EIG_RATIO * lambda_max(B)
MIN_EIG_RATIO = 1e-10


def kernel_profile(kind: str, t: np.ndarray) -> np.ndarray:
    """Evaluate a kernel profile at scaled distances t = ||u|| / h >= 0.

    Profiles map into [0, 1], are nonincreasing in t, and equal 1 at t = 0,
    so weights of nested bandwidths are pointwise nondecreasing in h.
    """
    t = np.asarray(t, dtype=float)
    if kind == "boxcar":
        return (t <= 1.0).astype(float)
    if kind == "epanechnikov":
        return np.maximum(0.0, 1.0 - t * t)
    if kind == "truncated_gaussian":
        return np.exp(-0.5 * t * t) * (t <= 3.0)
    raise ParameterDomainError(f"unknown kernel {kind!r}; choose one of {KERNELS}")


#: largest scaled distance t at which each kernel profile can be positive
KERNEL_RADIUS = {"boxcar": 1.0, "epanechnikov": 1.0, "truncated_gaussian": 3.0}
KERNELS = tuple(KERNEL_RADIUS)


@dataclass(frozen=True)
class Basis:
    """Fixed basis {psi_1, ..., psi_p} evaluated at offsets t - x.

    _evaluate maps offsets (n, dim) to the matrix (p, n) whose column i is
    psi at offset i.  Basis.polynomial(degree, dim) uses all monomials of
    total degree <= degree, ordered by degree then lexicographically,
    normalized as u^a / a! so that psi(0) = (1, 0, ..., 0) and, in d = 1, the
    j-th coefficient estimates the (j-1)-th derivative of the target
    function.  Any other basis is Basis(p=..., dim=..., _evaluate=...).
    """

    p: int
    dim: int
    _evaluate: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def polynomial(cls, degree: int, dim: int = 1) -> "Basis":
        if degree < 0:
            raise ParameterDomainError("polynomial degree must be >= 0")
        # graded lexicographic order with the first coordinate ranked highest:
        # 1, u1, u2, u1^2/2, u1 u2, u2^2/2, ...
        alphas = sorted(
            (a for a in itertools.product(range(degree + 1), repeat=dim) if sum(a) <= degree),
            key=lambda a: (sum(a), tuple(reversed(a))),
        )
        inv_fact = np.array([1.0 / math.prod(math.factorial(ai) for ai in a) for a in alphas])
        expo = np.array(alphas)  # (p, dim)

        def evaluate(offsets: np.ndarray) -> np.ndarray:
            # offsets: (n, dim) -> (p, n).  Powers are repeated products, which round every
            # element alike; an array ** rounds by the element's place in numpy's SIMD loop.
            table = [np.ones_like(offsets)]
            for _ in range(degree):
                table.append(table[-1] * offsets)
            powers = np.stack(table)[expo, :, np.arange(dim)]  # (p, dim, n): u_j^alpha_j
            return powers.prod(axis=1) * inv_fact[:, None]

        return cls(p=len(alphas), dim=dim, _evaluate=evaluate)

    def evaluate(self, offset) -> np.ndarray:
        """Basis vector at a single offset t - x; shape (p,)."""
        off = np.atleast_1d(np.asarray(offset, dtype=float)).reshape(1, self.dim)
        return self._evaluate(off)[:, 0]


@dataclass(frozen=True)
class ScaleLadder:
    """Strictly increasing bandwidths h_1 < ... < h_K with a common kernel."""

    bandwidths: tuple[float, ...]
    kernel: str = "boxcar"

    def __post_init__(self):
        h = np.asarray(self.bandwidths, dtype=float)
        if h.ndim != 1 or h.size < 1:
            raise ParameterDomainError("ladder needs at least one bandwidth")
        if np.any(h <= 0) or np.any(np.diff(h) <= 0):
            raise ParameterDomainError("bandwidths must be positive and strictly increasing")
        if self.kernel not in KERNELS:
            raise ParameterDomainError(f"unknown kernel {self.kernel!r}; choose one of {KERNELS}")

    @classmethod
    def geometric(cls, h1: float, K: int, growth: float = 1.25, kernel: str = "boxcar") -> "ScaleLadder":
        if growth <= 1.0:
            raise ParameterDomainError("growth factor must exceed 1")
        if K < 1:
            raise ParameterDomainError("K must be >= 1")
        return cls(tuple(h1 * growth**j for j in range(K)), kernel=kernel)

    @property
    def K(self) -> int:
        return len(self.bandwidths)

    @property
    def support(self) -> float:
        """Distance from x beyond which every scale's weight is zero: h_K times the kernel radius."""
        return self.bandwidths[-1] * KERNEL_RADIUS[self.kernel]


def default_h1(n: int, p: int, span: float = 1.0, d: int = 1) -> float:
    """The default smallest bandwidth: about max(4p, 8) of n points spread evenly over [0, span]^d fall in its window.

    The window is the ball of radius h1, of volume V_d h1^d with V_d the volume
    of the d-dimensional unit ball, so h1 = span (max(4p, 8) / (n V_d))^(1/d);
    in d = 1 (V_1 = 2) this is span max(4p, 8) / (2n).
    """
    m = max(4 * p, 8)
    if d == 1:  # the general expression rounds differently; d = 1 keeps its value to the last bit
        return span * m / (2.0 * n)
    unit_ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return span * (m / (n * unit_ball)) ** (1.0 / d)


@dataclass
class NoiseModel:
    """Model standard deviations, optional true ones, and the relative gap.

    delta is the uniform bound on |sigma_true_i^2 / sigma_model_i^2 - 1|.
    When sigma_true is given, the realized gap is computed and must not
    exceed a declared budget; the model requires delta < 1.
    """

    sigma_model: np.ndarray
    sigma_true: np.ndarray | None = None
    delta: float | None = None

    def __post_init__(self):
        self.sigma_model = np.asarray(self.sigma_model, dtype=float)
        if np.any(self.sigma_model <= 0) or not np.all(np.isfinite(self.sigma_model)):
            raise ParameterDomainError("model standard deviations must be positive and finite")
        if self.sigma_true is not None:
            self.sigma_true = np.asarray(self.sigma_true, dtype=float)
            if self.sigma_true.shape != self.sigma_model.shape:
                raise ParameterDomainError("sigma_true and sigma_model must have equal length")
            if np.any(self.sigma_true <= 0):
                raise ParameterDomainError("true standard deviations must be positive")
            realized = float(np.max(np.abs((self.sigma_true / self.sigma_model) ** 2 - 1.0)))
            if self.delta is None:
                self.delta = realized
            elif realized > self.delta + 1e-12:
                raise ParameterDomainError(
                    f"declared delta={self.delta} exceeded by realized relative gap {realized:.6g}"
                )
        elif self.delta is None:
            self.delta = 0.0
        if not 0.0 <= self.delta < 1.0:
            raise ParameterDomainError(f"delta={self.delta} outside [0, 1)")

    @property
    def n(self) -> int:
        return self.sigma_model.size


@dataclass
class LocalFit:
    """Coefficient vector for one scale, with the information matrix used."""

    theta: np.ndarray
    B: np.ndarray
    k: int


def _conditioned(B: np.ndarray, active, p: int) -> np.ndarray:
    """Conditioning gate for stacked information matrices (..., p, p).

    Scale k passes when at least p points carry positive weight and
    lambda_min(B_k) > MIN_EIG_RATIO * lambda_max(B_k).
    """
    if not np.all(np.isfinite(B)):
        raise ParameterDomainError("information matrix is not finite; design points and sigma_model must be finite")
    eigs = np.linalg.eigvalsh(B)
    return (active >= p) & (eigs[..., 0] > MIN_EIG_RATIO * np.maximum(eigs[..., -1], 0.0))


def is_nested_binary(weights_list: Sequence[np.ndarray]) -> bool:
    """Check w_{l,i} w_{m,i} = w_{l,i} for all l <= m (0/1 nested windows), to within 1e-12."""
    ws = [np.asarray(w, dtype=float) for w in weights_list]
    for l, wl in enumerate(ws):
        for wm in ws[l:]:
            if np.max(np.abs(wl * wm - wl)) > 1e-12:
                return False
    return True


def stacked_designs(basis: Basis, ladder: ScaleLadder, points, centres, sigma):
    """All K scales' design objects at G reference points, each on its own slab of L points.

    points (G, L, d) holds each reference point's design points, centres
    (G, d) the reference points and sigma (G, L) the model standard
    deviations.  Returns psi (G, p, L), the weights W (G, K, L), PW (G, K, p, L)
    with PW_k = Psi W_k / sigma^2, the symmetrised B_k = PW_k Psi^T (G, K, p, p)
    as one stacked product, and per reference point the number of leading
    scales that pass the conditioning gate (one batched eigenvalue call).
    Each slab's arithmetic is the same whatever G is, so the results for
    a reference point do not depend on the others.
    """
    G, L, d = points.shape
    if d != basis.dim:
        raise ParameterDomainError(f"basis has dim={basis.dim}, points have dim={d}")
    offsets = points - centres[:, None, :]
    psi = np.ascontiguousarray(basis._evaluate(offsets.reshape(G * L, d)).reshape(basis.p, G, L).transpose(1, 0, 2))
    dist = np.linalg.norm(offsets, axis=-1)
    W = kernel_profile(ladder.kernel, dist[:, None, :] / np.asarray(ladder.bandwidths)[:, None])
    PW = psi[:, None] * (W / sigma[:, None, :] ** 2)[:, :, None, :]
    B = PW @ psi.transpose(0, 2, 1)[:, None]
    B = 0.5 * (B + B.swapaxes(-1, -2))
    passed = _conditioned(B, np.count_nonzero(W > 0, axis=-1), basis.p)
    return psi, W, PW, B, np.where(passed.all(axis=-1), ladder.K, passed.argmin(axis=-1))


def factor_solve(B_k: np.ndarray, PW_k: np.ndarray) -> np.ndarray | None:
    """The propagator D_k = B_k^{-1} PW_k, by one LAPACK Cholesky factorization and solve.

    D_k comes back in Fortran order; the factor is not kept.  Returns None
    when B_k is not positive definite after all; the scale then fails.
    """
    c, info = _potrf(B_k, lower=True, clean=False)
    if info != 0:
        return None
    return _potrs(c, PW_k, lower=True)[0]


class LadderDesign:
    """All per-scale design objects for one reference point.

    Builds weights, information matrices B_k and the propagators
    D_k = B_k^{-1} Psi W_k for k = 1..K.  Scales are accepted in order and
    the ladder is truncated at the first scale that fails the conditioning
    gate (at least p weighted points and lambda_min(B_k) > MIN_EIG_RATIO
    lambda_max(B_k)), so selection indices stay contiguous.

    The design is stacked_designs with a batch of one, the builder that
    fit_curve runs on whole chunks of grid points; only the accepted scales
    are solved, by factor_solve, and no Cholesky factor is kept.
    """

    def __init__(self, basis: Basis, ladder: ScaleLadder, design_points, x, sigma_model):
        self.basis = basis
        self.ladder = ladder
        pts = np.asarray(design_points, dtype=float)
        self.points = pts[:, None] if pts.ndim == 1 else pts
        if self.points.ndim != 2:
            raise ParameterDomainError(f"design points must be 1- or 2-dimensional, got shape {pts.shape}")
        d = self.points.shape[1]
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.x.shape != (d,):
            raise ParameterDomainError(f"reference point has dimension {self.x.shape}, expected ({d},)")
        self.sigma_model = np.asarray(sigma_model, dtype=float)
        if self.sigma_model.shape != (self.points.shape[0],):
            raise ParameterDomainError("sigma_model and design_points must have equal length")
        if np.any(self.sigma_model <= 0):
            raise ParameterDomainError("sigma_model entries must be positive")
        psi, W, PW, B, k_gate = stacked_designs(basis, ladder, self.points[None], self.x[None], self.sigma_model[None])
        self.psi = psi[0]
        self.D_list: list[np.ndarray] = []
        for k in range(k_gate[0]):
            D = factor_solve(B[0, k], PW[0, k])
            if D is None:
                break
            self.D_list.append(D)
        K_eff = len(self.D_list)
        self.truncated_at: int | None = K_eff + 1 if K_eff < ladder.K else None  # first rejected 1-indexed scale
        self.weights_list: list[np.ndarray] = list(W[0, :K_eff])
        self.B_list: list[np.ndarray] = list(B[0, :K_eff])

    @property
    def K_eff(self) -> int:
        return len(self.B_list)

    @property
    def support(self) -> np.ndarray:
        """Indices of the points where the largest accepted scale has positive weight.

        The profiles are nonincreasing, so every w_k and D_k is zero outside it.
        """
        if not self.weights_list:
            return np.arange(0)
        return np.flatnonzero(self.weights_list[-1] > 0)

    def restrict(self, cols) -> "LadderDesign":
        """The same design on the points cols only, sharing B_k.

        Fits of the restricted design equal those of the full one when cols
        covers the support.
        """
        sub = copy.copy(self)
        sub.points = self.points[cols]
        sub.sigma_model = self.sigma_model[cols]
        sub.psi = self.psi[:, cols]
        sub.weights_list = [w[cols] for w in self.weights_list]
        sub.D_list = [D[:, cols] for D in self.D_list]
        return sub

    def fit(self, y) -> list[LocalFit]:
        yv = np.asarray(y, dtype=float)
        return [LocalFit(theta=D @ yv, B=B, k=k + 1) for k, (D, B) in enumerate(zip(self.D_list, self.B_list))]

    def fit_stacked(self, Y: np.ndarray) -> np.ndarray:
        """Coefficients for a batch of observation vectors; (m, n) -> (m, K_eff, p)."""
        Y = np.asarray(Y, dtype=float)
        return np.stack([Y @ D.T for D in self.D_list], axis=1)

    def pseudo_true(self, f_values) -> np.ndarray:
        """Pseudo-true coefficient vectors theta_bar_k stacked as (K_eff, p)."""
        f = np.asarray(f_values, dtype=float)
        return np.stack([D @ f for D in self.D_list])

    def growth_bounds(self) -> tuple[float, float]:
        """Tightest (u0, u) with u0 I <= B_{k-1}^{-1/2} B_k B_{k-1}^{-1/2} <= u I.

        Computed from the accepted information matrices, not from nominal
        bandwidth ratios.  For a single scale returns (inf, 1.0) degenerately.
        """
        lo, hi = math.inf, 1.0
        for Bprev, Bnext in zip(self.B_list[:-1], self.B_list[1:]):
            vals = eigvalsh(Bnext, Bprev)  # generalized problem, same spectrum as the similarity
            lo = min(lo, float(vals[0]))
            hi = max(hi, float(vals[-1]))
        return lo, hi
