"""Localized weighted designs and quasi-likelihood fits at a reference point.

A scale is a set of kernel weights around a reference point x.  For each
scale k the weighted information matrix

    B_k = sum_i Psi_i Psi_i^T w_{k,i} / sigma_i^2

is assembled and the weighted least-squares (quasi-ML) coefficient vector is
obtained from the normal equations B_k theta = Psi W_k y.  All solvers use a
symmetric positive-definite factorization of B_k; no explicit inverse is
formed outside of test oracles.
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


def _as_points(points) -> np.ndarray:
    """Normalize design points to an (n, d) float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ParameterDomainError(f"design points must be 1- or 2-dimensional, got shape {pts.shape}")
    return pts


def _as_point(x, d: int) -> np.ndarray:
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (d,):
        raise ParameterDomainError(f"reference point has dimension {xv.shape}, expected ({d},)")
    return xv


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

    The polynomial kind in dimension d uses all monomials of total degree
    <= degree, ordered by degree then lexicographically, normalized as
    u^a / a! so that psi(0) = (1, 0, ..., 0) and, in d = 1, the j-th
    coefficient estimates the (j-1)-th derivative of the target function.
    """

    kind: str
    p: int
    dim: int
    _evaluate: Callable[[np.ndarray], np.ndarray]
    degree: int | None = None

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
        expo = np.array(alphas, dtype=float)  # (p, dim)

        def evaluate(offsets: np.ndarray) -> np.ndarray:
            # offsets: (n, dim) -> (p, n)
            powers = offsets[None, :, :] ** expo[:, None, :]
            return powers.prod(axis=2) * inv_fact[:, None]

        return cls(kind="polynomial", p=len(alphas), dim=dim, _evaluate=evaluate, degree=degree)

    @classmethod
    def custom(cls, p: int, func: Callable[[np.ndarray], np.ndarray], dim: int = 1) -> "Basis":
        """Wrap a user function mapping a single offset (dim,) to R^p."""
        if p < 1:
            raise ParameterDomainError("basis size p must be >= 1")

        def evaluate(offsets: np.ndarray) -> np.ndarray:
            cols = [np.asarray(func(o), dtype=float).reshape(p) for o in offsets]
            return np.array(cols).reshape(len(cols), p).T

        return cls(kind="custom", p=p, dim=dim, _evaluate=evaluate)

    def evaluate(self, offset) -> np.ndarray:
        """Basis vector at a single offset t - x; shape (p,)."""
        off = np.atleast_1d(np.asarray(offset, dtype=float)).reshape(1, self.dim)
        return self._evaluate(off)[:, 0]

    def design_matrix(self, design_points, x) -> np.ndarray:
        """Matrix Psi with columns Psi_i = psi(X_i - x); shape (p, n)."""
        pts = _as_points(design_points)
        xv = _as_point(x, pts.shape[1])
        if pts.shape[1] != self.dim:
            raise ParameterDomainError(f"basis has dim={self.dim}, points have dim={pts.shape[1]}")
        return self._evaluate(pts - xv)


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


def build_weights(ladder: ScaleLadder, design_points, x, k: int) -> np.ndarray:
    """Kernel weights w_{k,i}(x) in [0, 1] for scale k (1-indexed).

    Boxcar returns the indicator of ||X_i - x|| <= h_k; all kernels produce
    weights nondecreasing in k pointwise because the profiles are
    nonincreasing in scaled distance.
    """
    if not 1 <= k <= ladder.K:
        raise ParameterDomainError(f"scale index {k} outside 1..{ladder.K}")
    pts = _as_points(design_points)
    xv = _as_point(x, pts.shape[1])
    dist = np.linalg.norm(pts - xv, axis=1)
    return kernel_profile(ladder.kernel, dist / ladder.bandwidths[k - 1])


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


def _conditioned(B: np.ndarray, active, p: int, min_eig_ratio: float) -> np.ndarray:
    """Conditioning gate for stacked information matrices (..., p, p).

    Scale k passes when at least p points carry positive weight and
    lambda_min(B_k) > min_eig_ratio * lambda_max(B_k).
    """
    if not np.all(np.isfinite(B)):
        raise ParameterDomainError("information matrix is not finite; design points and sigma_model must be finite")
    eigs = np.linalg.eigvalsh(B)
    return (active >= p) & (eigs[..., 0] > min_eig_ratio * np.maximum(eigs[..., -1], 0.0))


def growth_bounds(B_list: Sequence[np.ndarray]) -> tuple[float, float]:
    """Tightest (u0, u) with u0 I <= B_{k-1}^{-1/2} B_k B_{k-1}^{-1/2} <= u I.

    Computed from the actual information matrices, not from nominal
    bandwidth ratios.  For a single scale returns (inf, 1.0) degenerately.
    """
    lo, hi = math.inf, 1.0
    for Bprev, Bnext in zip(B_list[:-1], B_list[1:]):
        vals = eigvalsh(Bnext, Bprev)  # generalized problem, same spectrum as the similarity
        lo = min(lo, float(vals[0]))
        hi = max(hi, float(vals[-1]))
    return lo, hi


def is_nested_binary(weights_list: Sequence[np.ndarray], tol: float = 1e-12) -> bool:
    """Check w_{l,i} w_{m,i} = w_{l,i} for all l <= m (0/1 nested windows)."""
    ws = [np.asarray(w, dtype=float) for w in weights_list]
    for l, wl in enumerate(ws):
        for wm in ws[l:]:
            if np.max(np.abs(wl * wm - wl)) > tol:
                return False
    return True


def stacked_designs(basis: Basis, ladder: ScaleLadder, points, centres, sigma, min_eig_ratio: float = MIN_EIG_RATIO):
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
    passed = _conditioned(B, np.count_nonzero(W > 0, axis=-1), basis.p, min_eig_ratio)
    return psi, W, PW, B, np.where(passed.all(axis=-1), ladder.K, passed.argmin(axis=-1))


def factor_solve(B_k: np.ndarray, PW_k: np.ndarray):
    """Cholesky factor c of B_k and D_k = B_k^{-1} PW_k, by direct LAPACK calls.

    D_k comes back in Fortran order.  Returns None when B_k is not positive
    definite after all; the scale then fails.
    """
    c, info = _potrf(B_k, lower=True, clean=False)
    if info != 0:
        return None
    return c, _potrs(c, PW_k, lower=True)[0]


class LadderDesign:
    """All per-scale design objects for one reference point.

    Builds weights, information matrices B_k, their Cholesky factors and the
    propagators D_k = B_k^{-1} Psi W_k for k = 1..K.  Scales are accepted in
    order and the ladder is truncated at the first scale that fails the
    conditioning gate, so selection indices stay contiguous.

    The design is stacked_designs with a batch of one, the builder that
    fit_curve runs on whole chunks of grid points; only the accepted scales
    are factored and solved.
    """

    def __init__(
        self,
        basis: Basis,
        ladder: ScaleLadder,
        design_points,
        x,
        sigma_model,
        min_eig_ratio: float = MIN_EIG_RATIO,
    ):
        self.basis = basis
        self.ladder = ladder
        self.points = _as_points(design_points)
        self.x = _as_point(x, self.points.shape[1])
        self.sigma_model = np.asarray(sigma_model, dtype=float)
        if self.sigma_model.shape != (self.points.shape[0],):
            raise ParameterDomainError("sigma_model and design_points must have equal length")
        if np.any(self.sigma_model <= 0):
            raise ParameterDomainError("sigma_model entries must be positive")
        psi, W, PW, B, k_gate = stacked_designs(
            basis, ladder, self.points[None], self.x[None], self.sigma_model[None], min_eig_ratio
        )
        self.psi = psi[0]

        self._chol: list[np.ndarray] = []
        self.D_list: list[np.ndarray] = []
        for k in range(k_gate[0]):
            solved = factor_solve(B[0, k], PW[0, k])
            if solved is None:
                break
            self._chol.append(solved[0])
            self.D_list.append(solved[1])
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
        """The same design on the points cols only, sharing B_k and their factors.

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
        return growth_bounds(self.B_list)

    def is_nested_binary(self) -> bool:
        return is_nested_binary(self.weights_list)

    def variance_boxcar_identity_gap(self) -> float:
        """Max |Var theta_k - B_k^{-1}| entry for delta = 0 boxcar ladders.

        Var theta_k = D_k Sigma D_k^T; with 0/1 weights and Sigma the model
        covariance this equals B_k^{-1} exactly.  Returns the worst absolute
        gap, a cheap structural self-check.
        """
        gap = 0.0
        for D, c in zip(self.D_list, self._chol):
            V = (D * self.sigma_model**2) @ D.T
            Binv = _potrs(c, np.eye(self.basis.p), lower=True)[0]
            gap = max(gap, float(np.max(np.abs(V - Binv))))
        return gap
