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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh, get_lapack_funcs

from .exceptions import ParameterDomainError, SingularDesignError

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

    def fitted_value(self, theta: np.ndarray) -> float:
        """sum_j theta_j psi_j(0); first coefficient for the polynomial kind."""
        return float(np.dot(np.asarray(theta, dtype=float), self.evaluate(np.zeros(self.dim))))


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


def _weighted_info(basis: Basis, weights, sigma_model, design_points, x):
    """Return (Psi, wsig, B) with wsig = w_i / sigma_i^2 and B = Psi diag(wsig) Psi^T."""
    w = np.asarray(weights, dtype=float)
    sig = np.asarray(sigma_model, dtype=float)
    psi = basis.design_matrix(design_points, x)
    if not (w.shape[0] == sig.shape[0] == psi.shape[1]):
        raise ParameterDomainError("weights, sigma_model and design_points must have equal length")
    if np.any(sig <= 0):
        raise ParameterDomainError("sigma_model entries must be positive")
    wsig = w / sig**2
    B = (psi * wsig) @ psi.T
    return psi, wsig, 0.5 * (B + B.T)


def _conditioned(B: np.ndarray, active, p: int, min_eig_ratio: float) -> np.ndarray:
    """Conditioning gate for stacked information matrices (K, p, p).

    Scale k passes when at least p points carry positive weight and
    lambda_min(B_k) > min_eig_ratio * lambda_max(B_k).
    """
    if not np.all(np.isfinite(B)):
        raise ParameterDomainError("information matrix is not finite; design points and sigma_model must be finite")
    eigs = np.linalg.eigvalsh(B)
    return (active >= p) & (eigs[:, 0] > min_eig_ratio * np.maximum(eigs[:, -1], 0.0))


def _checked_info(basis: Basis, weights, sigma_model, design_points, x, min_eig_ratio: float = MIN_EIG_RATIO):
    """_weighted_info for one scale, raising SingularDesignError when B fails the gate."""
    psi, wsig, B = _weighted_info(basis, weights, sigma_model, design_points, x)
    active = int(np.count_nonzero(np.asarray(weights, dtype=float) > 0))
    if not _conditioned(B[None], active, basis.p, min_eig_ratio)[0]:
        raise SingularDesignError(
            f"design fails the conditioning gate: {active} active points for p={basis.p}, "
            f"or lambda_min(B) <= {min_eig_ratio:g} lambda_max(B)"
        )
    return psi, wsig, B


def build_B(basis: Basis, weights, sigma_model, design_points, x, min_eig_ratio: float = MIN_EIG_RATIO) -> np.ndarray:
    """Weighted information matrix sum_i Psi_i Psi_i^T w_i / sigma_i^2.

    Raises SingularDesignError when fewer than p points carry positive
    weight or when lambda_min(B) <= min_eig_ratio * lambda_max(B).
    """
    return _checked_info(basis, weights, sigma_model, design_points, x, min_eig_ratio)[2]


def qmle(basis: Basis, weights, sigma_model, design_points, x, y, scale: int = 1) -> LocalFit:
    """Weighted least-squares coefficients solving B theta = Psi W y.

    The estimator is linear in y; the solve uses a Cholesky factorization
    of B.  Propagates SingularDesignError from the conditioning gate.
    """
    psi, wsig, B = _checked_info(basis, weights, sigma_model, design_points, x)
    rhs = psi @ (wsig * np.asarray(y, dtype=float))
    theta = cho_solve(cho_factor(B, lower=True), rhs)
    return LocalFit(theta=theta, B=B, k=scale)


def pseudo_true_parameter(basis: Basis, weights, sigma_model, design_points, x, f_values, scale: int = 1) -> np.ndarray:
    """Best local approximation coefficients: the fit applied to noiseless data."""
    return qmle(basis, weights, sigma_model, design_points, x, f_values, scale=scale).theta


def propagator(basis: Basis, weights, sigma_model, design_points, x) -> np.ndarray:
    """Linear map D = B^{-1} Psi W taking observations to coefficients; shape (p, n)."""
    psi, wsig, B = _checked_info(basis, weights, sigma_model, design_points, x)
    return cho_solve(cho_factor(B, lower=True), psi * wsig)


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


class LadderDesign:
    """All per-scale design objects for one reference point.

    Builds weights, information matrices B_k, their Cholesky factors and the
    propagators D_k = B_k^{-1} Psi W_k for k = 1..K.  Scales are accepted in
    order and the ladder is truncated at the first scale that fails the
    conditioning gate, so selection indices stay contiguous.

    All K scales are evaluated together: the weights as one (K, n) array, the
    B_k as one stacked product and the gate as one batched eigenvalue call.
    Only the accepted scales are factored and solved.
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
        self.psi = basis.design_matrix(self.points, self.x)

        dist = np.linalg.norm(self.points - self.x, axis=1)
        W = kernel_profile(ladder.kernel, dist / np.asarray(ladder.bandwidths)[:, None])  # (K, n)
        PW = self.psi * (W / self.sigma_model**2)[:, None, :]  # (K, p, n): Psi W_k / sigma^2
        B = PW @ self.psi.T
        B = 0.5 * (B + B.transpose(0, 2, 1))
        passed = _conditioned(B, np.count_nonzero(W > 0, axis=1), basis.p, min_eig_ratio)

        self._chol: list[np.ndarray] = []
        self.D_list: list[np.ndarray] = []
        for k in range(ladder.K):
            if not passed[k]:
                break
            c, info = _potrf(B[k], lower=True, clean=False)
            if info != 0:  # not positive definite after all: the scale fails
                break
            self._chol.append(c)
            self.D_list.append(_potrs(c, PW[k], lower=True)[0])
        K_eff = len(self.D_list)
        self.truncated_at: int | None = K_eff + 1 if K_eff < ladder.K else None  # first rejected 1-indexed scale
        self.weights_list: list[np.ndarray] = list(W[:K_eff])
        self.B_list: list[np.ndarray] = list(B[:K_eff])

    @property
    def K_eff(self) -> int:
        return len(self.B_list)

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
