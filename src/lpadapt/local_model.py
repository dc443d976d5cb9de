"""Localized weighted designs and quasi-likelihood fits at a reference point.

A scale is a set of kernel weights around a reference point x.  For each
scale k the weighted information matrix

    B_k = sum_i Psi_i Psi_i^T w_{k,i} / sigma_i^2

is assembled and the weighted least-squares (quasi-ML) coefficient vector is
obtained from the normal equations B_k theta = Psi W_k y.  Every scale of
a stack of ladders is solved at once for its propagator
D_k = B_k^{-1} Psi W_k by stacked_solve: a Cholesky factorization of B_k and
two triangular solves, written as loops over p whose every step is one
elementwise array operation over all (point, scale) pairs.  The factor is
not kept, and no explicit inverse is formed.  Every caller solves every
scale, then keeps a ladder's leading min(pivot count, gate_count) scales.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import ParameterDomainError

#: reject a scale unless lambda_min > MIN_EIG_RATIO * lambda_max for its Jacobi-scaled B (_conditioned)
MIN_EIG_RATIO = 1e-10
#: relative margin by which _conditioned's Gershgorin bounds must clear MIN_EIG_RATIO to skip eigvalsh
_GATE_MARGIN = 1e-12
#: smallest sigma whose square is a normal float; 1 / sigma^2 is then at most 4.5e307
SIGMA_MIN = math.sqrt(np.finfo(float).tiny)


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

        def evaluate(offsets: np.ndarray) -> np.ndarray:
            # offsets: (n, dim) -> (p, n).  Powers are repeated products, which round every
            # element alike; an array ** rounds by the element's place in numpy's SIMD loop.
            table = [np.ones_like(offsets)]
            for _ in range(degree):
                table.append(table[-1] * offsets)
            out = np.empty((len(alphas), offsets.shape[0]))
            for row, a in zip(out, alphas):  # u_1^a_1 u_2^a_2 ..., multiplied in coordinate order
                np.copyto(row, table[a[0]][:, 0])
                for j in range(1, dim):
                    row *= table[a[j]][:, j]
            out *= inv_fact[:, None]
            return out

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
        if not np.all(np.isfinite(h)) or np.any(h <= 0) or np.any(np.diff(h) <= 0):
            raise ParameterDomainError("bandwidths must be finite, positive and strictly increasing")
        if self.kernel not in KERNELS:
            raise ParameterDomainError(f"unknown kernel {self.kernel!r}; choose one of {KERNELS}")

    @classmethod
    def geometric(cls, h1: float, K: int, growth: float = 1.25, kernel: str = "boxcar") -> "ScaleLadder":
        if not 1.0 < growth < math.inf:  # NaN fails too
            raise ParameterDomainError("growth factor must be finite and exceed 1")
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


def relative_gap(sigma_model, sigma_true) -> float:
    """The misspecification gap delta = max_i |sigma_true_i^2 / sigma_model_i^2 - 1|."""
    ratio = np.asarray(sigma_true, dtype=float) / np.asarray(sigma_model, dtype=float)
    return float(np.max(np.abs(ratio**2 - 1.0)))


def check_sigma(sigma, name: str = "sigma_model") -> np.ndarray:
    """sigma as a float array, after checking that every entry is finite and at least SIGMA_MIN.

    The designs weight by 1 / sigma^2.  Only comparisons are made, so a bad
    sigma raises ParameterDomainError naming `name`, never a numpy warning.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all((sigma >= SIGMA_MIN) & (sigma < math.inf)):  # NaN fails too
        raise ParameterDomainError(f"{name} must be positive and finite, and its square must not underflow")
    return sigma


def check_noise(sigma_model, sigma_true=None, declared: float | None = None) -> float:
    """The gap delta of a noise model, after checking the model's domain.

    sigma_model must pass check_sigma, and sigma_true, when given, be
    positive and of the same shape, with a relative_gap at most the
    declared budget.  Returns the declared budget when one is given, else
    the realized gap, else 0; it must lie in [0, 1).
    """
    sigma_model = check_sigma(sigma_model)
    realized = 0.0
    if sigma_true is not None:
        sigma_true = np.asarray(sigma_true, dtype=float)
        if sigma_true.shape != sigma_model.shape:
            raise ParameterDomainError("sigma_true and sigma_model must have equal length")
        if np.any(sigma_true <= 0):
            raise ParameterDomainError("true standard deviations must be positive")
        realized = relative_gap(sigma_model, sigma_true)
        if declared is not None and realized > declared + 1e-12:
            raise ParameterDomainError(f"declared delta={declared} exceeded by realized relative gap {realized:.6g}")
    delta = realized if declared is None else declared
    _check_delta(delta)
    return delta


def _check_delta(delta: float):
    if not 0.0 <= delta < 1.0:
        raise ParameterDomainError(f"delta={delta} outside [0, 1)")


def generalized_eigvalsh(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues lambda of A v = lambda B v, for A symmetric and B positive definite.

    With B = L L^T they are the eigenvalues of L^{-1} A L^{-T}, symmetrised
    before the eigensolve.  Raises numpy.linalg.LinAlgError (a ValueError)
    when A or B has a non-finite entry, which LAPACK does not check, or B is
    not positive definite.
    """
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise np.linalg.LinAlgError("generalized eigenproblem with a non-finite entry")
    L = np.linalg.cholesky(B)
    M = np.linalg.solve(L, np.linalg.solve(L, A).T)
    return np.linalg.eigvalsh(0.5 * (M + M.T))


@dataclass
class LocalFit:
    """Coefficient vector for one scale, with the information matrix used."""

    theta: np.ndarray
    B: np.ndarray
    k: int


def _conditioned(B: np.ndarray, active, p: int) -> np.ndarray:
    """Conditioning gate for stacked information matrices (..., p, p).

    Scale k passes when at least p points carry positive weight and the
    Jacobi-scaled matrix S = D^(-1/2) B_k D^(-1/2), D = diag(B_k), has
    lambda_min(S) > MIN_EIG_RATIO * lambda_max(S).  A diagonal entry <= 0
    zeroes its row and column of S (1/sqrt(inf) = 0), so that scale fails.
    A change of the unit of x multiplies a polynomial basis by a diagonal
    matrix, which this scaling removes, so the gate does not depend on the
    unit of x.

    Gershgorin's discs bound the spectrum of S to [lo, hi], the least
    S_ii - R_i and the largest S_ii + R_i with R_i = sum_{j != i} |S_ij|.
    A scale with lo > (MIN_EIG_RATIO + _GATE_MARGIN * p) hi passes
    without an eigenvalue call.  LAPACK's eigenvalues of S are exact for a
    matrix within c p eps ||S|| of S, c a small constant, so by Weyl's
    inequality they lie that close to the exact ones; ||S|| <= hi, and the
    margin 1e-12 p hi is about 4500 p eps hi, so eigvalsh would pass the
    scale too.  Only the other scales with at least p active points go to
    eigvalsh.
    """
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    s = 1.0 / np.sqrt(np.where(diag > 0, diag, np.inf))
    S = s[..., :, None] * B * s[..., None, :]
    # disc i has centre S_ii and radius R_i; loops over p, as numpy reduces a length-p axis slowly
    discs = [(S[..., i, i], sum(np.abs(S[..., i, j]) for j in range(p) if j != i)) for i in range(p)]
    lo = functools.reduce(np.minimum, [centre - radius for centre, radius in discs])
    hi = functools.reduce(np.maximum, [centre + radius for centre, radius in discs])
    usable = active >= p
    passed = usable & (lo > (MIN_EIG_RATIO + _GATE_MARGIN * p) * hi)
    rest = usable & ~passed
    if rest.any():
        eigs = np.linalg.eigvalsh(S[rest])
        passed[rest] = eigs[:, 0] > MIN_EIG_RATIO * np.maximum(eigs[:, -1], 0.0)
    return passed


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
    as one stacked product, and each scale's count of points with nonzero
    weight (G, K), which gate_count reads.  Nothing is gated here; a B_k
    that is not finite raises ParameterDomainError.
    Each slab's arithmetic is the same whatever G is, so the results for
    a reference point do not depend on the others.
    """
    G, L, d = points.shape
    if d != basis.dim:
        raise ParameterDomainError(f"basis has dim={basis.dim}, points have dim={d}")
    offsets = points - centres[:, None, :]
    psi = np.ascontiguousarray(basis._evaluate(offsets.reshape(G * L, d)).reshape(basis.p, G, L).transpose(1, 0, 2))
    dist = np.sqrt(np.add.reduce(offsets * offsets, axis=-1))  # np.linalg.norm's arithmetic
    W = kernel_profile(ladder.kernel, dist[:, None, :] / np.asarray(ladder.bandwidths)[:, None])
    PW = psi[:, None] * (W / sigma[:, None, :] ** 2)[:, :, None, :]
    B = PW @ psi.transpose(0, 2, 1)[:, None]
    B = 0.5 * (B + B.swapaxes(-1, -2))
    if not np.all(np.isfinite(B)):
        raise ParameterDomainError("information matrix is not finite; design points and sigma_model must be finite")
    return psi, W, PW, B, np.count_nonzero(W, axis=-1)


def gate_count(B: np.ndarray, active: np.ndarray, p: int) -> np.ndarray:
    """Per ladder, the number of leading scales that pass the conditioning gate (_conditioned).

    B (..., K, p, p) and active (..., K) are stacked_designs' matrices and
    counts; a ladder's count is the index of its first failing scale, K
    when none fails.
    """
    passed = _conditioned(B, active, p)
    return np.where(passed.all(axis=-1), B.shape[-3], passed.argmin(axis=-1))


def stacked_solve(B: np.ndarray, PW: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every propagator D_k = B_k^{-1} PW_k of a stack of ladders, by Cholesky factorization.

    B (..., K, p, p) and PW (..., K, p, L) are stacked_designs' matrices.
    B_k = C C^T is factored from its lower triangle, then C Y = PW_k and
    C^T D_k = Y are solved.  Each is a loop over p whose steps are
    elementwise array operations over all (ladder, scale) pairs, in the
    order of LAPACK's potf2 and OpenBLAS's trsm: a pivot is a square root,
    and columns and solves multiply by its reciprocal.  So each slice rounds
    the same whatever else is in the stack.  Every solve step writes its
    result straight into D (out=), through one scratch (..., K, L) product.

    Returns D (..., K, p, L), each (p, L) slice in Fortran order as LAPACK's
    potrs leaves it, and per ladder the pivot count, the number of leading
    scales whose pivots are all > 0 (NaN fails).  Every scale is solved; one
    whose pivot fails goes on with a unit pivot, and its D is not used.
    """
    K, p = B.shape[-3], B.shape[-1]
    ok = np.ones(B.shape[:-2], dtype=bool)
    C = np.zeros(B.shape)
    rinv = np.empty(B.shape[:-1])  # reciprocal pivots
    for j in range(p):
        pivot = B[..., j, j] - sum(C[..., j, k] * C[..., j, k] for k in range(j))
        ok &= pivot > 0
        rinv[..., j] = 1.0 / np.sqrt(np.where(ok, pivot, 1.0))
        for i in range(j + 1, p):
            C[..., i, j] = (B[..., i, j] - sum(C[..., i, k] * C[..., j, k] for k in range(j))) * rinv[..., j]
    D = np.empty(PW.shape[:-2] + PW.shape[-1:] + PW.shape[-2:-1]).swapaxes(-1, -2)
    prod = np.empty(PW.shape[:-2] + PW.shape[-1:])  # one term D_k C_ik at a time
    for i in range(p):  # C Y = PW, Y into D
        Di, acc = D[..., i, :], PW[..., i, :]
        for k in range(i):
            acc = np.subtract(acc, np.multiply(D[..., k, :], C[..., i, k, None], out=prod), out=Di)
        np.multiply(acc, rinv[..., i, None], out=Di)
    for i in reversed(range(p)):  # C^T D = Y
        Di = D[..., i, :]
        for k in range(p - 1, i, -1):
            np.subtract(Di, np.multiply(D[..., k, :], C[..., k, i, None], out=prod), out=Di)
        np.multiply(Di, rinv[..., i, None], out=Di)
    return D, np.where(ok.all(axis=-1), K, ok.argmin(axis=-1))


class LadderDesign:
    """All per-scale design objects for one reference point.

    Builds weights, information matrices B_k and the propagators
    D_k = B_k^{-1} Psi W_k for k = 1..K by stacked_designs and stacked_solve
    on a batch of one, as fit_curve does on the grid.  Every scale is
    solved, then the ladder is cut at the first scale whose Cholesky pivot
    is not positive or that fails the conditioning gate (at least p weighted
    points and, after Jacobi scaling of B_k, lambda_min > MIN_EIG_RATIO
    lambda_max): K_eff = min(pivot count, gate_count).
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
        self.sigma_model = check_sigma(sigma_model)
        if self.sigma_model.shape != (self.points.shape[0],):
            raise ParameterDomainError("sigma_model and design_points must have equal length")
        psi, W, PW, B, active = stacked_designs(basis, ladder, self.points[None], self.x[None], self.sigma_model[None])
        self.psi = psi[0]
        D, pivots = stacked_solve(B, PW)
        K_eff = int(min(pivots[0], gate_count(B, active, basis.p)[0]))
        self.D_list: list[np.ndarray] = list(D[0, :K_eff])
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
            vals = generalized_eigvalsh(Bnext, Bprev)  # same spectrum as the similarity
            lo = min(lo, float(vals[0]))
            hi = max(hi, float(vals[-1]))
        return lo, hi
