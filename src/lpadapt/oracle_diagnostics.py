"""Joint-law objects, modeling-bias indices and closed-form risk bounds.

Everything here is deterministic given a scene: the stacked covariance of
the per-scale estimators, the bias-to-noise index Delta(k) and its
componentwise analogues, oracle indices, Kullback-Leibler divergences with
their misspecification sandwich, and the closed-form bounds that the
Monte-Carlo experiments are checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh, eigvalsh

from .calibration import CriticalValues, chi_square_moment
from .exceptions import (
    LpAdaptError,
    NoFeasibleScaleError,
    NotBoxcarError,
    ParameterDomainError,
    SingularJointCovarianceError,
)
from .local_model import Basis, LadderDesign, NoiseModel, is_nested_binary


def joint_covariance(d_blocks: Sequence[np.ndarray], variances) -> np.ndarray:
    """Covariance of the stacked estimators (theta_1, ..., theta_k).

    Block (l, m) is D_l diag(variances) D_m^T, i.e. the dense evaluation of
    D (J_k x Sigma) D^T with D block-diagonal.  Pass model variances for the
    calibration law and true variances for the data-generating law.
    """
    var = np.asarray(variances, dtype=float)
    k = len(d_blocks)
    p = d_blocks[0].shape[0]
    S = np.empty((p * k, p * k))
    for l in range(k):
        Dl_v = d_blocks[l] * var
        for m in range(l, k):
            block = Dl_v @ d_blocks[m].T
            S[l * p : (l + 1) * p, m * p : (m + 1) * p] = block
            S[m * p : (m + 1) * p, l * p : (l + 1) * p] = block.T
    return 0.5 * (S + S.T)


def _spd_factor(S: np.ndarray):
    try:
        return cho_factor(S, lower=True)
    except LinAlgError as exc:
        raise SingularJointCovarianceError(str(exc)) from exc


def boxcar_determinant(B_list: Sequence[np.ndarray], weights_list: Sequence[np.ndarray]) -> float:
    """det of the stacked covariance via the nested-window product formula.

    For 0/1 nested weights the (l, m) block of the stacked covariance is
    B_max(l,m)^{-1} and the determinant factors as

        det = det(B_k^{-1}) prod_{l=2..k} det(B_{l-1}^{-1} - B_l^{-1}).

    Raises NotBoxcarError when the weights fail the product identity.
    """
    if not is_nested_binary(weights_list):
        raise NotBoxcarError("weights are not nested 0/1 windows")
    k = len(B_list)
    inv = [np.linalg.inv(B) for B in B_list]
    out = 1.0 / float(np.linalg.det(B_list[-1]))
    for l in range(1, k):
        out *= float(np.linalg.det(inv[l - 1] - inv[l]))
    if out <= 0:
        raise SingularJointCovarianceError("window growth too weak: nonpositive determinant factor")
    return out


def component_submatrix(S: np.ndarray, p: int, j: int) -> np.ndarray:
    """Rows/columns of component j (1-indexed) from every p-block of S."""
    if not 1 <= j <= p:
        raise IndexError(f"component {j} outside 1..{p}")
    idx = np.arange(j - 1, S.shape[0], p)
    return S[np.ix_(idx, idx)]


@dataclass
class ModelingBias:
    """Stacked bias b(k) and the quadratic indices it induces."""

    b: np.ndarray  # (p*k,)
    delta_total: float  # b^T Sigma_k^{-1} b
    delta_components: np.ndarray  # (p,), b_j^T Sigma_{k,j}^{-1} b_j


def modeling_bias(theta_bars: Sequence[np.ndarray], theta_ref: np.ndarray, Sigma_k: np.ndarray) -> ModelingBias:
    """Bias index Delta(k) and its componentwise counterparts at one k."""
    bars = np.asarray(theta_bars, dtype=float)
    k, p = bars.shape
    theta_ref = np.asarray(theta_ref, dtype=float)
    b = (bars - theta_ref[None, :]).reshape(k * p)
    cf = _spd_factor(Sigma_k)
    total = float(b @ cho_solve(cf, b))
    comps = np.empty(p)
    for j in range(1, p + 1):
        bj = b[j - 1 :: p]
        Sj = component_submatrix(Sigma_k, p, j)
        comps[j - 1] = float(bj @ cho_solve(_spd_factor(Sj), bj))
    return ModelingBias(b=b, delta_total=max(total, 0.0), delta_components=np.maximum(comps, 0.0))


def bias_profile(
    theta_bars: Sequence[np.ndarray], theta_ref: np.ndarray, Sigma_full: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delta(k) for k = 1..K and the (K, p) table of componentwise indices."""
    bars = np.asarray(theta_bars, dtype=float)
    K, p = bars.shape
    deltas = np.empty(K)
    comp = np.empty((K, p))
    for k in range(1, K + 1):
        mb = modeling_bias(bars[:k], theta_ref, Sigma_full[: k * p, : k * p])
        deltas[k - 1] = mb.delta_total
        comp[k - 1] = mb.delta_components
    return deltas, comp


def oracle_index(delta_sequence, delta_budget: float) -> int:
    """Largest k with Delta(k) <= budget; raises when even k = 1 fails."""
    seq = np.asarray(delta_sequence, dtype=float)
    if seq.size == 0:
        raise ParameterDomainError("empty Delta sequence")
    ok = np.flatnonzero(seq <= delta_budget)
    if ok.size == 0:
        raise NoFeasibleScaleError(f"Delta(1)={seq[0]:.6g} exceeds the budget {delta_budget:.6g}")
    return int(ok[-1] + 1)


@dataclass
class KlResult:
    kl: float
    lower: float
    upper: float


def kl_joint(Sigma_k: np.ndarray, Sigma_k0: np.ndarray, Delta_k: float, p: int, k: int, delta: float) -> KlResult:
    """KL divergence between the stacked laws, with the misspecification sandwich.

    2 KL = Delta(k) + log(det Sigma_k / det Sigma_k0)
           + tr(Sigma_k^{-1} Sigma_k0) - p k,

    and the sandwich replaces the matrix terms by their delta-extremes.
    """
    cf = _spd_factor(Sigma_k)
    _spd_factor(Sigma_k0)  # fail loudly if the true-law matrix is not PD
    sign, logdet_k = np.linalg.slogdet(Sigma_k)
    sign0, logdet_k0 = np.linalg.slogdet(Sigma_k0)
    if sign <= 0 or sign0 <= 0:
        raise SingularJointCovarianceError("nonpositive determinant in KL evaluation")
    tr = float(np.trace(cho_solve(cf, Sigma_k0)))
    kl = 0.5 * (Delta_k + (logdet_k - logdet_k0) + tr - p * k)
    pk = p * k
    lower = -0.5 * pk * math.log1p(delta) + 0.5 * Delta_k - 0.5 * pk * delta
    upper = -0.5 * pk * math.log1p(-delta) + 0.5 * Delta_k + 0.5 * pk * delta
    return KlResult(kl=kl, lower=lower, upper=upper)


def kl_homogeneous(p: int, k: int, sigma: float, sigma0: float, Delta_k: float) -> float:
    """KL for constant noise levels on both sides:
    p k log(sigma/sigma0) + Delta(k)/2 + p k (sigma0^2/sigma^2 - 1) / 2."""
    return p * k * math.log(sigma / sigma0) + 0.5 * Delta_k + 0.5 * p * k * (sigma0**2 / sigma**2 - 1.0)


def phi_factor(delta: float, homogeneous: bool) -> float:
    """Exponent multiplier in the propagation bound."""
    _check_delta(delta)
    return 1.0 if homogeneous else 2.0 * (1.0 + delta) / (1.0 - delta) ** 2 - 1.0


def _check_delta(delta: float):
    if not 0.0 <= delta < 1.0:
        raise ParameterDomainError(f"delta={delta} outside [0, 1)")


def propagation_bound(
    p: int, k: int, delta: float, Delta_k: float, r: float, alpha: float, homogeneous: bool = False
) -> float:
    """Closed-form bound on the stopped-risk moment at step k:

    (alpha C(p,r))^{1/2} (1+delta)^{pk/4} (1-delta)^{-3pk/4}
        exp{ phi(delta) Delta(k) / (2 (1-delta)) }.
    """
    _check_delta(delta)
    if Delta_k < 0:
        raise ParameterDomainError("Delta(k) must be nonnegative")
    pk = p * k
    return (
        math.sqrt(alpha * chi_square_moment(p, r))
        * (1.0 + delta) ** (pk / 4.0)
        * (1.0 - delta) ** (-3.0 * pk / 4.0)
        * math.exp(phi_factor(delta, homogeneous) * Delta_k / (2.0 * (1.0 - delta)))
    )


def oracle_risk_bound(
    z_kstar: float,
    p: int,
    kstar: int,
    delta: float,
    Delta_budget: float,
    r: float,
    alpha: float,
    homogeneous: bool = False,
) -> float:
    """z_{k*}^{r/2} plus the propagation term at the oracle index."""
    if z_kstar <= 0:
        raise ParameterDomainError("z_{k*} must be positive")
    return z_kstar ** (r / 2.0) + propagation_bound(p, kstar, delta, Delta_budget, r, alpha, homogeneous)


def componentwise_scale(n: int, h: float, d: int, lambda0: float, sigma_max_sq: float, r: float) -> float:
    """(n h^d Lambda_0 / sigma_max^2)^{r/2}, the componentwise risk scaling."""
    if min(n, h, lambda0, sigma_max_sq) <= 0:
        raise ParameterDomainError("scale inputs must be positive")
    return float((n * h**d * lambda0 / sigma_max_sq) ** (r / 2.0))


@dataclass
class ComponentRiskBound:
    bound: float
    scale: float


def oracle_risk_bound_componentwise(
    z_kstar_j: float,
    p: int,
    kstar_j: int,
    delta: float,
    Delta_j: float,
    r: float,
    alpha: float,
    n: int,
    h_kstar_j: float,
    d: int,
    lambda0: float,
    sigma_max_sq: float,
    homogeneous: bool = False,
) -> ComponentRiskBound:
    """Same bound shape for a single coefficient, with the design scaling that
    multiplies the left-hand risk."""
    return ComponentRiskBound(
        bound=oracle_risk_bound(z_kstar_j, p, kstar_j, delta, Delta_j, r, alpha, homogeneous),
        scale=componentwise_scale(n, h_kstar_j, d, lambda0, sigma_max_sq, r),
    )


def lambda0_estimate(B_list: Sequence[np.ndarray], bandwidths, n: int, d: int, sigma_max_sq) -> float:
    """Tightest Lambda_0 with lambda_min(B_k) >= n h_k^d Lambda_0 / sigma_max^2(k)."""
    smax = np.asarray(sigma_max_sq, dtype=float)
    vals = [
        eigvalsh(B)[0] * smax[k] / (n * float(bandwidths[k]) ** d)
        for k, B in enumerate(B_list)
    ]
    return float(min(vals))


def tightest_sj(Sigma_full: np.ndarray, p: int, j: int) -> float:
    """Smallest s_j with Sigma_{k,j}^{-1} <= s_j Sigma_{k,j,diag}^{-1} over all k.

    Computed as max_k lambda_max(Dg^{1/2} Sigma_{k,j}^{-1} Dg^{1/2}) on the
    leading principal submatrices; a reported diagnostic, not a guarantee.
    """
    Sj_full = component_submatrix(Sigma_full, p, j)
    K = Sj_full.shape[0]
    best = 0.0
    for k in range(1, K + 1):
        Sj = Sj_full[:k, :k]
        dg = np.sqrt(np.diag(Sj))
        inv = np.linalg.inv(Sj)
        best = max(best, float(eigvalsh(dg[:, None] * inv * dg[None, :])[-1]))
    return best


def wilks_spectrum(ld: LadderDesign, k: int, sigma_true, tol: float = 1e-8) -> np.ndarray:
    """Nonzero eigenvalues of S = Sigma0^{1/2} W_k Psi^T B_k^{-1} Psi W_k Sigma0^{1/2} at scale k of ld.

    Computed on the p x p similarity B^{-1/2} (Psi W Sigma0 W Psi^T) B^{-1/2}
    to avoid the n x n eigenproblem.  Guards that the projector trace
    tr(D_k Psi^T) equals p and that the largest eigenvalue respects the
    1 + delta cap.
    """
    B, psi, w, sig = ld.B_list[k - 1], ld.psi, ld.weights_list[k - 1], ld.sigma_model
    sig0 = np.asarray(sigma_true, dtype=float)

    evals_B, vecs = eigh(B)
    B_inv_half = vecs @ np.diag(evals_B**-0.5) @ vecs.T
    M = (psi * (w**2 * sig0**2 / sig**4)) @ psi.T
    lam = eigvalsh(B_inv_half @ M @ B_inv_half)[::-1]

    p = ld.basis.p
    proj_trace = float(np.trace(ld.D_list[k - 1] @ psi.T))
    if abs(proj_trace - p) > tol * max(1.0, p):
        raise LpAdaptError(f"projector trace {proj_trace} != p={p}")
    delta = float(np.max(np.abs((sig0 / sig) ** 2 - 1.0)))
    if lam[0] > (1.0 + delta) * (1.0 + tol) + tol:
        raise LpAdaptError(f"largest eigenvalue {lam[0]:.6g} exceeds 1 + delta = {1 + delta:.6g}")
    return np.maximum(lam, 0.0)


def smb_from_tradeoff(
    bias_sequence,
    variance_sequence,
    C_j: float,
    s_j: float,
    u0: float,
    delta: float,
) -> tuple[int, float]:
    """Ideal scale from the bias-variance balance and the implied budget.

    bias_sequence holds per-scale absolute biases of the component; the
    running sup is applied internally.  Returns the largest k with
    sup-bias_k <= C_j sqrt(var_k) and the budget
    s_j C_j^2 (1 + delta) / (1 - 1/u0).
    """
    _check_delta(delta)
    if u0 <= 1.0:
        raise ParameterDomainError("u0 must exceed 1")
    bias = np.maximum.accumulate(np.abs(np.asarray(bias_sequence, dtype=float)))
    sd = np.sqrt(np.asarray(variance_sequence, dtype=float))
    if bias.shape != sd.shape:
        raise ParameterDomainError("bias and variance sequences must have equal length")
    ok = np.flatnonzero(bias <= C_j * sd)
    if ok.size == 0:
        raise NoFeasibleScaleError("even the smallest scale violates the balance relation")
    budget = s_j * C_j**2 * (1.0 + delta) / (1.0 - 1.0 / u0)
    return int(ok[-1] + 1), float(budget)


def z_moment_bounds(p: int, k: int, delta: float, Delta_k: float, homogeneous: bool = False) -> tuple[float, float]:
    """Closed-form lower/upper bounds for the second moment of the
    likelihood-ratio between the stacked laws."""
    _check_delta(delta)
    pk = p * k
    if homogeneous:
        e_lo = Delta_k / (1.0 + delta)
        e_hi = Delta_k / (1.0 - delta)
    else:
        e_lo = (2.0 * (1.0 - delta) / (1.0 + delta) ** 2 - 1.0) * Delta_k / (1.0 + delta)
        e_hi = (2.0 * (1.0 + delta) / (1.0 - delta) ** 2 - 1.0) * Delta_k / (1.0 - delta)
    lower = ((1.0 - delta) / (1.0 + delta) ** 3) ** (pk / 2.0) * math.exp(e_lo)
    upper = ((1.0 + delta) / (1.0 - delta) ** 3) ** (pk / 2.0) * math.exp(e_hi)
    return lower, upper


def z_second_moment_homogeneous(p: int, k: int, sigma: float, sigma0: float, Delta_k: float) -> float:
    """Exact second moment of the likelihood ratio for constant noise levels.

    Requires 2 sigma^2 > sigma0^2; Delta_k is the standard bias index, so the
    paper-form exponent b^T V^{-1} b / (2 sigma^2 - sigma0^2) equals
    Delta_k / (2 - sigma0^2/sigma^2).
    """
    rho = sigma0**2 / sigma**2
    if 2.0 - rho <= 0:
        raise ParameterDomainError("second moment diverges: need sigma0^2 < 2 sigma^2")
    pk = p * k
    return float((1.0 / rho) ** pk * (rho / (2.0 - rho)) ** (pk / 2.0) * math.exp(Delta_k / (2.0 - rho)))


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


@dataclass
class OracleReport:
    """Every deterministic bound, index and identity for one scene and point."""

    x: list
    p: int
    K: int
    delta: float
    homogeneous: bool
    phi: float
    u0_hat: float
    u_hat: float
    lambda0: float
    theta_ref: list
    delta_seq: list
    delta_seq_monotone: bool
    delta_components: list  # (K, p)
    delta_budget: float
    k_star: int
    z_kstar: float
    oracle_bound: float
    kl: list  # per k: {k, kl, lower, upper, within}
    propagation_bounds: list
    z2_bounds: list  # per k: {k, lower, upper}
    components: list  # per j: {j, s_j, k_star_j, Delta_j_budget, z, bound, scale, k_ideal}
    boxcar_determinant_check: dict | None

    def to_json(self) -> str:
        return json.dumps(_jsonify(asdict(self)), indent=2)


def build_oracle_report(
    basis: Basis,
    ladder,
    design_points,
    x,
    noise: NoiseModel,
    f_values,
    cv: CriticalValues,
    delta_budget: float = 1.0,
    C_j: float = 1.0,
    theta_ref: np.ndarray | None = None,
) -> OracleReport:
    """Evaluate the full diagnostics stack for one scene at one point.

    The reference parameter defaults to the smallest-window pseudo-true
    vector, which makes Delta(1) = 0 and every oracle index well defined.
    """
    ld = LadderDesign(basis, ladder, design_points, x, noise.sigma_model)
    if ld.K_eff < 1:
        raise SingularJointCovarianceError("no usable scale at the requested point")
    K, p = ld.K_eff, basis.p
    sig = ld.sigma_model
    sig0 = noise.sigma_true if noise.sigma_true is not None else sig
    delta = noise.delta
    homogeneous = float(np.ptp(sig)) < 1e-12 and float(np.ptp(np.asarray(sig0))) < 1e-12

    bars = ld.pseudo_true(f_values)
    ref = bars[0] if theta_ref is None else np.asarray(theta_ref, dtype=float)
    Sigma = joint_covariance(ld.D_list, sig**2)
    Sigma0 = joint_covariance(ld.D_list, np.asarray(sig0) ** 2)
    deltas, delta_j = bias_profile(bars, ref, Sigma)
    monotone = bool(np.all(np.diff(deltas) >= -1e-8 * np.maximum(deltas[:-1], 1.0)))

    k_star = oracle_index(deltas, delta_budget)
    z_vec = np.asarray(cv.z, dtype=float)
    z_kstar = float(z_vec[min(k_star, K - 1) - 1]) if K > 1 else float("nan")
    phi = phi_factor(delta, homogeneous)
    bound = (
        oracle_risk_bound(z_kstar, p, k_star, delta, delta_budget, cv.r, cv.alpha, homogeneous)
        if K > 1
        else float("nan")
    )

    kl_rows, prop_rows, z2_rows = [], [], []
    for k in range(1, K + 1):
        res = kl_joint(Sigma[: k * p, : k * p], Sigma0[: k * p, : k * p], float(deltas[k - 1]), p, k, delta)
        kl_rows.append(
            {"k": k, "kl": res.kl, "lower": res.lower, "upper": res.upper,
             "within": bool(res.lower - 1e-9 <= res.kl <= res.upper + 1e-9)}
        )
        prop_rows.append(
            {"k": k, "bound": propagation_bound(p, k, delta, float(deltas[k - 1]), cv.r, cv.alpha, homogeneous)}
        )
        lo, hi = z_moment_bounds(p, k, delta, float(deltas[k - 1]), homogeneous)
        z2_rows.append({"k": k, "lower": lo, "upper": hi})

    u0_hat, u_hat = ld.growth_bounds() if K > 1 else (float("inf"), 1.0)
    active_sig_max = np.array([float(np.max(sig[w > 0] ** 2)) for w in ld.weights_list])
    sigma_bar_max = np.maximum.accumulate(active_sig_max)
    lambda0 = lambda0_estimate(ld.B_list, ladder.bandwidths[:K], ld.points.shape[0], ld.points.shape[1], active_sig_max)

    components = []
    for j in range(1, p + 1):
        s_j = tightest_sj(Sigma, p, j)
        var_true_j = np.array(
            [float(((ld.D_list[k] * np.asarray(sig0) ** 2) @ ld.D_list[k].T)[j - 1, j - 1]) for k in range(K)]
        )
        bias_j = np.abs(bars[:, j - 1] - ref[j - 1])
        if K > 1 and u0_hat > 1.0:
            try:
                k_ideal, budget_j = smb_from_tradeoff(bias_j, var_true_j, C_j, s_j, u0_hat, delta)
            except NoFeasibleScaleError:
                k_ideal, budget_j = 0, float("nan")
        else:
            k_ideal, budget_j = K, float("nan")
        budget_eff = budget_j if math.isfinite(budget_j) else delta_budget
        k_star_j = oracle_index(delta_j[:, j - 1], budget_eff)
        z_j = float(z_vec[min(k_star_j, K - 1) - 1]) if K > 1 else float("nan")
        comp = {
            "j": j,
            "s_j": s_j,
            "k_ideal": k_ideal,
            "Delta_j_budget": budget_eff,
            "k_star_j": k_star_j,
            "z": z_j,
        }
        if K > 1:
            crb = oracle_risk_bound_componentwise(
                z_j, p, k_star_j, delta, budget_eff, cv.r, cv.alpha,
                n=ld.points.shape[0], h_kstar_j=float(ladder.bandwidths[k_star_j - 1]),
                d=ld.points.shape[1], lambda0=lambda0,
                sigma_max_sq=float(sigma_bar_max[k_star_j - 1]), homogeneous=homogeneous,
            )
            comp["bound"] = crb.bound
            comp["scale"] = crb.scale
        components.append(comp)

    det_check = None
    if ld.is_nested_binary() and K >= 2:
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(Sigma))
        det_check = {"formula": formula, "dense": dense, "rel_err": abs(formula - dense) / abs(dense)}

    return OracleReport(
        x=_jsonify(ld.x),
        p=p,
        K=K,
        delta=float(delta),
        homogeneous=homogeneous,
        phi=float(phi),
        u0_hat=float(u0_hat),
        u_hat=float(u_hat),
        lambda0=float(lambda0),
        theta_ref=_jsonify(ref),
        delta_seq=_jsonify(deltas),
        delta_seq_monotone=monotone,
        delta_components=_jsonify(delta_j),
        delta_budget=float(delta_budget),
        k_star=k_star,
        z_kstar=z_kstar,
        oracle_bound=float(bound),
        kl=_jsonify(kl_rows),
        propagation_bounds=_jsonify(prop_rows),
        z2_bounds=_jsonify(z2_rows),
        components=_jsonify(components),
        boxcar_determinant_check=_jsonify(det_check),
    )
