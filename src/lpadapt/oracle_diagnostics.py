"""Joint-law objects, modeling-bias indices and closed-form risk bounds.

Everything here is deterministic given a scene: the stacked covariance of
the per-scale estimators, the bias-to-noise index Delta(k) and its
componentwise analogues, oracle indices, Kullback-Leibler divergences with
their misspecification sandwich, and the closed-form bounds that the
Monte-Carlo experiments are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .calibration import CriticalValues, chi_square_moment
from .exceptions import (
    LpAdaptError,
    NoFeasibleScaleError,
    NotBoxcarError,
    ParameterDomainError,
    SingularJointCovarianceError,
)
from .fll_selector import _thresholds
from .local_model import (Basis, LadderDesign, _check_delta, check_noise, generalized_eigvalsh, is_nested_binary,
                          relative_gap)


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


def _spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of S = L L^T.

    Raises SingularJointCovarianceError when S is not positive definite or
    has a non-finite entry, which LAPACK does not check.
    """
    if not np.isfinite(S).all():
        raise SingularJointCovarianceError("joint covariance has a non-finite entry")
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
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


def _prefix_forms(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b[:i]^T S[:i, :i]^{-1} b[:i] for i = 1..len(b), from one factor S = L L^T.

    The leading i x i block of L is the factor of the leading block of S,
    so forward substitution w = L^{-1} b yields every prefix form as a
    running sum of w_i^2.  The loop divides by the diagonal alone, so a
    zero prefix of b gives a zero prefix of w exactly.
    """
    L = _spd_factor(S)
    w = np.empty(b.size)
    for i in range(b.size):
        w[i] = (b[i] - L[i, :i] @ w[:i]) / L[i, i]
    return np.cumsum(w * w)


def bias_profile(
    theta_bars: Sequence[np.ndarray], theta_ref: np.ndarray, Sigma_full: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delta(k) = b_k^T Sigma_k^{-1} b_k for k = 1..K, and the (K, p) table of componentwise indices.

    b_k stacks theta_bar_l - theta_ref over l <= k, and Sigma_k is the
    leading kp x kp block of Sigma_full, so every Delta(k) is a prefix form
    of one factor of Sigma_full.  Component j's index
    b_{k,j}^T Sigma_{k,j}^{-1} b_{k,j} reads b's j-th entries against
    component_submatrix(Sigma_k, p, j), a prefix form of that block's factor.
    """
    bars = np.asarray(theta_bars, dtype=float)
    K, p = bars.shape
    b = bars - np.asarray(theta_ref, dtype=float)[None, :]  # (K, p): row l - 1 is theta_bar_l - theta_ref
    deltas = _prefix_forms(Sigma_full, b.reshape(K * p))[p - 1 :: p]
    comp = [_prefix_forms(component_submatrix(Sigma_full, p, j), b[:, j - 1]) for j in range(1, p + 1)]
    return deltas, np.stack(comp, axis=1)


def oracle_index(delta_sequence, delta_budget: float) -> int:
    """Largest k with Delta(k) <= budget; raises when even k = 1 fails."""
    seq = np.asarray(delta_sequence, dtype=float)
    if seq.size == 0:
        raise ParameterDomainError("empty Delta sequence")
    ok = np.flatnonzero(seq <= delta_budget)
    if ok.size == 0:
        raise NoFeasibleScaleError(f"Delta(1)={seq[0]:.6g} exceeds the budget {delta_budget:.6g}")
    return int(ok[-1] + 1)


class PointOracle(NamedTuple):
    """The oracle objects of one point's ladder, shared by diagnose and simulate."""

    bars: np.ndarray  # (K, p) pseudo-true vectors
    theta_ref: np.ndarray
    Sigma: np.ndarray  # joint covariance under the model variances
    deltas: np.ndarray  # Delta(k), k = 1..K
    delta_j: np.ndarray  # (K, p) componentwise indices
    k_star: int
    sigma_bar_max: np.ndarray  # running max over k of the active sigma_max^2
    lambda0: float


def oracle_diagnostics(ld: LadderDesign, f_values, delta_budget: float) -> PointOracle:
    """Bias indices, oracle index and Lambda_0 of ld against the mean f_values.

    The reference parameter is the smallest-window pseudo-true vector, which
    makes Delta(1) = 0 and every oracle index well defined for a budget
    that is not negative (+inf admits every scale).
    """
    if not delta_budget >= 0:  # NaN fails too
        raise ParameterDomainError(f"delta_budget must be a nonnegative number, got {delta_budget}")
    bars = ld.pseudo_true(f_values)
    ref = bars[0]
    Sigma = joint_covariance(ld.D_list, ld.sigma_model**2)
    deltas, delta_j = bias_profile(bars, ref, Sigma)
    active_sig_max = np.array([float(np.max(ld.sigma_model[w > 0] ** 2)) for w in ld.weights_list])
    n, d = ld.points.shape
    lambda0 = lambda0_estimate(ld.B_list, ld.ladder.bandwidths[: ld.K_eff], n, d, active_sig_max)
    return PointOracle(bars, ref, Sigma, deltas, delta_j, oracle_index(deltas, delta_budget),
                       np.maximum.accumulate(active_sig_max), lambda0)


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
    With Sigma_k = L L^T and Sigma_k0 = L0 L0^T, the log-determinant ratio
    is 2 sum log(diag L / diag L0) and the trace is |L^{-1} L0|_F^2, so
    identical laws give 0 exactly.
    """
    L, L0 = _spd_factor(Sigma_k), _spd_factor(Sigma_k0)
    log_det_ratio = 2.0 * float(np.sum(np.log(np.diag(L) / np.diag(L0))))
    tr = float(np.sum(np.linalg.solve(L, L0) ** 2))
    kl = 0.5 * (Delta_k + log_det_ratio + tr - p * k)
    pk = p * k
    lower = -0.5 * pk * math.log1p(delta) + 0.5 * Delta_k - 0.5 * pk * delta
    upper = -0.5 * pk * math.log1p(-delta) + 0.5 * Delta_k + 0.5 * pk * delta
    return KlResult(kl=kl, lower=lower, upper=upper)


def phi_factor(delta: float, homogeneous: bool) -> float:
    """Exponent multiplier in the propagation bound."""
    _check_delta(delta)
    return 1.0 if homogeneous else 2.0 * (1.0 + delta) / (1.0 - delta) ** 2 - 1.0


def propagation_bound(
    p: int, k: int, delta: float, Delta_k: float, r: float, alpha: float, homogeneous: bool = False
) -> float:
    """Closed-form bound on the stopped-risk moment at step k:

    (alpha C(p,r))^{1/2} (1+delta)^{pk/4} (1-delta)^{-3pk/4}
        exp{ phi(delta) Delta(k) / (2 (1-delta)) },

    the Cauchy-Schwarz product sqrt(alpha C(p,r) U) of the moment condition
    and the upper bound U of z_moment_bounds; math.inf when U overflows.
    """
    if Delta_k < 0:
        raise ParameterDomainError("Delta(k) must be nonnegative")
    return math.sqrt(alpha * chi_square_moment(p, r) * z_moment_bounds(p, k, delta, Delta_k, homogeneous)[1])


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


def lambda0_estimate(B_list: Sequence[np.ndarray], bandwidths, n: int, d: int, sigma_max_sq) -> float:
    """Tightest Lambda_0 with lambda_min(B_k) >= n h_k^d Lambda_0 / sigma_max^2(k)."""
    smax = np.asarray(sigma_max_sq, dtype=float)
    vals = [
        np.linalg.eigvalsh(B)[0] * smax[k] / (n * float(bandwidths[k]) ** d)
        for k, B in enumerate(B_list)
    ]
    return float(min(vals))


def tightest_sj(Sigma_full: np.ndarray, p: int, j: int) -> float:
    """Smallest s_j with Sigma_{k,j}^{-1} <= s_j Sigma_{k,j,diag}^{-1} over all k.

    Computed as max_k lambda_max of the pencil (Dg, Sigma_{k,j}) on the
    leading principal submatrices, whose eigenvalues are those of
    Dg^{1/2} Sigma_{k,j}^{-1} Dg^{1/2}; a reported diagnostic, not a guarantee.
    """
    Sj_full = component_submatrix(Sigma_full, p, j)
    K = Sj_full.shape[0]
    best = 0.0
    for k in range(1, K + 1):
        Sj = Sj_full[:k, :k]
        best = max(best, float(generalized_eigvalsh(np.diag(np.diag(Sj)), Sj)[-1]))
    return best


#: relative tolerance of wilks_spectrum's projector-trace and eigenvalue-cap guards
_WILKS_TOL = 1e-8


def wilks_spectrum(ld: LadderDesign, k: int, sigma_true) -> np.ndarray:
    """Nonzero eigenvalues of S = Sigma0^{1/2} W_k Psi^T B_k^{-1} Psi W_k Sigma0^{1/2} at scale k of ld.

    Computed on the p x p pencil (Psi W Sigma0 W Psi^T, B), whose eigenvalues
    are those of S, to avoid the n x n eigenproblem.  Guards that the
    projector trace tr(D_k Psi^T) equals p and that the largest eigenvalue
    respects the 1 + delta cap.
    """
    B, psi, w, sig = ld.B_list[k - 1], ld.psi, ld.weights_list[k - 1], ld.sigma_model
    sig0 = np.asarray(sigma_true, dtype=float)
    M = (psi * (w**2 * sig0**2 / sig**4)) @ psi.T
    lam = generalized_eigvalsh(M, B)[::-1]

    p = ld.basis.p
    proj_trace = float(np.trace(ld.D_list[k - 1] @ psi.T))
    if abs(proj_trace - p) > _WILKS_TOL * max(1.0, p):
        raise LpAdaptError(f"projector trace {proj_trace} != p={p}")
    delta = relative_gap(sig, sig0)
    if lam[0] > (1.0 + delta) * (1.0 + _WILKS_TOL) + _WILKS_TOL:
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
    likelihood-ratio between the stacked laws.

    The upper bound is ((1+delta)/(1-delta)^3)^{pk/2} exp{phi(delta) Delta(k) / (1-delta)}.
    A bound whose power or exponential overflows is math.inf: it is vacuous, not an error.
    """
    _check_delta(delta)
    pk = p * k
    if homogeneous:
        e_lo = Delta_k / (1.0 + delta)
    else:
        e_lo = (2.0 * (1.0 - delta) / (1.0 + delta) ** 2 - 1.0) * Delta_k / (1.0 + delta)
    e_hi = phi_factor(delta, homogeneous) * Delta_k / (1.0 - delta)
    lower = _power_exp((1.0 - delta) / (1.0 + delta) ** 3, pk / 2.0, e_lo)
    upper = _power_exp((1.0 + delta) / (1.0 - delta) ** 3, pk / 2.0, e_hi)
    return lower, upper


def _power_exp(base: float, power: float, exponent: float) -> float:
    """base**power * exp(exponent), or math.inf when either factor overflows."""
    try:
        return base**power * math.exp(exponent)
    except OverflowError:
        return math.inf


def build_oracle_report(
    basis: Basis,
    ladder,
    design_points,
    x,
    sigma_model,
    sigma_true,
    f_values,
    cv: CriticalValues,
    delta_budget: float = 1.0,
    C_j: float = 1.0,
) -> dict:
    """Every deterministic bound, index and identity for one scene at one point, as the diagnose document.

    sigma_true None means the model is exact.  delta is check_noise's gap
    between the two, and cv must hold a threshold for each of the first
    K_eff - 1 scales.  The reference parameter is that of
    oracle_diagnostics, the smallest-window pseudo-true vector.  C_j must
    be finite and positive.

    The dict holds JSON values only, under the keys, in order: x, p, K,
    delta, homogeneous, phi, u0_hat, u_hat, lambda0, theta_ref (p,),
    delta_seq (K,), delta_seq_monotone, delta_components (K x p),
    delta_budget, k_star, z_kstar, oracle_bound, kl (per k: k, kl, lower,
    upper, within), propagation_bounds (per k: k, bound), z2_bounds (per k:
    k, lower, upper), components (per j: j, s_j, k_ideal, Delta_j_budget,
    k_star_j, z, and with K > 1 also bound and scale) and
    boxcar_determinant_check (formula, dense, rel_err; null unless the
    windows are nested 0/1 and K >= 2).  A one-scale ladder has NaN for
    z_kstar and oracle_bound, and a bound that overflows is inf.
    """
    if not (math.isfinite(C_j) and C_j > 0):
        raise ParameterDomainError(f"C_j must be finite and positive, got {C_j}")
    delta = check_noise(sigma_model, sigma_true)
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    if ld.K_eff < 1:
        raise SingularJointCovarianceError("no usable scale at the requested point")
    K, p = ld.K_eff, basis.p
    z_vec = _thresholds(cv, K)
    sig = ld.sigma_model
    sig0 = sig if sigma_true is None else np.asarray(sigma_true, dtype=float)
    homogeneous = float(np.ptp(sig)) < 1e-12 and float(np.ptp(sig0)) < 1e-12

    bars, ref, Sigma, deltas, delta_j, k_star, sigma_bar_max, lambda0 = oracle_diagnostics(ld, f_values, delta_budget)
    Sigma0 = joint_covariance(ld.D_list, sig0**2)
    monotone = bool(np.all(np.diff(deltas) >= -1e-8 * np.maximum(deltas[:-1], 1.0)))

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

    u0_hat, u_hat = ld.growth_bounds()

    components = []
    for j in range(1, p + 1):
        s_j = tightest_sj(Sigma, p, j)
        var_true_j = np.diag(Sigma0)[j - 1 :: p]
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
            comp["bound"] = oracle_risk_bound(z_j, p, k_star_j, delta, budget_eff, cv.r, cv.alpha, homogeneous)
            comp["scale"] = componentwise_scale(ld.points.shape[0], float(ladder.bandwidths[k_star_j - 1]),
                                                ld.points.shape[1], lambda0, float(sigma_bar_max[k_star_j - 1]), cv.r)
        components.append(comp)

    det_check = None
    if is_nested_binary(ld.weights_list) and K >= 2:
        formula = boxcar_determinant(ld.B_list, ld.weights_list)
        dense = float(np.linalg.det(Sigma))
        det_check = {"formula": formula, "dense": dense, "rel_err": abs(formula - dense) / abs(dense)}

    return {
        "x": ld.x.tolist(),
        "p": p,
        "K": K,
        "delta": delta,
        "homogeneous": homogeneous,
        "phi": phi,
        "u0_hat": u0_hat,
        "u_hat": u_hat,
        "lambda0": lambda0,
        "theta_ref": ref.tolist(),
        "delta_seq": deltas.tolist(),
        "delta_seq_monotone": monotone,
        "delta_components": delta_j.tolist(),
        "delta_budget": delta_budget,
        "k_star": k_star,
        "z_kstar": z_kstar,
        "oracle_bound": bound,
        "kl": kl_rows,
        "propagation_bounds": prop_rows,
        "z2_bounds": z2_rows,
        "components": components,
        "boxcar_determinant_check": det_check,
    }
