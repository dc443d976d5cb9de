"""Synthetic scenes and the Monte-Carlo risk experiments built on them.

A scene fixes a test function on [0, 1], an equidistant (or explicit)
design, a model noise profile and a true noise profile.  Replicate j of a
scene is a pure function of (scene.seed, j), so experiment outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calibration import CriticalValues, SelectionEnsemble, replicate_noise
from .dataset import Dataset
from .exceptions import ParameterDomainError
from .local_model import Basis, LadderDesign, NoiseModel, ScaleLadder
from .oracle_diagnostics import (
    bias_profile,
    joint_covariance,
    lambda0_estimate,
    oracle_index,
    phi_factor,
    propagation_bound,
)

TEST_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "constant": lambda t: np.ones_like(t),
    "linear": lambda t: 2.0 * t - 0.5,
    "sin_bump": lambda t: np.sin(2.0 * np.pi * t),
    "kink": lambda t: np.abs(t - 0.5),
    "jump": lambda t: (t >= 0.5).astype(float),
}


@dataclass(frozen=True)
class SigmaSpec:
    """Noise-level profile over [0, 1].

    constant: sigma = level everywhere.
    ramp:     sigma = level * (1 + amplitude * t).
    sine:     variance modulation sigma^2 = level^2 (1 + amplitude sin(2 pi t + phase)),
              so against a constant model of the same level the relative
              variance gap is exactly |amplitude| at the sine extremes.
    """

    pattern: str = "constant"
    level: float = 1.0
    amplitude: float = 0.0
    phase: float = 0.0

    def values(self, t: np.ndarray) -> np.ndarray:
        # level 0 is allowed here so noiseless scenes can be generated;
        # NoiseModel still rejects nonpositive levels where it matters
        if self.level < 0:
            raise ParameterDomainError("sigma level must be nonnegative")
        if self.pattern == "constant":
            return np.full_like(t, self.level, dtype=float)
        if self.pattern == "ramp":
            vals = self.level * (1.0 + self.amplitude * t)
            if np.any(vals < 0):
                raise ParameterDomainError("ramp sigma profile is negative")
            return vals
        if self.pattern == "sine":
            var = self.level**2 * (1.0 + self.amplitude * np.sin(2.0 * np.pi * t + self.phase))
            if np.any(var < 0):
                raise ParameterDomainError("sine variance profile is negative")
            return np.sqrt(var)
        raise ParameterDomainError(f"unknown sigma pattern {self.pattern!r}")


@dataclass(frozen=True)
class Scene:
    """Named test function with design and noise profiles."""

    f: str
    n: int
    sigma_model: SigmaSpec = SigmaSpec()
    sigma_true: SigmaSpec | None = None
    seed: int = 0
    f_scale: float = 1.0
    design: tuple[float, ...] | None = None  # explicit points override the equidistant grid

    def design_points(self) -> np.ndarray:
        if self.design is not None:
            return np.asarray(self.design, dtype=float)
        return np.linspace(0.0, 1.0, self.n)

    def f_values(self, t=None) -> np.ndarray:
        if self.f not in TEST_FUNCTIONS:
            raise ParameterDomainError(f"unknown test function {self.f!r}; choose from {sorted(TEST_FUNCTIONS)}")
        pts = self.design_points() if t is None else np.asarray(t, dtype=float)
        return self.f_scale * TEST_FUNCTIONS[self.f](pts)

    def sigma_model_values(self) -> np.ndarray:
        return self.sigma_model.values(self.design_points())

    def sigma_true_values(self) -> np.ndarray:
        spec = self.sigma_true if self.sigma_true is not None else self.sigma_model
        return spec.values(self.design_points())

    @property
    def delta(self) -> float:
        ratio = (self.sigma_true_values() / self.sigma_model_values()) ** 2
        return float(np.max(np.abs(ratio - 1.0)))

    def noise_model(self) -> NoiseModel:
        return NoiseModel(sigma_model=self.sigma_model_values(), sigma_true=self.sigma_true_values())


def generate(scene: Scene, replicate: int) -> Dataset:
    """One replicate of the scene: y_i = f(x_i) + sigma_true_i * eps_i."""
    t = scene.design_points()
    eps = replicate_noise(scene.seed, replicate, t.size)
    y = scene.f_values() + scene.sigma_true_values() * eps
    return Dataset(x=t, y=y, sigma=scene.sigma_model_values(), sigma_true=scene.sigma_true_values())


@dataclass
class RiskRow:
    scene: str
    k: int | None
    statistic: str
    estimate: float
    std_error: float
    replicates: int


@dataclass
class RiskTable:
    rows: list[RiskRow]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scene", "k", "statistic", "estimate", "std_error", "replicates"])
        for row in self.rows:
            writer.writerow(
                [row.scene, "" if row.k is None else row.k, row.statistic,
                 repr(row.estimate), repr(row.std_error), row.replicates]
            )
        return buf.getvalue()

    def lookup(self, statistic: str, k: int | None = None) -> RiskRow:
        for row in self.rows:
            if row.statistic == statistic and row.k == k:
                return row
        raise KeyError(f"no row for statistic={statistic!r}, k={k}")


def _moment_row(scene: str, k, name: str, values: np.ndarray, replicates: int) -> RiskRow:
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return RiskRow(scene=scene, k=k, statistic=name, estimate=est, std_error=se, replicates=replicates)


def risk_experiment(
    scene: Scene,
    ladder: ScaleLadder,
    basis: Basis,
    cv: CriticalValues,
    r: float,
    replicates: int,
    x: float = 0.5,
    delta_budget: float = 1.0,
) -> RiskTable:
    """Empirical risks of the adaptive procedure at one reference point.

    Reports, per scale k, the moment-condition forms at powers r and r/2,
    the oracle-comparison risk at the oracle index, squared fit errors, and
    the componentwise risks with their design scaling.  The design is fixed
    across replicates, so no replicate can fail; the exclusion counter is
    kept for the output contract.
    """
    if replicates < 1:
        raise ParameterDomainError(f"replicates must be >= 1, got {replicates}")
    ld = LadderDesign(basis, ladder, scene.design_points(), x, scene.sigma_model_values())
    K, p = ld.K_eff, basis.p
    if K < 2:
        raise ParameterDomainError("risk experiment needs at least two usable scales")
    sig0 = scene.sigma_true_values()
    delta = scene.delta

    bars = ld.pseudo_true(scene.f_values())
    theta_ref = bars[0]
    Sigma = joint_covariance(ld.D_list, ld.sigma_model**2)
    deltas, delta_j = bias_profile(bars, theta_ref, Sigma)
    k_star = oracle_index(deltas, delta_budget)
    k_star_j = [oracle_index(delta_j[:, j], delta_budget) for j in range(p)]

    ens = SelectionEnsemble.draw(ld, replicates, scene.seed, sig0, mean=scene.f_values())
    z = np.asarray(cv.z, dtype=float)
    khat = ens.k_hat(z)
    gaps = ens.gap_forms(z)

    f_at_x = float(scene.f_values(np.asarray([x]))[0])
    theta_hat = ens.theta_tilde[np.arange(replicates), khat - 1, :]

    rows: list[RiskRow] = []
    for k in range(2, K + 1):
        rows.append(_moment_row(scene.f, k, "adaptive_gap_pow_r", gaps[k - 1] ** r, replicates))
        rows.append(_moment_row(scene.f, k, "adaptive_gap_pow_r2", gaps[k - 1] ** (r / 2.0), replicates))

    # oracle comparison: quadratic form between scales k_star and k_hat, B from k_star
    oracle_vals = np.zeros(replicates)
    for m in range(1, K + 1):
        idx = khat == m
        if not np.any(idx) or m == k_star:
            continue
        table = ens.T_small if k_star < m else ens.T_large
        oracle_vals[idx] = table[k_star - 1, m - 1, idx]
    rows.append(_moment_row(scene.f, k_star, "oracle_gap_pow_r2", oracle_vals ** (r / 2.0), replicates))

    for k in range(1, K + 1):
        err = ens.theta_tilde[:, k - 1, 0] - f_at_x
        rows.append(_moment_row(scene.f, k, "fit_sqerr_fixed", err**2, replicates))
    rows.append(_moment_row(scene.f, None, "fit_sqerr_adaptive", (theta_hat[:, 0] - f_at_x) ** 2, replicates))
    rows.append(_moment_row(scene.f, None, "k_hat_mean", khat.astype(float), replicates))

    # quadratic-form risk of the adaptive estimator against the reference
    # parameter, weighted by the largest-scale information matrix
    dref = theta_hat - theta_ref[None, :]
    truth_form = np.maximum(np.einsum("ri,ij,rj->r", dref, ld.B_list[K - 1], dref), 0.0)
    rows.append(_moment_row(scene.f, K, "adaptive_truth_pow_r2", truth_form ** (r / 2.0), replicates))

    active_sig_max = np.array([float(np.max(ld.sigma_model[w > 0] ** 2)) for w in ld.weights_list])
    sigma_bar_max = np.maximum.accumulate(active_sig_max)
    lambda0 = lambda0_estimate(ld.B_list, ladder.bandwidths[:K], ld.points.shape[0], ld.points.shape[1], active_sig_max)
    for j in range(1, p + 1):
        kj = k_star_j[j - 1]
        scale = (ld.points.shape[0] * float(ladder.bandwidths[kj - 1]) ** ld.points.shape[1] * lambda0
                 / float(sigma_bar_max[kj - 1])) ** (r / 2.0)
        comp = np.abs(ens.theta_tilde[:, kj - 1, j - 1] - theta_hat[:, j - 1]) ** r * scale
        rows.append(_moment_row(scene.f, kj, f"component_{j}_gap_pow_r_scaled", comp, replicates))

    meta = {
        "scene": scene.f,
        "x": x,
        "delta": delta,
        "delta_budget": delta_budget,
        "delta_seq": deltas.tolist(),
        "k_star": k_star,
        "k_star_j": k_star_j,
        "lambda0": lambda0,
        "sigma_bar_max": sigma_bar_max.tolist(),
        "K": K,
        "p": p,
        "r": r,
        "z": list(cv.z),
        "alpha": cv.alpha,
        "replicates": replicates,
        "excluded": 0,
    }
    return RiskTable(rows=rows, meta=meta)


def ladder_for(n: int, p: int, K: int, growth: float = 1.5, kernel: str = "boxcar") -> ScaleLadder:
    """Geometric ladder sized so the smallest window holds ~max(4p, 8) points."""
    h1 = max(4 * p, 8) / (2.0 * n)
    return ScaleLadder.geometric(h1, K, growth=growth, kernel=kernel)


@dataclass
class SweepCell:
    n: int
    delta_nominal: float
    delta_effective: float
    risk: float
    std_error: float
    inflation: float
    bound_factor: float
    z2_upper: float
    within_bound: bool


def delta_sweep(
    deltas,
    ns,
    basis: Basis,
    K: int = 4,
    r: float = 0.5,
    alpha: float = 1.0,
    replicates: int = 2000,
    mc_size: int = 4000,
    seed: int = 101,
    x: float = 0.5,
) -> list[SweepCell]:
    """Risk inflation under growing misspecification, against the predicted factor.

    For each sample size the thresholds are calibrated once on the model
    side (they do not depend on the true noise), then each delta cell
    multiplies the true variance by 1 + delta.  The tracked risk is the
    quadratic-form risk of the adaptive estimator against the true
    parameter of the (parametric) scene; its inflation relative to the
    delta = 0 cell is compared with the ratio of the closed-form
    stopped-risk bounds at delta and at zero.
    """
    from .calibration import mc_calibrate  # local import to keep module load cheap

    deltas = list(deltas)
    if not deltas or not list(ns):
        raise ParameterDomainError("delta and n grids must be nonempty")
    if deltas[0] != 0.0:
        deltas = [0.0] + [d for d in deltas if d != 0.0]
    cells: list[SweepCell] = []
    for n in ns:
        ladder = ladder_for(n, basis.p, K)
        grid = np.linspace(0.0, 1.0, n)
        sig_model = np.ones(n)
        cv = mc_calibrate(basis, ladder, sig_model, grid, x, alpha, r, mc_size, seed)
        base_risk = None
        for d in deltas:
            scene = Scene(
                f="constant",
                n=n,
                sigma_model=SigmaSpec("constant", 1.0),
                sigma_true=SigmaSpec("constant", math.sqrt(1.0 + d)),
                seed=seed + n,
            )
            table = risk_experiment(scene, ladder, basis, cv, r, replicates, x=x)
            row = table.lookup("adaptive_truth_pow_r2", k=table.meta["K"])
            if d == 0.0:
                base_risk = row.estimate
            inflation = row.estimate / base_risk if base_risk and base_risk > 0 else float("nan")
            p, Keff = table.meta["p"], table.meta["K"]
            factor = (
                propagation_bound(p, Keff, d, 0.0, r, alpha, homogeneous=True)
                / propagation_bound(p, Keff, 0.0, 0.0, r, alpha, homogeneous=True)
            )
            z2_upper = ((1.0 + d) / (1.0 - d) ** 3) ** (p * Keff / 2.0) if d < 1 else float("inf")
            cells.append(
                SweepCell(
                    n=n,
                    delta_nominal=d,
                    delta_effective=scene.delta,
                    risk=row.estimate,
                    std_error=row.std_error,
                    inflation=inflation,
                    bound_factor=factor,
                    z2_upper=z2_upper,
                    within_bound=bool(inflation <= factor + 1e-12),
                )
            )
    return cells
