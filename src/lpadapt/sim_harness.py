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

from .calibration import CriticalValues, SelectionEnsemble, check_r, replicate_noise
from .dataset import Dataset
from .exceptions import ParameterDomainError, SingularJointCovarianceError
from .fll_selector import pair_forms
from .local_model import Basis, LadderDesign, ScaleLadder, relative_gap
from .oracle_diagnostics import componentwise_scale, oracle_diagnostics, oracle_index

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
        # level 0 is allowed so noiseless scenes can be generated; local_model.check_sigma rejects it where it matters
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
        """relative_gap of the two profiles, unchecked: a scene may report a gap of 1 or more."""
        return relative_gap(self.sigma_model_values(), self.sigma_true_values())


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
    check_r(r)
    if replicates < 1:
        raise ParameterDomainError(f"replicates must be >= 1, got {replicates}")
    ld = LadderDesign(basis, ladder, scene.design_points(), x, scene.sigma_model_values())
    K, p = ld.K_eff, basis.p
    if K < 2:
        raise SingularJointCovarianceError(f"risk experiment needs at least two usable scales, got {K}")
    _, theta_ref, _, deltas, delta_j, k_star, sigma_bar_max, lambda0 = oracle_diagnostics(ld, scene.f_values(), delta_budget)
    k_star_j = [oracle_index(delta_j[:, j], delta_budget) for j in range(p)]

    ens = SelectionEnsemble.draw(ld, replicates, scene.seed, scene.sigma_true_values(), mean=scene.f_values())
    z = np.asarray(cv.z, dtype=float)
    khat = ens.k_hat(z)
    gaps = ens.gap_forms(khat)

    f_at_x = float(scene.f_values(np.asarray([x]))[0])
    theta_hat = ens.theta_tilde[np.arange(replicates), khat - 1, :]

    rows: list[RiskRow] = []
    for k in range(2, K + 1):
        rows.append(_moment_row(scene.f, k, "adaptive_gap_pow_r", gaps[k - 1] ** r, replicates))
        rows.append(_moment_row(scene.f, k, "adaptive_gap_pow_r2", gaps[k - 1] ** (r / 2.0), replicates))

    # oracle comparison: quadratic form between scales k_star and k_hat, B from k_star
    theta_star = ens.theta_tilde[:, k_star - 1]
    oracle_vals = np.where(khat == k_star, 0.0, pair_forms(theta_star, theta_hat, ld.B_list[k_star - 1]))
    rows.append(_moment_row(scene.f, k_star, "oracle_gap_pow_r2", oracle_vals ** (r / 2.0), replicates))

    for k in range(1, K + 1):
        err = ens.theta_tilde[:, k - 1, 0] - f_at_x
        rows.append(_moment_row(scene.f, k, "fit_sqerr_fixed", err**2, replicates))
    rows.append(_moment_row(scene.f, None, "fit_sqerr_adaptive", (theta_hat[:, 0] - f_at_x) ** 2, replicates))
    rows.append(_moment_row(scene.f, None, "k_hat_mean", khat.astype(float), replicates))

    # quadratic-form risk of the adaptive estimator against the reference
    # parameter, weighted by the largest-scale information matrix
    truth_form = pair_forms(theta_hat, theta_ref[None], ld.B_list[K - 1])
    rows.append(_moment_row(scene.f, K, "adaptive_truth_pow_r2", truth_form ** (r / 2.0), replicates))

    for j in range(1, p + 1):
        kj = k_star_j[j - 1]
        scale = componentwise_scale(ld.points.shape[0], float(ladder.bandwidths[kj - 1]), ld.points.shape[1], lambda0,
                                    float(sigma_bar_max[kj - 1]), r)
        comp = np.abs(ens.theta_tilde[:, kj - 1, j - 1] - theta_hat[:, j - 1]) ** r * scale
        rows.append(_moment_row(scene.f, kj, f"component_{j}_gap_pow_r_scaled", comp, replicates))

    meta = {
        "scene": scene.f,
        "x": x,
        "delta": scene.delta,
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
