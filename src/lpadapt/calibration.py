"""Critical values for the selection rule: analytic formula and MC search.

The analytic thresholds are

    z_k = (4/mu) { r (K-k) log u + log(K/alpha) - (p/4) log(1-4 mu)
                   - log(1 - u^{-r}) + cbar(p, r) },   mu in (0, 1/4),

which provably satisfy the moment conditions

    E_{0,Sigma} | (theta_k - theta_hat_k)^T B_k (theta_k - theta_hat_k) |^r
        <= alpha C(p, r),   k = 2..K,

with C(p,r) the r-th moment of chi^2_p.  The Monte-Carlo calibrator keeps
the same l-shape with one free offset, z_l(c) = c + 4 r (K-l) log(u) / mu0,
and bisects on the minimal offset c for which all empirical moment
conditions hold on a simulated pure-noise ensemble.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .exceptions import CalibrationFailedError, LpAdaptError, ParameterDomainError
from .fll_selector import selection_sweep
from .local_model import Basis, LadderDesign, ScaleLadder

DEFAULT_MU = 0.125


def chi_square_moment(p: int, r: float) -> float:
    """r-th absolute moment of chi^2_p: 2^r Gamma(r + p/2) / Gamma(p/2)."""
    if p < 1:
        raise ParameterDomainError("p must be >= 1")
    if r <= 0:
        raise ParameterDomainError("r must be positive")
    return float(np.exp(r * math.log(2.0) + gammaln(r + p / 2.0) - gammaln(p / 2.0)))


def threshold_constant(p: int, r: float) -> float:
    """Additive constant in the analytic threshold formula.

    log{ 2^{2r} [Gamma(2r + p/2) Gamma(p/2)]^{1/2} / Gamma(r + p/2) },
    evaluated in log space.
    """
    return float(
        2.0 * r * math.log(2.0)
        + 0.5 * (gammaln(2.0 * r + p / 2.0) + gammaln(p / 2.0))
        - gammaln(r + p / 2.0)
    )


def _check_alpha_r(alpha: float, r: float):
    if not 0.0 < alpha <= 1.0:
        raise ParameterDomainError(f"alpha={alpha} outside (0, 1]")
    if r <= 0:
        raise ParameterDomainError(f"r={r} must be positive")


@dataclass(frozen=True)
class CriticalValues:
    """Thresholds z_1..z_{K-1} with the calibration metadata."""

    z: tuple[float, ...]
    method: str  # "theoretical" | "monte_carlo"
    alpha: float
    r: float
    p: int
    K: int
    mu: float | None = None
    seed: int | None = None
    mc_size: int | None = None

    def __post_init__(self):
        zv = np.asarray(self.z, dtype=float)
        if zv.size != self.K - 1:
            raise ParameterDomainError(f"expected {self.K - 1} thresholds, got {zv.size}")
        if zv.size and (not np.all(np.isfinite(zv)) or np.any(zv <= 0)):
            raise ParameterDomainError("thresholds must be finite and positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CriticalValues":
        """Parse to_json output; unknown keys are ignored, malformed input raises ParameterDomainError."""
        try:
            obj = json.loads(text)
            fields = {k: obj[k] for k in ("z", "method", "alpha", "r", "p", "K", "mu", "seed", "mc_size") if k in obj}
            fields["z"] = tuple(float(v) for v in fields["z"])
            return cls(**fields)
        except ParameterDomainError:
            raise
        except (ValueError, KeyError, TypeError) as exc:  # bad JSON, a missing field or a non-numeric z
            raise ParameterDomainError(f"malformed critical values: {type(exc).__name__}: {exc}") from exc


def _cv_terms(p: int, r: float, K: int, alpha: float, u: float, mu: float) -> tuple[np.ndarray, float]:
    """Scale-dependent slopes (4/mu) r (K-l) log u and the shared offset term."""
    _check_alpha_r(alpha, r)
    if u <= 1.0:
        raise ParameterDomainError(f"growth bound u={u} must exceed 1")
    if not 0.0 < mu < 0.25:
        raise ParameterDomainError(f"mu={mu} outside (0, 1/4)")
    if K < 1:
        raise ParameterDomainError("K must be >= 1")
    base = (
        math.log(K / alpha)
        - (p / 4.0) * math.log1p(-4.0 * mu)
        - math.log1p(-(u ** (-r)))
        + threshold_constant(p, r)
    )
    ls = np.arange(1, K)
    return (4.0 / mu) * r * (K - ls) * math.log(u), (4.0 / mu) * base


def theoretical_cv(
    p: int,
    r: float,
    K: int,
    alpha: float,
    u: float,
    mu: float = DEFAULT_MU,
    optimize_mu: bool = False,
) -> CriticalValues:
    """Analytic thresholds; finite for any mu in (0, 1/4) and u > 1.

    With optimize_mu the first threshold z_1 is minimized over a mu grid
    and the minimizing mu is used for the whole vector.
    """

    def z_vec(m: float) -> np.ndarray:
        offsets, c0 = _cv_terms(p, r, K, alpha, u, m)
        return offsets + c0

    if optimize_mu:
        grid = np.arange(0.01, 0.25, 0.01)
        mu = float(min(grid, key=lambda m: z_vec(float(m))[0] if K > 1 else _cv_terms(p, r, K, alpha, u, float(m))[1]))
    zs = z_vec(mu)
    return CriticalValues(z=tuple(float(v) for v in zs), method="theoretical", alpha=alpha, r=r, p=p, K=K, mu=mu)


def _check_index(name: str, value) -> int:
    """value as a Python int; ParameterDomainError unless it is an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ParameterDomainError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def replicate_noise(seed: int, replicate: int, n: int) -> np.ndarray:
    """Standard-normal draws for one replicate, seeded by (seed, replicate).

    This defines the package's noise stream: replicate j of seed s is the
    standard-normal stream of default_rng(SeedSequence([s, j])), so results
    are bit-identical regardless of batching or scheduling.  noise_matrix
    produces the same rows in bulk.  The generator fills its output in
    order, so a shorter draw is a prefix of a longer one:
    replicate_noise(s, j, m) equals replicate_noise(s, j, n)[:m] bit for bit
    for every m <= n.
    """
    words = [_check_index("seed", seed), _check_index("replicate", replicate)]
    return np.random.default_rng(np.random.SeedSequence(words)).standard_normal(_check_index("n", n))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_STATE_CHUNK = 2048  # rows whose generator states are computed together


def _uint32_words(value: int) -> list[int]:
    """The uint32 words SeedSequence takes from a non-negative int, low word first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running constant h."""

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_states(seed_words: list[int], rows: np.ndarray) -> list[dict]:
    """PCG64(SeedSequence([seed, j])).state["state"] for each row j < 2**32.

    Replays SeedSequence's pool mixing and generate_state(4, uint64) on
    uint32 arrays, one element per row (the hash constants never depend on
    the data), then PCG64's two-step set_seed in 128-bit Python ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    entropy = [np.full(rows.size, w, dtype=np.uint32) for w in seed_words] + [rows.astype(np.uint32)]
    zero = np.zeros(rows.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): 8 uint32 words cycling over the pool, paired little-endian
    hash_out = _hasher(_INIT_B, _MULT_B)
    w32 = [hash_out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    words64 = np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(w32[::2], w32[1::2])], axis=1)

    states = []
    for s_hi, s_lo, i_hi, i_lo in words64.tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        states.append({"state": (inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc & _MASK128, "inc": inc})
    return states


def noise_matrix(seed: int, rows: int, n: int, cols) -> np.ndarray:
    """Noise of replicates 0..rows-1 on the columns cols of an n-point design.

    Row j equals replicate_noise(seed, j, n)[cols] bit for bit, but only the
    first cols[-1] + 1 values of each replicate are drawn.  The generator
    states of up to _STATE_CHUNK rows are computed together and set in turn
    on one reused generator, which draws into one reused buffer; no numpy
    seeding object is built per row.  cols must be strictly increasing
    indices in [0, n).  Returns shape (rows, len(cols)).
    """
    seed, rows = _check_index("seed", seed), _check_index("rows", rows)
    cols = np.asarray(cols, dtype=np.intp)
    if cols.ndim != 1 or (cols.size and (cols[0] < 0 or cols[-1] >= n or np.any(np.diff(cols) <= 0))):
        raise ParameterDomainError(f"noise columns must be strictly increasing indices in [0, {n})")
    out = np.empty((rows, cols.size))
    if not cols.size:
        return out
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    spec = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    buf = np.empty(int(cols[-1]) + 1)
    seed_words = _uint32_words(seed)
    for a in range(0, rows, _STATE_CHUNK):
        states = _pcg64_states(seed_words, np.arange(a, min(a + _STATE_CHUNK, rows)))
        # numpy's own seeding of the chunk's first row must agree, or a numpy
        # change would silently alter every seeded output
        if np.random.PCG64(np.random.SeedSequence([seed, a])).state["state"] != states[0]:
            raise LpAdaptError("numpy's SeedSequence/PCG64 seeding differs from the replicated one")
        for j, state in enumerate(states, start=a):
            spec["state"] = state
            bitgen.state = spec
            gen.standard_normal(out=buf)
            buf.take(cols, out=out[j])
    return out


class SelectionEnsemble:
    """Per-scale fits and pairwise statistics for a batch of observation rows.

    Precomputes both quadratic-form tables for every pair l < m: the
    selection statistics (weighted by the smaller-scale B) and the
    moment-condition forms (weighted by the larger-scale B); selection under
    any thresholds is then a cheap sweep.
    """

    def __init__(self, ld: LadderDesign, Y: np.ndarray):
        if ld.K_eff < 1:
            raise CalibrationFailedError("no usable scale at the calibration point")
        self.ld = ld
        self.K = ld.K_eff
        self.p = ld.basis.p
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self.mc = Y.shape[0]

        self.theta_tilde = ld.fit_stacked(Y)  # (mc, K, p)
        K = self.K
        self.T_small = np.full((K, K, self.mc), np.nan)  # B_l-weighted, selection statistics
        self.T_large = np.full((K, K, self.mc), np.nan)  # B_m-weighted, moment-condition forms
        for a in range(K):
            for b in range(a + 1, K):
                diff = self.theta_tilde[:, a, :] - self.theta_tilde[:, b, :]
                self.T_small[a, b] = np.maximum(np.einsum("ri,ij,rj->r", diff, ld.B_list[a], diff), 0.0)
                self.T_large[b, a] = np.maximum(np.einsum("ri,ij,rj->r", diff, ld.B_list[b], diff), 0.0)

    @classmethod
    def draw(cls, ld: LadderDesign, mc_size: int, seed: int, sd, mean=None) -> "SelectionEnsemble":
        """Ensemble of the observations mean + sd * eps with eps from noise_matrix.

        sd and mean are given at all n design points.  Every D_k is zero
        outside ld.support, so only those columns are drawn and stored: the
        ensemble holds mc_size x len(support) observations, whatever n is.
        """
        cols = ld.support
        Y = noise_matrix(seed, mc_size, ld.points.shape[0], cols) * np.asarray(sd, dtype=float)[cols]
        if mean is not None:
            Y += np.asarray(mean, dtype=float)[cols]
        return cls(ld.restrict(cols), Y)

    @classmethod
    def pure_noise(cls, ld: LadderDesign, mc_size: int, seed: int, theta: np.ndarray | None = None) -> "SelectionEnsemble":
        """Ensemble under the calibration measure N(Psi^T theta, Sigma_model).

        The mean shift is optional; by pivotality it changes no statistic,
        which tests exercise directly.
        """
        mean = None if theta is None else ld.psi.T @ np.asarray(theta, dtype=float)
        return cls.draw(ld, mc_size, seed, ld.sigma_model, mean)

    def k_hat(self, z: np.ndarray) -> np.ndarray:
        """Selected index per replicate under thresholds z (length >= K-1): selection_sweep on T_small."""
        return selection_sweep(self.T_small, z)[0]

    def gap_forms(self, z: np.ndarray) -> np.ndarray:
        """(K, mc) quadratic forms (theta_k - theta_hat_k)^T B_k (...); zero row for k=1."""
        khat = self.k_hat(z)
        vals = np.zeros((self.K, self.mc))
        for k in range(2, self.K + 1):
            mstep = np.minimum(k, khat)
            for m in range(1, k):
                idx = mstep == m
                if np.any(idx):
                    vals[k - 1, idx] = self.T_large[k - 1, m - 1, idx]
        return vals

    def pc_moments(self, z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Empirical moments E|gap|^r and their standard errors for k = 1..K."""
        powered = self.gap_forms(z) ** r
        mom = powered.mean(axis=1)
        se = powered.std(axis=1, ddof=1) / math.sqrt(self.mc)
        return mom, se


def mc_calibrate(
    basis: Basis,
    ladder: ScaleLadder,
    sigma_model,
    design_points,
    x,
    alpha: float,
    r: float,
    mc_size: int,
    seed: int,
    theta: np.ndarray | None = None,
    mu0: float = DEFAULT_MU,
    bisect_iters: int = 12,
) -> CriticalValues:
    """Minimal-offset thresholds satisfying the empirical moment conditions.

    The candidate family is z_l(c) = c + 4 r (K-l) log(u_hat) / mu0 with
    u_hat estimated from the realized information matrices, and c found by
    bisection against max_k E|gap_k|^r <= alpha C(p, r).  Raises
    CalibrationFailedError when even the analytic offset fails empirically
    (MC size too small or a misconfigured ladder).
    """
    _check_alpha_r(alpha, r)
    if mc_size < 1000:
        raise ParameterDomainError("mc_size must be >= 1000 for a usable calibration")
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    if ld.K_eff < 2:
        raise CalibrationFailedError(f"need at least 2 usable scales, got {ld.K_eff}")
    K, p = ld.K_eff, basis.p
    u0_hat, u_hat = ld.growth_bounds()
    if u0_hat <= 1.0:
        raise CalibrationFailedError(
            f"windows do not strictly grow (u0_hat={u0_hat:.4f}); refine the ladder"
        )

    ens = SelectionEnsemble.pure_noise(ld, mc_size, seed, theta=theta)
    target = alpha * chi_square_moment(p, r)
    offsets, c_analytic = _cv_terms(p, r, K, alpha, u_hat, mu0)

    def max_moment(c: float) -> float:
        mom, _ = ens.pc_moments(c + offsets, r)
        return float(mom[1:].max())

    # c = c_analytic reproduces the analytic thresholds exactly, so the
    # search result never exceeds them componentwise.
    if max_moment(c_analytic) > target:
        raise CalibrationFailedError(
            "analytic thresholds violate the empirical moment conditions; "
            "increase mc_size or check the ladder"
        )
    lo, hi = 0.0, c_analytic
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if max_moment(mid) <= target:
            hi = mid
        else:
            lo = mid
    z = hi + offsets
    return CriticalValues(
        z=tuple(float(v) for v in z),
        method="monte_carlo",
        alpha=alpha,
        r=r,
        p=p,
        K=K,
        seed=seed,
        mc_size=mc_size,
    )


@dataclass
class PcEntry:
    k: int
    moment: float
    std_error: float
    bound: float
    passed: bool


@dataclass
class PcReport:
    """Independent check of the moment conditions for given thresholds."""

    entries: list[PcEntry]
    alpha: float
    r: float
    mc_size: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def validate_pc(
    cv: CriticalValues,
    basis: Basis,
    ladder: ScaleLadder,
    sigma_model,
    design_points,
    x,
    mc_size: int,
    seed: int,
    theta: np.ndarray | None = None,
) -> PcReport:
    """Estimate every moment condition with fresh noise and report pass/fail.

    An entry passes when moment <= alpha C(p,r) (1 + 3 rel_se) with
    rel_se = std_error / moment, so zero-moment rows pass trivially.
    """
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    K = ld.K_eff
    if len(cv.z) < K - 1:
        raise ParameterDomainError(f"thresholds cover {len(cv.z) + 1} scales, ladder has {K}")
    ens = SelectionEnsemble.pure_noise(ld, mc_size, seed, theta=theta)
    mom, se = ens.pc_moments(np.asarray(cv.z, dtype=float), cv.r)
    bound = cv.alpha * chi_square_moment(basis.p, cv.r)
    entries = []
    for k in range(2, K + 1):
        m, s = float(mom[k - 1]), float(se[k - 1])
        rel = s / m if m > 0 else 0.0
        entries.append(PcEntry(k=k, moment=m, std_error=s, bound=bound, passed=m <= bound * (1.0 + 3.0 * rel)))
    return PcReport(entries=entries, alpha=cv.alpha, r=cv.r, mc_size=mc_size, seed=seed)
