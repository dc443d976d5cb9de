"""Critical values for the selection rule: analytic formula and MC search.

The analytic thresholds are

    z_k = (4/mu) { r (K-k) log u + log(K/alpha) - (p/4) log(1-4 mu)
                   - log(1 - u^{-r}) + cbar(p, r) },   mu in (0, 1/4),

which provably satisfy the moment conditions

    E_{0,Sigma} | (theta_k - theta_hat_k)^T B_k (theta_k - theta_hat_k) |^r
        <= alpha C(p, r),   k = 2..K,

with C(p,r) the r-th moment of chi^2_p.  The Monte-Carlo calibrator keeps
the same l-shape with one free offset, z_l(c) = c + 4 r (K-l) log(u) / mu0
with mu0 = DEFAULT_MU, and bisects on the minimal offset c for which all
empirical moment conditions hold on a simulated pure-noise ensemble.
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln

from .exceptions import CalibrationFailedError, LpAdaptError, ParameterDomainError
from .fll_selector import pair_statistics, selection_sweep
from .local_model import Basis, LadderDesign, ScaleLadder

DEFAULT_MU = 0.125
#: bisection steps of mc_calibrate's offset search
_BISECT_ITERS = 12


def check_r(r: float):
    """ParameterDomainError naming the moment power r unless it is a finite positive number."""
    if not (isinstance(r, numbers.Real) and math.isfinite(r) and r > 0):
        raise ParameterDomainError(f"r={r!r} must be finite and positive")


def chi_square_moment(p: int, r: float) -> float:
    """r-th absolute moment of chi^2_p: 2^r Gamma(r + p/2) / Gamma(p/2)."""
    if p < 1:
        raise ParameterDomainError("p must be >= 1")
    check_r(r)
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
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha <= 1.0):
        raise ParameterDomainError(f"alpha={alpha!r} outside (0, 1]")
    check_r(r)


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
        if min(_check_index("p", self.p), _check_index("K", self.K)) < 1:
            raise ParameterDomainError(f"p={self.p} and K={self.K} must both be >= 1")
        _check_alpha_r(self.alpha, self.r)
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
) -> CriticalValues:
    """Analytic thresholds for growth bound u; finite for any mu in (0, 1/4) and u > 1."""
    offsets, c0 = _cv_terms(p, r, K, alpha, u, mu)
    return CriticalValues(z=tuple(float(v) for v in offsets + c0), method="theoretical", alpha=alpha, r=r, p=p, K=K, mu=mu)


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
    produces the same rows in bulk.  mc_calibrate and the verification
    checks put value i of the stream on the i-th point of the largest
    window (window coordinates); validate_pc, SelectionEnsemble.draw and
    risk_experiment on a design over all n points put it on design index i.
    The generator fills its output in order, so a shorter draw is a prefix
    of a longer one: replicate_noise(s, j, m) equals
    replicate_noise(s, j, n)[:m] bit for bit for every m <= n.
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
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_U32, _LOW32 = np.uint64(32), np.uint64(_MASK32)  # uint64 limb shift and mask
_STATE_CHUNK = 2048  # rows whose generator states are computed together
_BLOCK_BYTES = 2**19  # cap on the rows drawn in full before their columns are taken


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


def _mul64(a, b):
    """Full 128-bit products of the uint64 array a and the uint64 b as (hi, lo) limbs, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)  # below 3 * 2**32: no wrap
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32), (p00 & _LOW32) | (mid << _U32)


def _pcg64_states(seed_words: list[int], rows: np.ndarray) -> bytes:
    """PCG64(SeedSequence([seed, j]))'s state for each row j < 2**32, 32 bytes per row.

    Replays SeedSequence's pool mixing and generate_state(4, uint64) on
    uint32 arrays, one element per row (the hash constants never depend on
    the data), then PCG64's two-step set_seed on (hi, lo) uint64 limb arrays
    (arrays wrap silently where numpy scalars would warn), laid out as in the
    generator's memory: little-endian state, then inc.
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
    s_hi, s_lo, i_hi, i_lo = [lo | (hi << _U32) for lo, hi in zip(w32[::2], w32[1::2])]

    # inc = i << 1 | 1, then state = (inc + s) * _PCG64_MULT + inc, all mod 2**128
    one = np.uint64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> np.uint64(63), i_lo << one | one
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
    st_hi, st_lo = _mul64(t_lo, m_lo)
    st_hi += t_lo * m_hi + t_hi * m_lo  # the cross terms reach only the high limb
    st_lo += inc_lo
    st_hi += inc_hi + (st_lo < inc_lo)
    return np.stack([st_lo, st_hi, inc_lo, inc_hi], axis=1).astype("<u8").tobytes()


def _hilo_words(states: bytes) -> bytes:
    """The states as native uint64 words, high first: an emulated pcg128_t (MSVC), or any big-endian host."""
    return np.frombuffer(states, "<u8").reshape(-1, 2)[:, ::-1].astype(np.uint64).tobytes()


_LAYOUTS = (bytes, _hilo_words)  # numpy's pcg128_t layouts; the first is __uint128_t, little-endian


def _state_spec(row: bytes) -> dict:
    """numpy's bitgen.state for one row of _pcg64_states."""
    state, inc = int.from_bytes(row[:16], "little"), int.from_bytes(row[16:], "little")
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _state_memory(bitgen: np.random.PCG64) -> memoryview | None:
    """Writable view of a PCG64's state and inc, at the pointer that starts its pcg64_state struct.

    numpy points it into the generator object; None if it points elsewhere.
    """
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value or 0
    if not id(bitgen) <= address <= id(bitgen) + type(bitgen).__basicsize__ - 32:
        return None
    view = (ctypes.c_ubyte * 32).from_address(address)
    view.owner = bitgen  # the memory lives as long as the view
    return memoryview(view).cast("B")


def noise_matrix(seed: int, rows: int, n: int, cols) -> np.ndarray:
    """Noise of replicates 0..rows-1 on the columns cols of an n-point design.

    Row j equals replicate_noise(seed, j, n)[cols] bit for bit, but only the
    first cols[-1] + 1 values of each replicate are drawn, into a reused
    block of at most _BLOCK_BYTES (or one row) whose columns are taken at
    once.  The generator states of up to _STATE_CHUNK rows are computed
    together and written in turn into the memory of one reused generator,
    after a read-only check against the memory of numpy's own seeding of the
    first that also picks the layout to write (numpy's state setter if none
    matches).  No numpy seeding object is built per row.
    cols must be strictly increasing indices in [0, n), rows at most 2**32.
    Returns shape (rows, len(cols)).
    """
    seed, rows = _check_index("seed", seed), _check_index("rows", rows)
    if rows > 2**32:
        raise ParameterDomainError(f"rows must be at most 2**32, got {rows}")
    cols = np.asarray(cols, dtype=np.intp)
    if cols.ndim != 1 or (cols.size and (cols[0] < 0 or cols[-1] >= n or np.any(np.diff(cols) <= 0))):
        raise ParameterDomainError(f"noise columns must be strictly increasing indices in [0, {n})")
    out = np.empty((rows, cols.size))
    if not cols.size:
        return out
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    memory = _state_memory(bitgen)  # its has_uint32 stays 0: it only draws doubles
    width = int(cols[-1]) + 1
    block = np.empty((max(1, _BLOCK_BYTES // (8 * width)), width))
    seed_words = _uint32_words(seed)
    for a in range(0, rows, _STATE_CHUNK):
        stop = min(a + _STATE_CHUNK, rows)
        states = _pcg64_states(seed_words, np.arange(a, stop))
        # numpy's own seeding of the chunk's first row, read before any write,
        # checks the replicated seeding and picks the layout written in
        seeded = np.random.PCG64(np.random.SeedSequence([seed, a]))
        layout = next((f for f in _LAYOUTS if _state_memory(seeded) == f(states[:32])), None)
        if layout is None and seeded.state != _state_spec(states[:32]):
            raise LpAdaptError("numpy's SeedSequence/PCG64 seeding differs from the replicated one")
        states = layout(states) if layout else states
        for b in range(a, stop, len(block)):
            e = min(b + len(block), stop)
            for row, k in zip(block, range(32 * (b - a), 32 * (e - a), 32)):
                if layout:
                    memory[:] = states[k : k + 32]
                else:
                    bitgen.state = _state_spec(states[k : k + 32])
                gen.standard_normal(out=row)
            block[: e - b].take(cols, axis=1, out=out[b:e])
    return out


class SelectionEnsemble:
    """Per-scale fits and the pairwise table T for a batch of observation rows.

    T is the pair_statistics table of every replicate: its upper triangle
    holds the selection statistics (weighted by the smaller-scale B), its
    lower triangle the moment-condition forms (weighted by the larger-scale
    B).  Selection under any thresholds is then a cheap sweep.
    """

    def __init__(self, ld: LadderDesign, Y: np.ndarray):
        if ld.K_eff < 1:
            raise CalibrationFailedError("no usable scale at the calibration point")
        self.ld = ld
        self.K = ld.K_eff
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self.mc = Y.shape[0]

        self.theta_tilde = ld.fit_stacked(Y)  # (mc, K, p)
        self.T = pair_statistics(self.theta_tilde, np.stack(ld.B_list)[None])  # (K, K, mc)
        # the two names perfbench/tracing.py reads; both are the one table
        self.T_small = self.T_large = self.T

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
    def pure_noise(cls, ld: LadderDesign, mc_size: int, seed: int) -> "SelectionEnsemble":
        """Ensemble under the calibration measure N(0, Sigma_model).

        The statistics are pivotal, so this one law stands for every mean in
        the span of the basis; draw takes a mean where one is wanted.
        """
        return cls.draw(ld, mc_size, seed, ld.sigma_model)

    def k_hat(self, z: np.ndarray) -> np.ndarray:
        """Selected index per replicate under thresholds z (length >= K-1): selection_sweep on T."""
        return selection_sweep(self.T, z)[0]

    def gap_forms(self, z: np.ndarray) -> np.ndarray:
        """(K, mc) quadratic forms (theta_k - theta_hat_k)^T B_k (...); zero row for k=1.

        Row k-1 is T[k-1, k_hat-1] where k_hat < k, and 0 where the sweep
        went on to scale k, so that theta_hat_k = theta_k.
        """
        khat = self.k_hat(z)
        k = np.arange(self.K)[:, None]
        return np.where(khat > k, 0.0, self.T[k, np.minimum(k, khat - 1), np.arange(self.mc)])

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
) -> CriticalValues:
    """Minimal-offset thresholds satisfying the empirical moment conditions.

    The candidate family is z_l(c) = c + 4 r (K-l) log(u_hat) / DEFAULT_MU
    with u_hat estimated from the realized information matrices, and c found
    by _BISECT_ITERS (12) bisection steps against max_k E|gap_k|^r <= alpha C(p, r)
    under pure noise (theta = 0; the statistics are pivotal).  Raises
    CalibrationFailedError when even the analytic offset fails empirically
    (MC size too small or a misconfigured ladder).

    Only the m points of the largest accepted window (LadderDesign.support)
    enter: the design is rebuilt on them with the accepted scales only, in
    increasing design index, and the pure-noise ensemble is drawn in window
    coordinates.  Replicate j is replicate_noise(seed, j, m), its i-th value
    on the i-th window point, times sigma_model there.  Cost therefore does
    not depend on n, and a point outside the window enters only through the
    scales the full design accepts.  validate_pc, SelectionEnsemble.draw
    and risk_experiment on a design over all n points draw on design
    indices, so validate_pc checks the thresholds on different noise.
    """
    _check_alpha_r(alpha, r)
    if mc_size < 1000:
        raise ParameterDomainError("mc_size must be >= 1000 for a usable calibration")
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    if ld.K_eff < 2:
        raise CalibrationFailedError(f"need at least 2 usable scales, got {ld.K_eff}")
    # rebuilt on the accepted scales and the largest window's points, in design order, so no point
    # outside it enters the B_k sums and no scale it rejected is gated again on the window alone
    accepted = ScaleLadder(ladder.bandwidths[: ld.K_eff], kernel=ladder.kernel)
    ld = LadderDesign(basis, accepted, ld.points[ld.support], x, ld.sigma_model[ld.support])
    K, p = ld.K_eff, basis.p
    u0_hat, u_hat = ld.growth_bounds()
    if u0_hat <= 1.0:
        raise CalibrationFailedError(
            f"windows do not strictly grow (u0_hat={u0_hat:.4f}); refine the ladder"
        )

    # every rebuilt point is in the support, so the draw is replicate j's first m values
    ens = SelectionEnsemble.pure_noise(ld, mc_size, seed)
    target = alpha * chi_square_moment(p, r)
    offsets, c_analytic = _cv_terms(p, r, K, alpha, u_hat, DEFAULT_MU)

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
    for _ in range(_BISECT_ITERS):
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
) -> PcReport:
    """Estimate every moment condition on a fresh pure-noise ensemble and report pass/fail.

    The ensemble is SelectionEnsemble.pure_noise on the full design, so it
    draws on design indices.  An entry passes when
    moment <= alpha C(p,r) (1 + 3 rel_se) with rel_se = std_error / moment,
    so zero-moment rows pass trivially.
    """
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    K = ld.K_eff
    if len(cv.z) < K - 1:
        raise ParameterDomainError(f"thresholds cover {len(cv.z) + 1} scales, ladder has {K}")
    ens = SelectionEnsemble.pure_noise(ld, mc_size, seed)
    mom, se = ens.pc_moments(np.asarray(cv.z, dtype=float), cv.r)
    bound = cv.alpha * chi_square_moment(basis.p, cv.r)
    entries = []
    for k in range(2, K + 1):
        m, s = float(mom[k - 1]), float(se[k - 1])
        rel = s / m if m > 0 else 0.0
        entries.append(PcEntry(k=k, moment=m, std_error=s, bound=bound, passed=m <= bound * (1.0 + 3.0 * rel)))
    return PcReport(entries=entries, alpha=cv.alpha, r=cv.r, mc_size=mc_size, seed=seed)
