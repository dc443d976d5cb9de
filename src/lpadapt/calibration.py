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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationFailedError, LpAdaptError, ParameterDomainError
from .fll_selector import _thresholds, pair_forms, pair_statistics, selection_sweep
from .local_model import Basis, LadderDesign, ScaleLadder

DEFAULT_MU = 0.125
#: bisection steps of mc_calibrate's offset search
_BISECT_ITERS = 12
#: the smallest Monte-Carlo size whose moments and standard errors mc_calibrate and validate_pc use
MIN_MC_SIZE = 1000


def check_mc_size(mc_size: int):
    """ParameterDomainError unless mc_size reaches MIN_MC_SIZE."""
    if not mc_size >= MIN_MC_SIZE:  # NaN fails too
        raise ParameterDomainError(f"mc_size must be >= {MIN_MC_SIZE}, got {mc_size}")


def check_r(r: float):
    """ParameterDomainError naming the moment power r unless it is a finite positive number (a bool is not one)."""
    if isinstance(r, bool) or not (isinstance(r, numbers.Real) and math.isfinite(r) and r > 0):
        raise ParameterDomainError(f"r={r!r} must be finite and positive")


def chi_square_moment(p: int, r: float) -> float:
    """r-th absolute moment of chi^2_p: 2^r Gamma(r + p/2) / Gamma(p/2)."""
    if p < 1:
        raise ParameterDomainError("p must be >= 1")
    check_r(r)
    return math.exp(r * math.log(2.0) + math.lgamma(r + p / 2.0) - math.lgamma(p / 2.0))


def threshold_constant(p: int, r: float) -> float:
    """Additive constant in the analytic threshold formula.

    log{ 2^{2r} [Gamma(2r + p/2) Gamma(p/2)]^{1/2} / Gamma(r + p/2) },
    evaluated in log space.
    """
    return (
        2.0 * r * math.log(2.0)
        + 0.5 * (math.lgamma(2.0 * r + p / 2.0) + math.lgamma(p / 2.0))
        - math.lgamma(r + p / 2.0)
    )


def _check_alpha_r(alpha: float, r: float):
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and 0.0 < alpha <= 1.0):
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

    @classmethod
    def from_json(cls, text: str) -> "CriticalValues":
        """Parse calibrate's JSON; unknown keys are ignored, malformed input raises ParameterDomainError."""
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
_BLOCK_BYTES = 2**19  # cap on one block of drawn rows; sets the block row count R


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


def _chunk_states(seed: int, seed_words: list[int], a: int, stop: int) -> tuple[bytes, object]:
    """Generator states of rows a..stop-1 and the layout to write them in (None: numpy's state setter).

    numpy's own seeding of row a, read before any write, checks the
    replicated seeding and picks the layout that matches its memory.
    """
    states = _pcg64_states(seed_words, np.arange(a, stop))
    seeded = np.random.PCG64(np.random.SeedSequence([seed, a]))
    layout = next((f for f in _LAYOUTS if _state_memory(seeded) == f(states[:32])), None)
    if layout is None and seeded.state != _state_spec(states[:32]):
        raise LpAdaptError("numpy's SeedSequence/PCG64 seeding differs from the replicated one")
    return (layout(states) if layout else states), layout


def _noise_blocks(seed: int, rows: int, n: int, cols) -> tuple[int, Iterator[tuple[int, np.ndarray]]]:
    """The package's replicate-noise generator: the rows of noise_matrix, R at a time.

    Returns R and an iterator over (b, block), where block holds rows
    b..b+R-1 (fewer in the last block) on the columns cols and is reused by
    the next block.  Only the first cols[-1] + 1 values of each replicate
    are drawn, into a buffer of R = max(1, _BLOCK_BYTES // (8 (cols[-1] + 1)))
    rows, so R depends on the drawn width and never on rows.  When cols is
    the prefix arange(cols[-1] + 1), block is a view of that buffer;
    otherwise its columns cols are taken into a second buffer of R rows.  The generator
    states of up to _STATE_CHUNK rows are computed together and written in
    turn into the memory of one reused generator, after a read-only check
    against numpy's own seeding of the chunk's first row (_chunk_states).
    No numpy seeding object is built per row.  The arguments are checked
    before anything is drawn.
    """
    seed, rows = _check_index("seed", seed), _check_index("rows", rows)
    if rows > 2**32:
        raise ParameterDomainError(f"rows must be at most 2**32, got {rows}")
    cols = np.asarray(cols, dtype=np.intp)
    if cols.ndim != 1 or (cols.size and (cols[0] < 0 or cols[-1] >= n or np.any(np.diff(cols) <= 0))):
        raise ParameterDomainError(f"noise columns must be strictly increasing indices in [0, {n})")
    width = int(cols[-1]) + 1 if cols.size else 1
    R = max(1, _BLOCK_BYTES // (8 * width))
    return R, (_blocks(seed, rows, cols, width, R) if cols.size else iter(()))


def _blocks(seed: int, rows: int, cols: np.ndarray, width: int, R: int) -> Iterator[tuple[int, np.ndarray]]:
    """The draws behind _noise_blocks, for checked arguments."""
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    memory = _state_memory(bitgen)  # its has_uint32 stays 0: it only draws doubles
    block = np.empty((R, width))
    taken = None if cols.size == width else np.empty((R, cols.size))  # strictly increasing, so width columns are all
    seed_words = _uint32_words(seed)
    for b in range(0, rows, R):
        e = min(b + R, rows)
        j = b
        while j < e:  # the rows of this block, split where a state chunk ends
            if j % _STATE_CHUNK == 0:
                a = j
                states, layout = _chunk_states(seed, seed_words, a, min(a + _STATE_CHUNK, rows))
            stop = min(e, a + _STATE_CHUNK)
            for row, k in zip(block[j - b : stop - b], range(32 * (j - a), 32 * (stop - a), 32)):
                if layout:
                    memory[:] = states[k : k + 32]
                else:
                    bitgen.state = _state_spec(states[k : k + 32])
                gen.standard_normal(out=row)
            j = stop
        yield b, block[: e - b] if taken is None else block[: e - b].take(cols, axis=1, out=taken[: e - b])


def noise_matrix(seed: int, rows: int, n: int, cols) -> np.ndarray:
    """Noise of replicates 0..rows-1 on the columns cols of an n-point design, as one array.

    Row j equals replicate_noise(seed, j, n)[cols] bit for bit.  The rows
    come from _noise_blocks, the generator that SelectionEnsemble.draw
    streams, so only the returned array grows with rows.
    cols must be strictly increasing indices in [0, n), rows at most 2**32.
    Returns shape (rows, len(cols)).
    """
    _, blocks = _noise_blocks(seed, rows, n, cols)
    out = np.empty((rows, np.size(cols)))
    for b, block in blocks:
        out[b : b + len(block)] = block
    return out


def _design_values(name: str, values, n: int) -> np.ndarray:
    """values as a float array of shape (n,); ParameterDomainError naming it unless it has that shape and is finite."""
    v = np.asarray(values, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ParameterDomainError(f"{name} must hold {n} finite values, one per design point; got shape {v.shape}")
    return v


def _fitted_draws(sub: LadderDesign, n: int, cols: np.ndarray, mc_size: int, seed: int, sd, shift) -> np.ndarray:
    """SelectionEnsemble.draw's fits (mc_size, K, p) on sub, its design restricted to cols of n points.

    sd and shift are given on cols.  The noise blocks, Y and the generator die on return.
    """
    R, blocks = _noise_blocks(seed, mc_size, n, cols)
    Y = np.zeros((R, cols.size))
    theta_tilde = np.empty((mc_size, sub.K_eff, sub.basis.p))
    for b, eps in blocks:
        rows = len(eps)
        np.multiply(eps, sd, out=Y[:rows])
        if shift is not None:
            Y[:rows] += shift
        Y[rows:] = 0.0  # the last block's padding
        theta_tilde[b : b + rows] = sub.fit_stacked(Y)[:rows]
    return theta_tilde


class SelectionEnsemble:
    """Per-scale fits and the packed selection statistics T for a batch of replicates.

    Built from the fits theta_tilde (mc, K, p) of design ld; the
    observations themselves are not kept.  T is the (K (K - 1) / 2, mc)
    pair_statistics table of every replicate: the selection statistics T_lm,
    l < m, weighted by the smaller scale's B, T_lm in row pair_row(l, m).
    Selection under any thresholds is then a cheap sweep.  The
    moment-condition forms, weighted by the larger scale's B, are formed
    from theta_tilde by pair_forms where they are read (_gap), for the
    stopped replicates only.  An ensemble holds 8 (K (K - 1) / 2 + K p)
    bytes per replicate: 216 at K = 6 and p = 2, 1,360 at K = 17.
    """

    def __init__(self, ld: LadderDesign, theta_tilde: np.ndarray):
        if ld.K_eff < 1:
            raise CalibrationFailedError("no usable scale at the calibration point")
        self.ld = ld
        self.K = ld.K_eff
        self.theta_tilde = np.ascontiguousarray(theta_tilde)  # (mc, K, p); _gap reads it as (mc K, p) rows
        self.mc = theta_tilde.shape[0]
        self.T = pair_statistics(theta_tilde, np.stack(ld.B_list)[None])  # (K (K - 1) / 2, mc)
        # the two names perfbench/tracing.py reads; both are the one table
        self.T_small = self.T_large = self.T

    @classmethod
    def draw(cls, ld: LadderDesign, mc_size: int, seed: int, sd, mean=None) -> "SelectionEnsemble":
        """Ensemble of the observations mean + sd * eps with eps from _noise_blocks, fitted block by block.

        sd and mean are given at all n design points: ParameterDomainError
        unless each has shape (n,) and finite values, and sd is >= 0 (0 is a
        noiseless truth).  Every D_k is zero outside ld.support, so only
        those columns are drawn.  Each block of R noise rows is scaled and
        shifted, zero-padded to R rows and fitted by one fit_stacked call,
        so every GEMM has the same shape and replicate j's fits depend on
        (seed, j) and R, not on mc_size (with one BLAS thread, bit for bit).
        The blocks die before T is formed, and only the fits and T are kept:
        memory is O(R x len(support) + mc_size x K^2), whatever n is.
        """
        n = ld.points.shape[0]
        sd = _design_values("sd", sd, n)
        if np.any(sd < 0):
            raise ParameterDomainError("sd must be >= 0 at every design point")
        cols = ld.support
        shift = None if mean is None else _design_values("mean", mean, n)[cols]
        sub = ld.restrict(cols)
        return cls(sub, _fitted_draws(sub, n, cols, mc_size, seed, sd[cols], shift))

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

    def _gap(self, khat: np.ndarray, k: int) -> np.ndarray:
        """Scale k+1's gap forms for the selected indices khat, 0 where k_hat > k.

        Where k_hat <= k the form is (theta_{k_hat} - theta_{k+1})^T B_{k+1} (...),
        formed by pair_forms for those replicates only.
        """
        gap = np.zeros(self.mc)
        stopped = np.flatnonzero(khat <= k)
        if stopped.size:
            fits = self.theta_tilde.reshape(-1, self.theta_tilde.shape[-1])  # row j K + i: replicate j's theta_{i+1}
            at = stopped * self.K
            selected = fits.take(at + khat[stopped] - 1, axis=0)
            gap[stopped] = pair_forms(selected, fits.take(at + k, axis=0), self.ld.B_list[k])
        return gap

    def gap_forms(self, khat: np.ndarray) -> np.ndarray:
        """(K, mc) quadratic forms (theta_k - theta_hat_k)^T B_k (...) for the selected indices khat; zero row for k=1.

        Row k-1 is the form of theta_{k_hat} - theta_k under B_k where
        k_hat < k, and 0 where the sweep went on to scale k, so that
        theta_hat_k = theta_k.  khat is k_hat's result, so a caller that
        needs both sweeps once.
        """
        return np.stack([self._gap(khat, k) for k in range(self.K)])

    def pc_moments(self, z: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Empirical moments E|gap|^r and their standard errors for k = 1..K, formed one scale at a time."""
        khat = self.k_hat(z)
        mom, se = np.empty(self.K), np.empty(self.K)
        for k in range(self.K):
            powered = self._gap(khat, k) ** r
            mom[k] = powered.mean()
            se[k] = powered.std(ddof=1) / math.sqrt(self.mc)
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
    check_mc_size(mc_size)
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

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def pc_report(cv: CriticalValues, ens: SelectionEnsemble) -> PcReport:
    """The moment condition of each scale k = 2..K under thresholds cv, on the ensemble ens.

    An entry passes when moment <= alpha C(p,r) (1 + 3 rel_se) with
    rel_se = std_error / moment, so zero-moment rows pass trivially.
    """
    mom, se = ens.pc_moments(_thresholds(cv, ens.K), cv.r)
    bound = cv.alpha * chi_square_moment(ens.ld.basis.p, cv.r)
    entries = []
    for k in range(2, ens.K + 1):
        m, s = float(mom[k - 1]), float(se[k - 1])
        rel = s / m if m > 0 else 0.0
        entries.append(PcEntry(k=k, moment=m, std_error=s, bound=bound, passed=m <= bound * (1.0 + 3.0 * rel)))
    return PcReport(entries=entries)


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
    """pc_report of thresholds cv on a fresh pure-noise ensemble of mc_size replicates at seed.

    The ensemble is SelectionEnsemble.pure_noise on the full design, so it
    draws on design indices.  mc_size must reach MIN_MC_SIZE.
    """
    check_mc_size(mc_size)
    ld = LadderDesign(basis, ladder, design_points, x, sigma_model)
    return pc_report(cv, SelectionEnsemble.pure_noise(ld, mc_size, seed))
