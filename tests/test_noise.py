"""noise_matrix seeds its replicates in batches and must still match numpy's own seeding.

Every row is checked bit for bit against a generator built directly from
numpy, and every row's generator state against a one-row-at-a-time oracle:
PCG64's set_seed in 128-bit Python ints on numpy's own SeedSequence words.
Any RuntimeWarning fails a test here, so a limb operation that overflows on
numpy scalars instead of wrapping on arrays cannot pass unseen.  Structural
checks bound how many seeding objects a call builds and forbid numpy's
per-row state setter; the state layout written follows the
memory of numpy's own seeding, with numpy's setter when none matches; a
changed seeding rule must fail loudly before anything is written; the
scratch memory does not grow with the row count; bad seeds and row counts
fail with ParameterDomainError.
"""

import ctypes
import math
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpadapt.calibration as calibration
from lpadapt.calibration import SelectionEnsemble, noise_matrix, replicate_noise
from lpadapt.exceptions import LpAdaptError, ParameterDomainError
from lpadapt.local_model import Basis, LadderDesign, ScaleLadder

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CHUNK = calibration._STATE_CHUNK
MASK64, MASK128 = 2**64 - 1, 2**128 - 1
SEEDS = [0, 7, 2**32 + 5, 2**70 + 3, 2**100 + 9, np.int64(123456789)]  # 1, 1, 2, 3 and 4 uint32 words; a numpy integer
COLS = {
    "empty": np.arange(0),
    "single": np.array([37]),
    "contiguous": np.arange(10, 60),
    "scattered": np.array([0, 3, 4, 41, 59]),
    "prefix": np.arange(60),  # the window-coordinate shape mc_calibrate draws
}


def numpy_rows(seed, rows, n, cols):
    """Oracle: one fresh numpy generator per replicate, seeded by SeedSequence([seed, j])."""
    return np.stack([np.random.default_rng(np.random.SeedSequence([seed, j])).standard_normal(n)[cols] for j in rows])


def _seeded_words(seed_words, j):
    """numpy's SeedSequence([seed, j]).generate_state(4, uint64): s_hi, s_lo, i_hi, i_lo."""
    return np.random.SeedSequence([*seed_words, int(j)]).generate_state(4, np.uint64).tolist()


def _reference_states(seed_words, rows):
    """Oracle for _pcg64_states: PCG64's two-step set_seed in 128-bit Python ints, one row at a time."""
    states = []
    for j in rows:
        s_hi, s_lo, i_hi, i_lo = _seeded_words(seed_words, j)
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & MASK128
        state = (inc + ((s_hi << 64) | s_lo)) * calibration._PCG64_MULT + inc & MASK128
        states.append((state | inc << 128).to_bytes(32, "little"))
    return b"".join(states)


def test_reference_states_are_numpys():
    for seed in SEEDS:
        for j in (0, 9, 2**32 - 1):
            spec = np.random.PCG64(np.random.SeedSequence([seed, j])).state["state"]
            row = _reference_states(calibration._uint32_words(int(seed)), [j])
            assert row == spec["state"].to_bytes(16, "little") + spec["inc"].to_bytes(16, "little")


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("start, size", [(0, CHUNK), (2**31 - 7, CHUNK), (2**32 - CHUNK, CHUNK), (5, 1)],
                         ids=["first", "mid", "last", "one-row"])
def test_every_rows_state_matches_the_reference(seed, start, size):
    words, rows = calibration._uint32_words(int(seed)), np.arange(start, start + size)
    assert calibration._pcg64_states(words, rows) == _reference_states(words, rows)


def test_checked_block_carries_both_ways():
    # the limb additions inc + s and (inc + s) * mult + inc each carry into the high limb on some rows, not on others
    seen = set()
    for j in range(CHUNK):
        s_hi, s_lo, i_hi, i_lo = _seeded_words([0], j)
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & MASK128
        t = inc + ((s_hi << 64) | s_lo)
        seen.add(((inc & MASK64) + s_lo > MASK64, (t * calibration._PCG64_MULT & MASK64) + (inc & MASK64) > MASK64))
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**32 - 1), size=st.integers(1, 64))
def test_states_match_the_reference_for_any_seed_and_block(seed, start, size):
    words, rows = calibration._uint32_words(seed), np.arange(start, min(start + size, 2**32))
    assert calibration._pcg64_states(words, rows) == _reference_states(words, rows)


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("cols", COLS.values(), ids=COLS.keys())
def test_rows_match_numpy_across_a_chunk_boundary(seed, cols):
    rows = CHUNK + 3
    got = noise_matrix(seed, rows, 60, cols)
    assert got.shape == (rows, cols.size)
    check = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, rows - 1]
    assert np.array_equal(got[check], numpy_rows(seed, check, 60, cols))


def test_every_row_matches_numpy_across_block_and_chunk_edges():
    # width 200 takes blocks of R = 327 rows, so the second and third state chunks start inside a block
    n, rows = 200, 2 * CHUNK + 5
    ld = LadderDesign(Basis.polynomial(1), ScaleLadder((0.1, 0.25, 0.6), kernel="boxcar"),
                      np.linspace(0.0, 1.0, n), 0.5, np.linspace(0.5, 1.5, n))
    cols = ld.support
    R, _ = calibration._noise_blocks(0, rows, n, cols)
    assert cols[-1] == n - 1 and CHUNK % R and 2 * CHUNK % R
    want = numpy_rows(0, range(rows), n, cols)
    assert np.array_equal(noise_matrix(0, rows, n, cols), want)
    ens = SelectionEnsemble.draw(ld, rows, 0, ld.sigma_model)
    fits = np.stack([(want * ld.sigma_model[cols]) @ D[:, cols].T for D in ld.D_list], axis=1)
    assert np.all(np.abs(ens.theta_tilde - fits) <= 1e-12 * np.abs(fits).max(axis=0))


def test_row_65536_matches_numpy():
    rows = 65537
    assert rows > 2 * CHUNK
    got = noise_matrix(2**70 + 3, rows, 60, COLS["scattered"])
    check = [65535, 65536]
    assert np.array_equal(got[check], numpy_rows(2**70 + 3, check, 60, COLS["scattered"]))


def test_one_seed_sequence_per_chunk(monkeypatch):
    # a return to one numpy seeding object per replicate fails here without any timing
    built = []

    def counting(name):
        real = getattr(np.random, name)

        def build(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)

        return build

    for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, counting(name))
    noise_matrix(0, 5000, 200, np.arange(150, 200))
    chunks = math.ceil(5000 / CHUNK)
    assert chunks < 5
    assert built.count("SeedSequence") <= chunks
    assert built.count("PCG64") <= chunks + 1
    assert built.count("Generator") <= 1 and built.count("default_rng") == 0


def test_changed_seeding_fails_loudly(monkeypatch):
    monkeypatch.setattr(calibration, "_PCG64_MULT", calibration._PCG64_MULT + 2)
    with pytest.raises(LpAdaptError, match="seeding"):
        noise_matrix(0, 3, 10, np.arange(10))


@pytest.fixture
def assigned(monkeypatch):
    """np.random.PCG64 swapped for a subclass recording every state assignment."""
    values = []
    real = np.random.PCG64

    class PCG64(real):  # the same name, as numpy's state setter checks it
        @property
        def state(self):
            return real.state.__get__(self)

        @state.setter
        def state(self, value):
            values.append(value)
            real.state.__set__(self, value)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    return values


def test_no_per_row_state_setter(monkeypatch, assigned):
    # a return to numpy's dict setter for every row fails here without any timing
    got = noise_matrix(0, 5000, 200, np.arange(150, 200))
    assert assigned == []
    monkeypatch.undo()
    check = [0, CHUNK, 4999]
    assert np.array_equal(got[check], numpy_rows(0, check, 200, np.arange(150, 200)))


def _reversed(states):  # a layout no numpy build uses
    return states[::-1]


@pytest.mark.parametrize(
    "name, value, setter_calls",
    [
        ("_LAYOUTS", (_reversed, *calibration._LAYOUTS), 0),  # the matching layout need not come first
        ("_LAYOUTS", (_reversed,), CHUNK + 3),  # no layout matches numpy's memory: numpy's setter
        ("_state_memory", lambda bitgen: None, CHUNK + 3),  # the state is not inside the generator
    ],
    ids=["later-layout", "no-layout", "no-memory"],
)
def test_layout_follows_numpys_seeded_memory(monkeypatch, assigned, name, value, setter_calls):
    monkeypatch.setattr(calibration, name, value)
    got = noise_matrix(0, CHUNK + 3, 60, COLS["scattered"])
    assert len(assigned) == setter_calls
    monkeypatch.undo()
    check = [0, 1, CHUNK, CHUNK + 2]
    assert np.array_equal(got[check], numpy_rows(0, check, 60, COLS["scattered"]))


def test_hilo_words_are_numpys_emulated_pcg128_layout():
    spec = np.random.PCG64(np.random.SeedSequence([5, 9])).state["state"]
    words = [w for v in (spec["state"], spec["inc"]) for w in (v >> 64, v & (2**64 - 1))]
    # struct { uint64_t high; uint64_t low; } in native byte order, for the state and then inc
    assert calibration._hilo_words(calibration._pcg64_states([5], np.array([9]))) == struct.pack("=4Q", *words)


def test_state_pointer_outside_the_generator_is_not_followed():
    elsewhere = (ctypes.c_ubyte * 32)()
    pointer = ctypes.c_void_p(ctypes.addressof(elsewhere))
    fake = types.SimpleNamespace(ctypes=types.SimpleNamespace(state_address=ctypes.addressof(pointer)))
    assert calibration._state_memory(fake) is None
    assert calibration._state_memory(np.random.PCG64()) is not None


def test_mismatched_states_fail_before_any_write(monkeypatch):
    # each row's state and inc halves swapped match neither numpy's memory nor its seeding
    real = calibration._pcg64_states

    def swapped(seed_words, rows):
        states = real(seed_words, rows)
        return b"".join(states[k + 16 : k + 32] + states[k : k + 16] for k in range(0, len(states), 32))

    drawn = []

    class Recording(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            drawn.append(1)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(calibration, "_pcg64_states", swapped)
    monkeypatch.setattr(np.random, "Generator", Recording)
    with pytest.raises(LpAdaptError, match="seeding"):
        noise_matrix(0, 3, 10, np.arange(10))
    assert drawn == []
    monkeypatch.undo()
    cols = COLS["scattered"]
    assert np.array_equal(noise_matrix(0, 3, 60, cols), numpy_rows(0, range(3), 60, cols))


def test_scratch_memory_does_not_grow_with_rows():
    noise_matrix(0, 2, 5000, [4999])  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        out = noise_matrix(0, 3 * CHUNK, 5000, [4999])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk's generator states take under 1 MB and the draw buffer one
    # row; a CHUNK x 5000 block would take 80 MB
    assert peak < out.nbytes + 2 * 2**20, peak


def test_rows_past_two_to_the_32_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterDomainError, match="rows"):
            noise_matrix(0, 2**32 + 1, 10, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("seed", [-3, 1.5, 2.0, np.float64(4.0), "5", True])
def test_bad_seed_rejected(seed):
    with pytest.raises(ParameterDomainError, match="seed"):
        noise_matrix(seed, 2, 10, np.arange(10))
    with pytest.raises(ParameterDomainError, match="seed"):
        replicate_noise(seed, 0, 10)


@pytest.mark.parametrize("rows", [-1, 2.0])
def test_bad_rows_rejected(rows):
    with pytest.raises(ParameterDomainError, match="rows"):
        noise_matrix(0, rows, 10, np.arange(10))


def test_bad_replicate_rejected():
    with pytest.raises(ParameterDomainError, match="replicate"):
        replicate_noise(0, -1, 10)
