"""noise_matrix seeds its replicates in batches and must still match numpy's own seeding.

Every row is checked bit for bit against a generator built directly from
numpy, a structural check bounds how many seeding objects a call builds, a
changed seeding rule must fail loudly, and bad seeds fail with
ParameterDomainError.
"""

import math

import numpy as np
import pytest

import lpadapt.calibration as calibration
from lpadapt.calibration import noise_matrix, replicate_noise
from lpadapt.exceptions import LpAdaptError, ParameterDomainError

CHUNK = calibration._STATE_CHUNK
SEEDS = [0, 7, 2**32 + 5, 2**70 + 3, 2**100 + 9, np.int64(123456789)]  # 1, 1, 2, 3 and 4 uint32 words; a numpy integer
COLS = {
    "empty": np.arange(0),
    "single": np.array([37]),
    "contiguous": np.arange(10, 60),
    "scattered": np.array([0, 3, 4, 41, 59]),
}


def numpy_rows(seed, rows, n, cols):
    """Oracle: one fresh numpy generator per replicate, seeded by SeedSequence([seed, j])."""
    return np.stack([np.random.default_rng(np.random.SeedSequence([seed, j])).standard_normal(n)[cols] for j in rows])


@pytest.mark.parametrize("seed", SEEDS, ids=str)
@pytest.mark.parametrize("cols", COLS.values(), ids=COLS.keys())
def test_rows_match_numpy_across_a_chunk_boundary(seed, cols):
    rows = CHUNK + 3
    got = noise_matrix(seed, rows, 60, cols)
    assert got.shape == (rows, cols.size)
    check = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, rows - 1]
    assert np.array_equal(got[check], numpy_rows(seed, check, 60, cols))


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
