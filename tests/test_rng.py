"""The package's key hash against numpy's SeedSequence, bit for bit."""
import itertools

import numpy as np
import pytest

from lela import ParameterError
from lela import rng as lrng

SEEDS = (0, 7, 2**32 - 1, 2**32, 2**63 - 1, -3)
# paths of length 0-5: with the seed, up to 6 entropy words, and up to 12
# when a part takes two words, so the entropy overflows the pool of 4
PATHS = ((), (5,), (5, 9), (2**40, 0, 3), (1, 2, 3, 2**63 - 1), (6, 0, 2**32, 4, 8))


def seed_sequence(seed, *path):
    """numpy's SeedSequence on the masked entropy, as the package keys it."""
    return np.random.SeedSequence(tuple(int(v) & lrng._MASK for v in (seed, *path)))


@pytest.mark.parametrize("seed,path", itertools.product(SEEDS, PATHS))
def test_stream_and_derive_seed_match_seed_sequence(seed, path):
    ss = seed_sequence(seed, *path)
    expected = np.random.Generator(np.random.Philox(ss))
    got = lrng.stream(seed, *path)
    assert np.array_equal(got.bit_generator.state["state"]["key"], ss.generate_state(2, np.uint64))
    assert np.array_equal(got.random(9), expected.random(9))
    assert np.array_equal(got.integers(0, 2**40, 5), expected.integers(0, 2**40, 5))
    child = int(ss.generate_state(1, np.uint64)[0]) & lrng._MASK
    assert lrng.derive_seed(seed, *path) == child


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", (lrng.TAG_BERNOULLI, lrng.TAG_ROW_DRAWS, 2**40))
def test_row_streams_match_per_row_streams(seed, tag):
    # out of order and a subset, as a server's rows are: each row's draws
    # depend on (seed, tag, row) alone; two draws per row read on through
    # Philox's buffer exactly as one stream does
    rows = np.array([17, 0, 2**32 - 1, 3, 40_000, 2])
    for row, g in zip(rows, lrng.row_streams(seed, tag, rows)):
        expected = np.random.Generator(np.random.Philox(seed_sequence(seed, tag, row)))
        assert np.array_equal(g.random(3), expected.random(3))
        assert np.array_equal(g.random(6), expected.random(6))
        assert np.array_equal(g.integers(0, 2**31, 3), expected.integers(0, 2**31, 3))


def test_row_streams_over_many_rows_match_the_row_stream():
    rows = np.random.default_rng(0).permutation(3000)[:2000]
    for row, g in zip(rows, lrng.row_streams(11, lrng.TAG_DIST_SAMPLE, rows)):
        assert np.array_equal(g.random(4), lrng.stream(11, lrng.TAG_DIST_SAMPLE, row).random(4))


def test_row_streams_of_no_rows_is_empty():
    assert list(lrng.row_streams(1, lrng.TAG_BERNOULLI, np.arange(0))) == []


@pytest.mark.parametrize("row", (-1, 2**32, 2**40))
def test_row_streams_refuse_row_ids_outside_one_word(row):
    # SeedSequence reads an id >= 2^32 as two words, and the package masks a
    # negative one to 63 bits; no matrix has such a row
    with pytest.raises(ParameterError):
        lrng.row_streams(1, lrng.TAG_BERNOULLI, np.array([0, row]))
