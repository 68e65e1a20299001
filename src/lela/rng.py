"""Deterministic random streams keyed by (seed, path).

Every source of randomness in the package draws from a counter-based Philox
generator derived from an explicit seed plus a small integer path.  Streams
with distinct paths are statistically independent, which lets row-parallel
code (and the distributed simulator) reproduce exactly the draws of a
sequential run: the stream for row i depends only on (seed, tag, i), never on
which worker or server touches the row.

A Philox stream is fully set by its 128-bit key (Salmon et al., SC'11), and
the key of (seed, *path) is ``np.random.SeedSequence((seed, *path))``'s
``generate_state(2, np.uint64)``.  ``_keys`` computes that hash as uint32 array
arithmetic, for one path or for a whole column of row ids at once, and it is
the package's only key derivation: ``stream``, ``derive_seed`` and
``row_streams`` all read it.  ``row_streams`` computes every row's key up
front and then hands out one generator, reused: before each row it resets the
one Philox to that row's key at counter 0, so each yielded generator draws
exactly what ``stream(seed, tag, row)`` would, and is valid until the next
one is yielded.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError

_MASK = (1 << 63) - 1

# Stream tags.  Each randomized operation owns one tag so that unrelated
# operations sharing a seed never consume from the same stream.  A tag keys
# every draw made under it, so tags are never renumbered; 14 is unused.
TAG_SVD_INIT = 1
TAG_SPECTRAL = 2
TAG_BERNOULLI = 3
TAG_ROW_COUNTS = 4
TAG_ROW_DRAWS = 5
TAG_PRODUCT = 6
TAG_SOLVER = 7
TAG_DIST_SAMPLE = 8
TAG_DIST_INIT = 9
TAG_NOISE = 10
TAG_SKETCH = 11
TAG_FACTOR_U = 12
TAG_FACTOR_V = 13
TAG_PARTITION = 15
TAG_TRIAL = 16

# numpy's SeedSequence hash: its constants, its pool of four words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative int, low first."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _keys(entropy: list) -> np.ndarray:
    """The Philox key ``SeedSequence(entropy).generate_state(2, np.uint64)``.

    ``entropy`` lists the uint32 words the SeedSequence reads, each an int or
    a uint32 array; an array word hashes one entropy per element, and the
    result has that shape plus a trailing 2.  Every product is reduced
    modulo 2^32 as the C code's uint32 arithmetic is, exactly for ints and
    by wrapping for arrays; the multipliers advance with each use and are
    the same for every element, so they stay ints.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        const, value = const * _MULT_A & _M32, value ^ const
        value = value * const & _M32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = []
    const = _INIT_B
    for value in pool:  # generate_state's four words, pool[0..3] once each
        const, value = const * _MULT_B & _M32, value ^ const
        value = value * const & _M32
        state.append(np.asarray(value ^ (value >> 16), dtype=np.uint64))
    # read as two little-endian uint64, low word first
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _key(seed: int, *path: int) -> np.ndarray:
    """The Philox key of (seed, *path), each int masked to 63 bits."""
    return _keys([w for v in (seed, *path) for w in _words(int(v) & _MASK)])


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, *path); identical inputs, identical stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, *path)))


def derive_seed(seed: int, *path: int) -> int:
    """Stable 63-bit child seed for handing to a nested component."""
    return int(_key(seed, *path)[0]) & _MASK


def row_streams(seed: int, tag: int, rows):
    """The streams (seed, tag, row) for the row ids in ``rows``, in order.

    Every key is computed here, in one pass; the returned iterator then
    resets one generator to each row's key and yields it, so each yielded
    generator is valid until the next one is yielded.  Row ids must lie in
    [0, 2^32), one entropy word each.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() > _M32):
        raise ParameterError("row ids of a row stream must lie in [0, 2^32)")
    keys = _keys(_words(int(seed) & _MASK) + _words(int(tag) & _MASK) + [rows.astype(np.uint32)])
    return _reset_per_key(keys)


def _reset_per_key(keys: np.ndarray):
    gen = np.random.Generator(np.random.Philox(key=0))
    state = gen.bit_generator.state  # counter 0, buffer empty
    for key in keys:
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen
