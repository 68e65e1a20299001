"""Deterministic random streams keyed by (seed, path).

Every source of randomness in the package draws from a counter-based Philox
generator derived from an explicit seed plus a small integer path.  Streams
with distinct paths are statistically independent, which lets row-parallel
code (and the distributed simulator) reproduce exactly the draws of a
sequential run: the stream for row i depends only on (seed, tag, i), never on
which worker or server touches the row.
"""
from __future__ import annotations

import numpy as np

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
TAG_SPLIT = 7
TAG_DIST_SAMPLE = 8
TAG_DIST_INIT = 9
TAG_NOISE = 10
TAG_SKETCH = 11
TAG_FACTOR_U = 12
TAG_FACTOR_V = 13
TAG_PARTITION = 15
TAG_TRIAL = 16


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, *path); identical inputs, identical stream."""
    entropy = (int(seed) & _MASK,) + tuple(int(p) & _MASK for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *path: int) -> int:
    """Stable 63-bit child seed for handing to a nested component."""
    entropy = (int(seed) & _MASK,) + tuple(int(p) & _MASK for p in path)
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
    return int(state) & _MASK
