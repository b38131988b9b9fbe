"""Counter-based random streams.

Every (seed, lane, major, minor) cell owns an independent Philox stream, so
draws are a pure function of those four integers regardless of the order in
which cells are consumed.  Paths draw trial t from cell (t, 0); a replay from (0, 0) and (0, 1).
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

PATH_LANE = 0
EMULATION_LANE = 1


class _Key(ISeedSequence):
    """Philox key as seed state: no SeedSequence of OS entropy for the key to override."""

    def __init__(self, *words: int):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substream(seed: int, lane: int, major: int, minor: int) -> np.random.Generator:
    """Fresh generator at the start of cell (major, minor) of (seed, lane).

    seed, major and minor are Python or numpy integers, not bools, in [0, 2^64).
    """
    if not (np.issubdtype(type(seed), np.integer) and 0 <= seed < 2**64):
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not all(np.issubdtype(type(i), np.integer) and 0 <= i < 2**64 for i in (major, minor)):
        raise ValueError("stream indices must be unsigned 64-bit integers")
    counter = np.array([0, minor, major, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(seed, lane), counter=counter))
