"""Counter-based random streams.

Every (seed, lane, major, minor) cell owns an independent Philox stream, so
draws are a pure function of those four integers regardless of the order in
which cells are consumed.  Paths draw trial t from cell (t, 0); a replay from (0, 0) and (0, 1).

A run makes one ``CellStreams`` per (seed, lane): a single Philox generator
that ``substream`` repositions onto each cell by overwriting its counter
words, which draws exactly what a fresh ``Philox(counter=[0, minor, major,
0], key=[seed, lane])`` would.  The generator ``substream`` returns is that
one shared generator, so it stays valid only until the next cell of the same
``CellStreams`` is positioned.
"""

from __future__ import annotations

import numpy as np

PATH_LANE = 0
EMULATION_LANE = 1

_U64 = 2**64


class CellStreams:
    """The cells of one (seed, lane), served by one repositioned generator."""

    def __init__(self, seed: int, lane: int):
        if not 0 <= seed < _U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        key = np.array([seed, lane], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)
        self._generator = np.random.Generator(self._bits)
        # Start state of every cell.  The low counter word free-runs as values
        # are drawn; major/minor live in the high words.  buffer_pos = 4 and
        # has_uint32 = 0 leave no buffered output of the previous cell behind.
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


def substream(streams: CellStreams, major: int, minor: int) -> np.random.Generator:
    """Generator of ``streams`` positioned at the start of cell (major, minor)."""
    if major < 0 or minor < 0:
        raise ValueError("stream indices must be nonnegative")
    streams._counter[1] = minor % _U64
    streams._counter[2] = major % _U64
    streams._bits.state = streams._state
    return streams._generator
