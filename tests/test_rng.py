"""Repositioned cell generators against fresh per-cell Philox streams."""

import numpy as np
import pytest

from lincoder.rng import EMULATION_LANE, PATH_LANE, CellStreams, substream


def fresh_cell(seed, lane, major, minor):
    counter = np.array([0, minor, major, 0], dtype=np.uint64)
    bits = np.random.Philox(counter=counter, key=np.array([seed, lane], dtype=np.uint64))
    return np.random.Generator(bits)


def draws(generator):
    """A mix of draws ending on an odd number of half (32-bit) outputs."""
    return (
        generator.standard_normal(3).tobytes()
        + generator.multinomial(100, [0.2, 0.3, 0.5]).tobytes()
        + int(generator.integers(2**40)).to_bytes(8, "little")
        + generator.integers(0, 2**32 - 1, size=3, dtype=np.uint32).tobytes()
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("lane", [PATH_LANE, EMULATION_LANE])
def test_cells_visited_out_of_order_match_fresh_streams(seed, lane):
    streams = CellStreams(seed, lane)
    cells = [(3, 1), (0, 0), (3, 0), (0, 2), (2**40, 5), (0, 0), (1, 2**63)]
    for major, minor in cells:
        assert draws(substream(streams, major, minor)) == draws(fresh_cell(seed, lane, major, minor))


def test_buffered_half_word_does_not_leak_into_the_next_cell():
    streams = CellStreams(11, PATH_LANE)
    # Three 32-bit draws use half of a 64-bit output and buffer the other half.
    first = substream(streams, 0, 0)
    first.integers(0, 2**32 - 1, size=3, dtype=np.uint32)
    assert first.bit_generator.state["has_uint32"] == 1
    got = substream(streams, 0, 1).integers(0, 2**32 - 1, size=4, dtype=np.uint32)
    want = fresh_cell(11, PATH_LANE, 0, 1).integers(0, 2**32 - 1, size=4, dtype=np.uint32)
    assert np.array_equal(got, want)


def test_repositioning_restarts_a_partly_drawn_cell():
    streams = CellStreams(5, EMULATION_LANE)
    first = substream(streams, 2, 9).standard_normal(4)
    substream(streams, 2, 9).standard_normal(1)
    assert np.array_equal(substream(streams, 2, 9).standard_normal(4), first)


def test_validation():
    with pytest.raises(ValueError):
        CellStreams(-1, PATH_LANE)
    with pytest.raises(ValueError):
        CellStreams(2**64, PATH_LANE)
    streams = CellStreams(0, PATH_LANE)
    with pytest.raises(ValueError):
        substream(streams, -1, 0)
    with pytest.raises(ValueError):
        substream(streams, 0, -1)
