"""Cell generators against fresh per-cell Philox streams and recorded draws."""

import numpy as np
import pytest

from lincoder.rng import EMULATION_LANE, PATH_LANE, substream


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
    cells = [(3, 1), (0, 0), (3, 0), (0, 2), (2**40, 5), (0, 0), (1, 2**63), (2**64 - 1, 0)]
    for major, minor in cells:
        assert draws(substream(seed, lane, major, minor)) == draws(
            fresh_cell(seed, lane, major, minor)
        )


def test_buffered_half_word_does_not_leak_into_the_next_cell():
    # Three 32-bit draws use half of a 64-bit output and buffer the other half.
    first = substream(11, PATH_LANE, 0, 0)
    first.integers(0, 2**32 - 1, size=3, dtype=np.uint32)
    assert first.bit_generator.state["has_uint32"] == 1
    got = substream(11, PATH_LANE, 0, 1).integers(0, 2**32 - 1, size=4, dtype=np.uint32)
    want = fresh_cell(11, PATH_LANE, 0, 1).integers(0, 2**32 - 1, size=4, dtype=np.uint32)
    assert np.array_equal(got, want)


def test_repositioning_restarts_a_partly_drawn_cell():
    first = substream(5, EMULATION_LANE, 2, 9).standard_normal(4)
    substream(5, EMULATION_LANE, 2, 9).standard_normal(1)
    assert np.array_equal(substream(5, EMULATION_LANE, 2, 9).standard_normal(4), first)


def test_validation():
    # A float, bool or string would otherwise be truncated or fail untyped.
    for seed in (-1, 2**64, 1.5, True, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
            substream(seed, PATH_LANE, 0, 0)
    for index in (-1, 2**64, 1.5, True, np.float64(1.0), "1"):
        for major, minor in ((index, 0), (0, index)):
            with pytest.raises(ValueError, match="^stream indices must be unsigned 64-bit"):
                substream(0, PATH_LANE, major, minor)


def test_stream_layout_matches_recorded_draws():
    # Draws recorded from trials 0 and 1 of a path (seed 7) and the replay
    # counts cell: a lane renumbering, a counter-word swap or a change in
    # numpy's Philox streams fails here.
    path_trial_0 = ["-0x1.bfebf98eb34f6p+0", "0x1.262aa53eba295p-1", "0x1.3a83595b97b77p-1"]
    path_trial_1 = ["-0x1.dddb385093fe0p-2", "-0x1.2b64472876d45p+0", "0x1.458dd70bbf414p+0"]
    for trial, recorded in enumerate((path_trial_0, path_trial_1)):
        normals = substream(7, PATH_LANE, trial, 0).standard_normal(3)
        assert [v.hex() for v in normals.tolist()] == recorded
    assert substream(7, EMULATION_LANE, 0, 1).multinomial(10, [0.2, 0.3, 0.5]).tolist() == [2, 5, 3]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("lane", [PATH_LANE, EMULATION_LANE])
@pytest.mark.parametrize("major", [0, 2**64 - 1])
@pytest.mark.parametrize("minor", [0, 2**64 - 1])
def test_cell_starts_in_the_state_of_a_keyed_philox(seed, lane, major, minor):
    got, want = substream(seed, lane, major, minor), fresh_cell(seed, lane, major, minor)
    # The key reaches Philox as its seed state, not past a SeedSequence drawn from OS entropy.
    key = got.bit_generator.seed_seq.generate_state(2, np.uint64)
    assert key.dtype == np.uint64 and key.tolist() == [seed, lane]
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert np.array_equal(got.bit_generator.random_raw(64), want.bit_generator.random_raw(64))
