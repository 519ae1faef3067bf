import numpy as np
from hypothesis import given, strategies as st

from censim.rng import (
    MASK,
    draw,
    draw_array,
    mix64,
    mix64_array,
    stream,
    stream_array,
    uniform,
    uniform_array,
    unit,
)

# first outputs of the published SplitMix64 sequence seeded with state 0
REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_reference_sequence():
    assert tuple(draw(0, slot) for slot in range(3)) == REFERENCE


def test_mix64_stays_in_range():
    for z in (0, 1, MASK, 0xDEADBEEF, 1 << 63):
        assert 0 <= mix64(z) <= MASK


@given(st.integers(0, MASK))
def test_unit_range(u):
    x = unit(u)
    assert 0.0 <= x < 1.0
    assert unit(MASK) < 1.0
    assert unit(0) == 0.0


@given(st.integers(0, MASK), st.integers(0, MASK), st.integers(1900, 2200))
def test_stream_is_deterministic_and_sensitive(seed, pid, year):
    h = stream(seed, pid, year)
    assert h == stream(seed, pid, year)
    assert h != stream(seed, pid ^ 1, year)
    assert h != stream(seed, pid, year + 1)


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64),
       st.integers(0, MASK), st.integers(0, 20), st.integers(1900, 2100))
def test_vector_paths_match_scalar(pids, seed, slot, year):
    arr = np.array(pids, dtype=np.uint64)
    assert list(mix64_array(arr.copy())) == [mix64(p) for p in pids]
    handles = stream_array(seed, arr, year)
    assert list(handles) == [stream(seed, p, year) for p in pids]
    assert list(draw_array(handles, slot)) == [
        draw(stream(seed, p, year), slot) for p in pids]
    np.testing.assert_array_equal(
        uniform_array(handles, slot),
        np.array([uniform(stream(seed, p, year), slot) for p in pids]))


def test_slots_do_not_collide():
    h = stream(20240817, 42, 2025)
    values = [draw(h, slot) for slot in range(16)]
    assert len(set(values)) == 16


def test_uniform_distribution_sanity():
    h = stream(7, 0, 2000)
    xs = [uniform(h, slot) for slot in range(4096)]
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.02
    assert min(xs) >= 0.0 and max(xs) < 1.0
