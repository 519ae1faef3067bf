import numpy as np
from hypothesis import given, strategies as st

from censim.rng import (
    GOLDEN,
    MASK,
    TO_UNIT,
    draw_array,
    mix64_array,
    stream_array,
    uniform_array,
)

# first outputs of the published SplitMix64 sequence seeded with state 0
REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


# the scalar SplitMix64 on Python integers: the reference for the array path


def mix64(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def stream(seed: int, pid: int, year: int) -> int:
    return mix64(mix64(mix64(seed & MASK) ^ (pid & MASK)) ^ (year & MASK))


def draw(handle: int, slot: int) -> int:
    return mix64((handle + (slot + 1) * GOLDEN) & MASK)


def uniform(handle: int, slot: int) -> float:
    return (draw(handle, slot) >> 11) * TO_UNIT


def test_reference_sequence():
    assert tuple(draw(0, slot) for slot in range(3)) == REFERENCE
    zero = np.zeros(1, dtype=np.uint64)
    assert tuple(int(draw_array(zero, slot)[0]) for slot in range(3)) == REFERENCE


def test_mix64_stays_in_range():
    z = np.array([0, 1, MASK, 0xDEADBEEF, 1 << 63], dtype=np.uint64)
    assert mix64_array(z.copy()).dtype == np.uint64
    assert mix64_array(z.copy()).tolist() == [mix64(int(v)) for v in z]


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64))
def test_unit_range(handles):
    x = uniform_array(np.array(handles + [0, MASK], dtype=np.uint64), 0)
    assert ((0.0 <= x) & (x < 1.0)).all()


@given(st.integers(0, MASK), st.integers(0, MASK), st.integers(1900, 2200))
def test_stream_is_deterministic_and_sensitive(seed, pid, year):
    pids = np.array([pid, pid ^ 1, pid], dtype=np.uint64)
    h = stream_array(seed, pids, np.array([year, year, year + 1]))
    assert h[0] == stream_array(seed, pids[:1], year)[0]
    assert h[0] != h[1] and h[0] != h[2]


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


@given(st.lists(st.integers(0, 5000), min_size=1, max_size=12),
       st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=12),
       st.integers(0, MASK), st.integers(0, 20))
def test_stream_grid_broadcasts_year(pids, years, seed, slot):
    # a (pid, year) grid as synthgen draws it, against the scalar loop; a
    # negative int64 year wraps modulo 2**64 like year & MASK
    got = uniform_array(stream_array(seed, np.array(pids)[:, None],
                                     np.array(years, dtype=np.int64)), slot)
    want = [[uniform(stream(seed, p, y), slot) for y in years] for p in pids]
    np.testing.assert_array_equal(got, np.array(want))


def test_stream_year_wraps_past_64_bits():
    pids = np.arange(5)
    assert stream_array(3, pids, MASK + 5).tolist() == \
        stream_array(3, pids, 4).tolist() == [stream(3, p, 4) for p in range(5)]


def test_slots_do_not_collide():
    h = stream_array(20240817, np.array([42]), 2025)
    values = {int(draw_array(h, slot)[0]) for slot in range(16)}
    assert len(values) == 16


def test_uniform_distribution_sanity():
    h = stream_array(7, np.array([0]), 2000)
    xs = np.concatenate([uniform_array(h, slot) for slot in range(4096)])
    assert abs(xs.mean() - 0.5) < 0.02
    assert xs.min() >= 0.0 and xs.max() < 1.0


# the in-place kernels against the scalar reference, on the shapes and
# handles the simulator and synthgen pass them

@given(st.integers(0, MASK), st.integers(0, MASK), st.integers(0, MASK),
       st.integers(0, 20))
def test_zero_dimensional_inputs(z, seed, pid, slot):
    assert int(mix64_array(np.array(z, dtype=np.uint64))) == mix64(z)
    h = stream_array(seed, np.uint64(pid), 0)
    assert h.shape == () and int(h) == stream(seed, pid, 0)
    assert int(draw_array(h, slot)) == draw(int(h), slot)
    u = uniform_array(h, slot)
    assert u.shape == () and u.dtype == np.float64
    assert float(u) == uniform(int(h), slot)


@given(st.integers(1, 24), st.integers(0, MASK), st.integers(0, 20))
def test_stream_broadcasts_a_column_of_pids_against_a_row(n, seed, slot):
    # synthgen's kernel noise: an (n, 1) column against an (n,) row
    idx = np.arange(n)
    h = stream_array(seed, idx[:, None], idx)
    assert h.shape == (n, n)
    assert h.tolist() == [[stream(seed, i, j) for j in range(n)] for i in range(n)]
    assert uniform_array(h, slot).tolist() == [
        [uniform(stream(seed, i, j), slot) for j in range(n)] for i in range(n)]


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64),
       st.integers(0, 20))
def test_read_only_handles_are_left_unchanged(handles, slot):
    h = np.array(handles, dtype=np.uint64)
    h.flags.writeable = False
    pids = h.copy()
    pids.flags.writeable = False
    assert draw_array(h, slot).tolist() == [draw(x, slot) for x in handles]
    assert uniform_array(h, slot).tolist() == [uniform(x, slot) for x in handles]
    assert stream_array(5, pids, 2000).tolist() == [stream(5, x, 2000) for x in handles]
    assert h.tolist() == pids.tolist() == handles


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64),
       st.integers(0, 20))
def test_uniform_is_the_draw_shifted_and_scaled(handles, slot):
    h = np.array(handles, dtype=np.uint64)
    u = uniform_array(h, slot)
    assert u.dtype == np.float64 and u.shape == h.shape
    assert u.tobytes() == ((draw_array(h, slot) >> np.uint64(11))
                           * 2.0 ** -53).tobytes()
