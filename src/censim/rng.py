"""Counter-based random numbers for the microsimulator.

The generator is SplitMix64: a stateless 64-bit mixing function applied to a
counter.  Every (seed, person, year) triple owns an independent substream,
and each random decision within the person-year occupies a fixed slot, so a
simulation is reproducible across platforms and person updates can run in
any order.  A draw is computed straight from its (seed, person, year, slot)
key, so drawing only the slots a person-year reads, for only the persons
that read them, gives every person the same numbers as drawing all slots up
front, whatever the order of events within the year.

Every function works on numpy uint64 arrays.  mix64_array overwrites its
argument, using one scratch array for its three shifts; the others never
write to their inputs (a simulation's start state is read-only) and each
returns one new array: stream_array and draw_array mix a copy of their input
in place, and uniform_array turns its draw into floats inside the draw's own
buffer.
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
TO_UNIT = 2.0 ** -53


def mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every element of a uint64 array, in
    place; returns z."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= np.uint64(_M1)
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= np.uint64(_M2)
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def stream_array(seed: int, pids: np.ndarray, year) -> np.ndarray:
    """Substream handles of person-years; year is an integer or an integer
    array that broadcasts against pids, and both wrap modulo 2**64."""
    base = mix64_array(np.array(seed & MASK, dtype=np.uint64))
    h = np.array(pids, dtype=np.uint64)
    h ^= base
    mix64_array(h)
    year = np.asarray(np.asarray(year).astype(object) & MASK, dtype=np.uint64)
    if np.broadcast_shapes(h.shape, year.shape) == h.shape:
        h ^= year
    else:  # year widens the grid, as a row of years against a column of pids
        h = h ^ year
    return mix64_array(h)


def draw_array(handles: np.ndarray, slot: int) -> np.ndarray:
    """The slot-th 64-bit value of each substream."""
    z = np.array(handles, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z += np.uint64((((slot + 1) * GOLDEN) & MASK))
    return mix64_array(z)


def uniform_array(handles: np.ndarray, slot: int) -> np.ndarray:
    """draw_array mapped onto [0, 1) with 53-bit resolution."""
    u = draw_array(handles, slot)
    u >>= np.uint64(11)
    x = u.view(np.float64)
    # numpy casts a 1-d assignment onto its own buffer in place, with no copy
    x.reshape(-1)[...] = u.reshape(-1)
    x *= TO_UNIT
    return x
