"""Counter-based random numbers for the microsimulator.

The generator is SplitMix64: a stateless 64-bit mixing function applied to a
counter.  Every (seed, person, year) triple owns an independent substream,
and each random decision within the person-year occupies a fixed slot, so a
simulation is reproducible across platforms and person updates can run in
any order.  A draw is computed straight from its (seed, person, year, slot)
key, so drawing only the slots a person-year reads, for only the persons
that read them, gives every person the same numbers as drawing all slots up
front, whatever the order of events within the year.

Every function works on numpy uint64 arrays (mix64_array overwrites its
argument; the others return new arrays).
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
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
    return z


def stream_array(seed: int, pids: np.ndarray, year) -> np.ndarray:
    """Substream handles of person-years; year is an integer or an integer
    array that broadcasts against pids, and both wrap modulo 2**64."""
    base = mix64_array(np.array(seed & MASK, dtype=np.uint64))
    h = mix64_array(base ^ np.asarray(pids, np.uint64))
    year = np.asarray(year).astype(object) & MASK
    return mix64_array(h ^ np.asarray(year, dtype=np.uint64))


def draw_array(handles: np.ndarray, slot: int) -> np.ndarray:
    """The slot-th 64-bit value of each substream."""
    with np.errstate(over="ignore"):
        counter = (np.asarray(handles, np.uint64)
                   + np.uint64((((slot + 1) * GOLDEN) & MASK)))
    return mix64_array(counter)


def uniform_array(handles: np.ndarray, slot: int) -> np.ndarray:
    """draw_array mapped onto [0, 1) with 53-bit resolution."""
    u = draw_array(handles, slot)
    u >>= np.uint64(11)
    return u * TO_UNIT
