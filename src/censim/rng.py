"""Counter-based random numbers for the microsimulator.

The generator is SplitMix64: a stateless 64-bit mixing function applied to a
counter.  Every (seed, person, year) triple owns an independent substream,
and each random decision within the person-year occupies a fixed slot, so a
simulation is reproducible across platforms and person updates can run in
any order.  A draw is computed straight from its (seed, person, year, slot)
key, so drawing only the slots a person-year reads, for only the persons
that read them, gives every person the same numbers as drawing all slots up
front, whatever the order of events within the year.

Scalar helpers work on plain Python integers; the _array variants accept
numpy uint64 arrays and vectorize the identical arithmetic (mix64_array
overwrites its argument; the others return new arrays).
"""

from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
TO_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * _M1) & MASK
    z = ((z ^ (z >> 27)) * _M2) & MASK
    return z ^ (z >> 31)


def stream(seed: int, pid: int, year: int) -> int:
    """Substream handle for one person-year."""
    return mix64(mix64(mix64(seed & MASK) ^ (pid & MASK)) ^ (year & MASK))


def draw(handle: int, slot: int) -> int:
    """The slot-th 64-bit value of a substream."""
    return mix64((handle + (slot + 1) * GOLDEN) & MASK)


def unit(u: int) -> float:
    """Map a 64-bit draw onto [0, 1) with 53-bit resolution."""
    return (u >> 11) * TO_UNIT


def uniform(handle: int, slot: int) -> float:
    return unit(draw(handle, slot))


def mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, in place; returns z."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
    return z


def stream_array(seed: int, pids: np.ndarray, year: int) -> np.ndarray:
    base = mix64(seed & MASK)
    h = mix64_array(np.uint64(base) ^ np.asarray(pids, np.uint64))
    h ^= np.uint64(year & MASK)
    return mix64_array(h)


def draw_array(handles: np.ndarray, slot: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        counter = (np.asarray(handles, np.uint64)
                   + np.uint64((((slot + 1) * GOLDEN) & MASK)))
    return mix64_array(counter)


def uniform_array(handles: np.ndarray, slot: int) -> np.ndarray:
    u = draw_array(handles, slot)
    u >>= np.uint64(11)
    return u * TO_UNIT
