"""Sullivan-method life tables.

From a death-probability series q(0..a_max) ``_columns`` fills survivors l,
deaths d, person-years at risk L = l - alpha*d, and cumulative person-years
T on Python floats, closing with the analytic geometric tail beyond a_max
where q stays constant: sum of L from a_max on equals l_amax * (1 - q_amax/2)
/ q_amax.  Life expectancy is e = T / l; the radix l0 cancels out of it.
``build_life_table`` checks its inputs and runs ``_columns``; the mortality
fit runs it for e(0) and e(65) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LifeTable:
    q: np.ndarray
    l: np.ndarray
    d: np.ndarray
    L: np.ndarray
    T: np.ndarray
    e: np.ndarray
    l0: float
    a_max: int


def _require_open_class(q) -> None:
    if q[-1] == 0.0:
        raise DataError("q at the open age class must be positive (the tail diverges)")


def _separation(alpha, n: int) -> list:
    """alpha(0..n-1) as floats, each in [0,1]."""
    a = [float(alpha(i)) for i in range(n)]
    if any(x < 0 or x > 1 for x in a):
        raise DataError("alpha values must lie in [0,1]")
    return a


def _columns(q: list, a: list, l0: float) -> tuple:
    """Survivors l, deaths d, person-years L and cumulative person-years T."""
    l = list(accumulate(q[:-1], lambda li, qi: li - li * qi, initial=l0))
    d = [li * qi for li, qi in zip(l, q)]
    L = [li - ai * di for li, ai, di in zip(l, a, d)]
    # Geometric tail: constant hazard beyond a_max, half-year credit past the
    # first open-class year (the first year keeps its own separation factor,
    # which collapses to l*(1-q/2)/q whenever alpha(a_max) == 1/2).
    qa = q[-1]
    tail = L[-1] + l[-1] * (1.0 - qa) * (1.0 - qa / 2.0) / qa
    # T[i] = T[i+1] + L[i], summed back from the open class
    return l, d, L, list(accumulate(reversed(L[:-1]), initial=tail))[::-1]


def build_life_table(q, alpha, l0: float = 100000.0) -> LifeTable:
    """Fill the survivor, person-year, and expectancy series from q."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise DataError("q must be a non-empty series")
    if ((q < 0) | (q > 1)).any():
        raise DataError("death probabilities must lie in [0,1]")
    a_max = q.size - 1
    _require_open_class(q)
    if l0 <= 0:
        raise DataError(f"radix must be positive, got {l0}")
    a = _separation(alpha, a_max + 1)
    l, d, L, T = map(np.array, _columns(q.tolist(), a, float(l0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(l > 0, T / np.where(l > 0, l, 1.0), 0.0)
    return LifeTable(q=q, l=l, d=d, L=L, T=T, e=e, l0=float(l0), a_max=a_max)


def life_expectancy(q, a: int, alpha) -> float:
    """Remaining expected years at age a under the probability series q."""
    table = build_life_table(q, alpha)
    if not 0 <= a <= table.a_max:
        raise DataError(f"age {a} outside 0..{table.a_max}")
    if table.l[a] <= 0:
        raise DataError(f"no survivors at age {a}")
    return float(table.T[a] / table.l[a])
