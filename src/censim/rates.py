"""Event counts, average rates, and birthday-to-birthday probabilities.

The conversion between a year's event count and the probability that the
event hits an individual between two birthdays runs through the average
rate X / P_avg and the correction rate/(1 + alpha*rate), where alpha is the
expected fraction of the year of life spent before the event.  alpha = 1/2
throughout for model parametrisation; published death tables are matched
with alpha(0) = 0.923 and 1/2 at every other age.

farr_probability_model folds the same correction into census tables: the
denominator gains half the cohort leavers Q = D + E (internal migrants are
not cohort leavers), and the result averages the quotients of two
consecutive count years, the last count year paired with itself.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DataError
from .table import CensusTable, cells

log = logging.getLogger(__name__)


def death_table_alpha(alpha0: float = 0.923):
    """Profile matching published death tables: alpha0 at age 0, 1/2 above."""
    if not 0.0 <= alpha0 <= 1.0:
        raise DataError(f"alpha(0) must lie in [0,1], got {alpha0}")

    def alpha(age: int) -> float:
        return alpha0 if age == 0 else 0.5

    return alpha


def farr_probability(rate: float, alpha_a: float) -> float:
    """Probability between birthdays for an average event rate."""
    rate = float(rate)
    if rate < 0:
        raise DataError(f"negative rate {rate}")
    if not 0.0 <= alpha_a <= 1.0:
        raise DataError(f"alpha must lie in [0,1], got {alpha_a}")
    return rate / (1.0 + alpha_a * rate)


def invert_farr(q: float, P_avg: float, alpha_a: float) -> float:
    """Expected event count whose Farr probability is q."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise DataError(f"probability {q} outside [0,1]")
    if not 0.0 <= alpha_a <= 1.0:
        raise DataError(f"alpha must lie in [0,1], got {alpha_a}")
    if P_avg < 0:
        raise DataError(f"negative exposure {P_avg}")
    denom = 1.0 - alpha_a * q
    if denom <= 0.0:
        raise DataError("probability 1 with alpha 1 has no finite count")
    return P_avg * q / denom


def farr_probability_model(X: CensusTable, P: CensusTable, Q: CensusTable,
                           diagnostics: dict | None = None) -> CensusTable:
    """Per-cell event probabilities from counts X, population P, leavers Q.

    For each year y the count is divided by the mid-year population (the
    mean of P at y and at min(y+1, y_N), y_N being P's last census year)
    plus half the leavers, and the probability is the mean of this quotient
    at y and at min(y+1, X's last year).  Results are
    clipped into [0,1]; the number of clipped cells lands in
    diagnostics["clipped"] and in the log.
    """
    xres = X.resolution
    if xres.od or P.resolution.od or Q.resolution.od:
        raise DataError("probability tables have no origin-destination form")
    y_N = P.resolution.years[1]
    if xres.years[1] > y_N:
        raise DataError(f"counts reach {xres.years[1]}, past the last census year {y_N}")
    if Q.resolution.years[0] > xres.years[0] or Q.resolution.years[1] < xres.years[1]:
        raise DataError("leaver table does not cover the count years")
    need_last = min(xres.years[1] + 1, y_N)
    if P.resolution.years[0] > xres.years[0] or P.resolution.years[1] < need_last:
        raise DataError("population table does not cover the count years")

    # single-year quotients X / (P_avg + Q/2) on the grid of X's regions
    years = xres.year_list()
    nxt = [min(y + 1, y_N) for y in years]
    axes = (X.codes, xres.sex_domain, xres.ages)
    x = X.grid(years, *axes)
    denom = (P.grid(years, *axes) + P.grid(nxt, *axes)) / 2.0 \
        + Q.grid(years, *axes) / 2.0
    unexposed = (x != 0) & (denom <= 0)
    if unexposed.any():
        key = min(k for k, _ in cells(years, *axes, unexposed).items())
        raise DataError(f"{X.name}: events at {key} but no exposure")
    quotient = np.divide(x, denom, out=np.zeros_like(x), where=x != 0)

    # mean of the year's and the next count year's quotient
    v = 0.5 * quotient + 0.5 * np.concatenate([quotient[1:], quotient[-1:]])
    clipped = int((v > 1.0).sum())
    out = cells(years, *axes, np.minimum(v, 1.0))
    if clipped:
        log.warning("%s: clipped %d probabilities above 1", X.name, clipped)
    if diagnostics is not None:
        diagnostics["clipped"] = diagnostics.get("clipped", 0) + clipped
    return CensusTable(xres, out, name=f"prob({X.name})")
