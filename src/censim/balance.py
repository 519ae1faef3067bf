"""The residual-immigrant inversion of the demographic balance equation."""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DataError
from .table import CensusTable, cells

log = logging.getLogger(__name__)


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (2.5 -> 3, -2.5 -> -3)."""
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def residual_immigrants(P: CensusTable, B: CensusTable, D: CensusTable,
                        E: CensusTable, diagnostics: dict | None = None) -> CensusTable:
    """Immigrant counts backed out of the balance equation, per (year, region, sex).

    I(y) = round(P(y+1) - P(y) - B(y) + E(y) + D(y)).  Negative residuals are
    floored at zero and counted in diagnostics["floored"].
    """
    flows = {"B": B, "D": D, "E": E}
    years = B.resolution.years
    for name, t in flows.items():
        if t.resolution.od or len(t.resolution.ages) != 1:
            raise DataError(f"{name} must be a plain table without an age axis")
        if t.resolution.years != years:
            raise DataError(f"{name} years {t.resolution.years} differ from {years}")
        if t.resolution.level != P.resolution.level:
            raise DataError(f"{name} level {t.resolution.level} differs from population")
        if t.resolution.sexes != P.resolution.sexes:
            raise DataError(f"{name} sex domain differs from population")
    if P.resolution.od or len(P.resolution.ages) != 1:
        raise DataError("population must be a plain table without an age axis")
    py0, py1 = P.resolution.years
    if py0 > years[0] or py1 < years[1] + 1:
        raise DataError(
            f"population years {py0}..{py1} must cover {years[0]}..{years[1] + 1}")

    # every (year, region, sex) any table names; other cells read 0 and add 0
    years = range(years[0], years[1] + 1)
    axes = (sorted(set().union(*(t.codes for t in (P, B, D, E)))),
            P.resolution.sex_domain, (0,))
    residual = (P.grid(range(years[0] + 1, years[-1] + 2), *axes)
                - P.grid(years, *axes) - B.grid(years, *axes)
                + E.grid(years, *axes) + D.grid(years, *axes))
    # round_half_away on the whole grid
    value = np.floor(np.abs(residual) + 0.5) * np.where(residual >= 0, 1, -1)
    floored = int((value < 0).sum())
    entries = cells(years, *axes, np.maximum(value, 0.0))
    if floored:
        log.warning("floored %d negative immigrant residuals to zero", floored)
    if diagnostics is not None:
        diagnostics["floored"] = diagnostics.get("floored", 0) + floored
    return CensusTable(B.resolution, entries, integer=True, name="I")
