"""Deviation metrics between simulated and reference censuses.

The headline metric is the signed relative deviation band: for two aligned
series the largest positive and negative values of (Y - X) / max(1, X) over
time.  The denominator clamp keeps empty reference cells from blowing up the
quotient.  Deviation tables group cells before comparing, so a row reads
"over the window, simulated Vienna never strayed more than x% from the
reference".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import atomic_open
from .table import CensusTable, ResolutionSpec, cells, degrade

# each grouping's cells: (regional level, sex axis kept, age classes)
GROUPINGS = {
    "total": ("country", False, (0,)),
    "fed": ("federalstates", False, (0,)),
    "sex": ("country", True, (0,)),
    "age20": ("country", False, (0, 20, 40, 60, 80, 100)),
}


@dataclass(frozen=True)
class DeviationRow:
    group: str
    label: str
    e_min: float
    e_max: float

    def __post_init__(self):
        if self.e_min > self.e_max:
            raise DataError(f"deviation band ({self.e_min}, {self.e_max}) is inverted")


def error_band(sim, ref) -> tuple:
    """Extreme signed relative deviations of series sim against series ref."""
    sim = list(sim)
    ref = list(ref)
    if not sim:
        raise DataError("cannot compare empty series")
    if len(sim) != len(ref):
        raise DataError(f"series lengths differ: {len(sim)} vs {len(ref)}")
    terms = [(y - x) / max(1.0, x) for y, x in zip(sim, ref)]
    return min(terms), max(terms)


def mc_mean(tables) -> CensusTable:
    """Elementwise mean of Monte Carlo census tables; a single table is itself."""
    tables = list(tables)
    if not tables:
        raise DataError("no runs to average")
    first = tables[0]
    if len(tables) == 1:
        return first
    for t in tables[1:]:
        if t.resolution != first.resolution:
            raise DataError(
                f"{first.name}: mismatched resolutions across runs")
    res = first.resolution
    codes = sorted(set().union(*(t.codes for t in tables)))
    axes = (res.year_list(), codes, res.sex_domain, codes if res.od else res.ages)
    runs = np.stack([t.grid(*axes) for t in tables])
    total = runs.sum(axis=0)
    # integer sums below 2**53 are exact in any order, so they equal fsum's
    if not (all(t.integer for t in tables) and (total < 2.0 ** 53).all()):
        at = np.nonzero(runs.any(axis=0))  # one fsum per key any run holds
        total[at] = [math.fsum(v) for v in runs[(slice(None),) + at].T.tolist()]
    return CensusTable(res, cells(*axes, total / len(tables)), name=first.name)


def age_band_label(lo: int) -> str:
    if lo >= 100:
        return "100+"
    b = (lo // 20) * 20
    return f"{b}-{b + 19}"


def _grouped_series(table: CensusTable, group: str, years) -> dict:
    """Series per group label, read off one degrade of the table."""
    if group not in GROUPINGS:
        raise DataError(
            f"unknown grouping {group!r}, expected one of {tuple(GROUPINGS)}")
    level, keep_sex, ages = GROUPINGS[group]
    span = (years[0], years[-1])
    target = ResolutionSpec(span, level,
                            sexes=table.resolution.sexes if keep_sex else (),
                            ages=ages, open_age=ages[-1])
    out = {}
    for (y, r, s, a), v in degrade(table, target).items():
        label = {"total": "all", "fed": r, "sex": s,
                 "age20": age_band_label(a)}[group]
        out.setdefault(label, [0.0] * len(years))[y - span[0]] = v
    return out


def compare(sim, ref: CensusTable, groups=("total",), window=None) -> list:
    """Deviation bands of simulated vs reference censuses per group.

    sim may be a run output (its census is used) or a census table.  The
    window (start, end) selects census years start..end-1.
    """
    sim_census = getattr(sim, "census", sim)
    if sim_census.resolution.od or ref.resolution.od:
        raise DataError("deviation tables compare plain census tables")
    if window is None:
        window = (sim_census.resolution.years[0],
                  sim_census.resolution.years[1] + 1)
    start, end = int(window[0]), int(window[1])
    if start >= end:
        raise DataError(f"empty window {window}")
    for t, what in ((sim_census, "simulated census"), (ref, "reference")):
        y0, y1 = t.resolution.years
        if y0 > start or y1 < end - 1:
            raise DataError(
                f"{what} years {y0}..{y1} do not cover window {start}..{end - 1}")
    years = list(range(start, end))

    rows = []
    for group in groups:
        sim_series = _grouped_series(sim_census, group, years)
        ref_series = _grouped_series(ref, group, years)
        zero = [0.0] * len(years)
        for label in sorted(set(sim_series) | set(ref_series)):
            lo, hi = error_band(sim_series.get(label, zero),
                                ref_series.get(label, zero))
            rows.append(DeviationRow(group=group, label=label,
                                     e_min=lo, e_max=hi))
    return rows


def write_deviations(rows, path):
    """CSV with raw bands plus percentages rounded to 2 decimals."""
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("group", "label", "e_min", "e_max", "pct_min", "pct_max"))
        for row in rows:
            w.writerow((row.group, row.label, repr(row.e_min), repr(row.e_max),
                        f"{100 * row.e_min:.2f}", f"{100 * row.e_max:.2f}"))


def read_window(text: str) -> tuple:
    """Parse a start:end year window, end exclusive."""
    try:
        start, end = text.split(":")
        return int(start), int(end)
    except ValueError:
        raise DataError(f"window {text!r} is not start:end") from None
