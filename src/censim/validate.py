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

from .errors import DataError
from .fileio import atomic_open
from .regions import parent_region
from .table import CensusTable, ResolutionSpec

GROUPINGS = ("total", "fed", "sex", "age20")


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


def _mean_table(tables, n: int) -> CensusTable:
    first = tables[0]
    for t in tables[1:]:
        if t.resolution != first.resolution:
            raise DataError(
                f"{first.name}: mismatched resolutions across runs")
    keys = set()
    for t in tables:
        keys.update(t.keys())
    entries = {k: math.fsum(t[k] for t in tables) / n for k in keys}
    return CensusTable(first.resolution, entries, name=first.name)


def mc_mean(runs):
    """Elementwise mean of Monte Carlo outputs; a single run is itself."""
    runs = list(runs)
    if not runs:
        raise DataError("no runs to average")
    if len(runs) == 1:
        return runs[0]
    first = runs[0]
    fields = ("census", "births", "deaths", "emigrants", "immigrants",
              "internal_out", "internal_in", "od")
    means = {f: _mean_table([getattr(r, f) for r in runs], len(runs))
             for f in fields}
    return type(first)(**means)


def age_band_label(lo: int, width: int = 20, top: int = 100) -> str:
    if lo >= top:
        return f"{top}+"
    b = (lo // width) * width
    return f"{b}-{b + width - 1}"


def _check_age_alignment(res: ResolutionSpec):
    for lo in res.ages:
        lo2, hi = res.age_bounds(lo)
        if hi is None:
            if age_band_label(lo2) != age_band_label(100):
                raise DataError(
                    f"open age class {lo2}+ straddles the 20-year bands")
        elif age_band_label(lo2) != age_band_label(hi - 1):
            raise DataError(
                f"age class [{lo2},{hi}) straddles a 20-year band boundary")


def _bucket(group: str, level: str):
    if group == "total":
        return lambda r, s, a: "all"
    if group == "fed":
        return lambda r, s, a: parent_region(r, level, "federalstates")
    if group == "sex":
        return lambda r, s, a: s
    if group == "age20":
        return lambda r, s, a: age_band_label(a)
    raise DataError(f"unknown grouping {group!r}, expected one of {GROUPINGS}")


def _grouped_series(table: CensusTable, group: str, years) -> dict:
    pick = _bucket(group, table.resolution.level)
    index = {y: i for i, y in enumerate(years)}
    out = {}
    for (y, r, s, a), v in table.items():
        i = index.get(y)
        if i is None:
            continue
        label = pick(r, s, a)
        series = out.setdefault(label, [0.0] * len(index))
        series[i] += v
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
        if group == "age20":
            _check_age_alignment(sim_census.resolution)
            _check_age_alignment(ref.resolution)
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
