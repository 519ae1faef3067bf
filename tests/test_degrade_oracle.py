"""Differential test: the one-pass degrade against the multi-pass chain.

The reference below is the aggregation censim used before degrade summed
every key in one pass: aggregate for the region, sex and age-drop axes,
_reclass_ages for merged age classes, and a degrade that chained them and
cut the years last.  Each pass built an intermediate table.  Both sides run
on random tables over every ordered pair of regional levels, with the sex
axis kept or dropped, age classes merged, years cut and origin-destination
tables included.  Integer tables must match exactly; float tables sum in
another order across passes, so they must match within 1e-12 relative.
Targets that are no degradation must raise DataError on both sides.
aggregate, which sums in source key order on both sides, must match exactly.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from censim.errors import DataError
from censim.regions import LEVELS, coarser_or_equal, parent_region
from censim.table import NO_SEX, SEXES, CensusTable, ResolutionSpec, aggregate, degrade

FINEST = "municipalities_registrationdistricts"
FINE_CODES = ("10101", "10102", "10201", "20101", "30101", "30102", "61301",
              "9010101", "9010102", "9020101", "9230101")
YEARS = (2000, 2003)


# the reference chain, as it stood before the one-pass degrade

def _ref_aggregate(table, drop=(), coarse_level=None):
    drop = frozenset(drop)
    res = table.resolution
    level = res.level
    if "region" in drop:
        level = "country"
    elif coarse_level is not None:
        if not coarser_or_equal(coarse_level, res.level):
            raise DataError(
                f"level {coarse_level!r} is not coarser than or equal to {res.level!r}")
        level = coarse_level
    new_res = replace(
        res,
        level=level,
        sexes=() if "sex" in drop else res.sexes,
        ages=(0,) if "age" in drop and not res.od else res.ages,
        open_age=0 if "age" in drop and not res.od else res.open_age,
    )
    acc = {}
    for (y, r, s, last), v in table.items():
        r = "AT" if level == "country" and "region" in drop else (
            parent_region(r, res.level, level) if level != res.level else r)
        s = NO_SEX if "sex" in drop else s
        if res.od:
            last = parent_region(last, res.level, level) if level != res.level else last
        elif "age" in drop:
            last = 0
        key = (y, r, s, last)
        acc[key] = acc.get(key, 0.0) + v
    return CensusTable(new_res, acc, integer=table.integer, name=table.name)


def _ref_reclass_ages(table, ages, open_age):
    res = table.resolution
    target = replace(res, ages=tuple(ages), open_age=open_age)
    acc = {}
    for (y, r, s, a), v in table.items():
        lo, hi = res.age_bounds(a)
        new_lo = target.age_class_of(lo)
        nlo, nhi = target.age_bounds(new_lo)
        if nhi is not None and (hi is None or hi > nhi):
            raise DataError(f"source class {lo} straddles target class {nlo}")
        key = (y, r, s, new_lo)
        acc[key] = acc.get(key, 0.0) + v
    return CensusTable(target, acc, integer=table.integer, name=table.name)


def _ref_degrade(table, target):
    res = table.resolution
    if res.od != target.od:
        raise DataError("cannot degrade across origin-destination structure")
    out = table
    if target.level != res.level:
        out = _ref_aggregate(out, coarse_level=target.level)
    if target.sexes != res.sexes:
        if target.sexes == ():
            out = _ref_aggregate(out, drop=("sex",))
        else:
            raise DataError("not a degradation of the sex domain")
    if not target.od and (target.ages != res.ages
                          or target.open_age != res.open_age):
        if target.ages == (0,) and target.open_age == 0:
            out = _ref_aggregate(out, drop=("age",))
        else:
            out = _ref_reclass_ages(out, target.ages, target.open_age)
    y0, y1 = target.years
    if y0 < res.years[0] or y1 > res.years[1]:
        raise DataError("target years exceed source years")
    if (y0, y1) != res.years:
        entries = {k: v for k, v in out.items() if y0 <= k[0] <= y1}
        out = CensusTable(replace(out.resolution, years=(y0, y1)), entries,
                          integer=out.integer, name=out.name)
    if out.resolution != target:
        raise DataError("cannot degrade")
    return out


# random inputs

def _codes(level):
    return sorted({parent_region(c, FINEST, level) for c in FINE_CODES})


def _source_ages(rng):
    first = int(rng.choice([0, 0, 0, 15]))
    inner = rng.choice(np.arange(first + 1, 101), size=int(rng.integers(0, 20)),
                       replace=False)
    ages = tuple(sorted({first, *map(int, inner)}))
    return ages, ages[-1] if rng.random() < 0.7 else None


def _merged_ages(rng, ages, open_age):
    """Age classes that each hold whole source classes, or random ones."""
    pick = rng.random()
    if pick < 0.15:
        return (0,), 0
    if pick < 0.3:
        bounds = rng.choice(np.arange(0, 101), size=int(rng.integers(1, 8)),
                            replace=False)
        out = tuple(sorted(map(int, bounds)))
        return out, out[-1] if rng.random() < 0.7 else None
    keep = [a for a in ages[1:] if rng.random() < 0.4]
    out = (ages[0], *keep)
    if open_age is None and out[-1] == ages[-1] and rng.random() < 0.5:
        return out, None
    return out, out[-1]


def _table(rng, level, od, integer, sexes):
    codes = _codes(level)
    if od:
        res = ResolutionSpec(YEARS, level, sexes=sexes, od=True)
        cells = product(range(YEARS[0], YEARS[1] + 1), codes,
                        res.sex_domain, codes)
    else:
        ages, open_age = _source_ages(rng)
        res = ResolutionSpec(YEARS, level, sexes=sexes, ages=ages,
                             open_age=open_age)
        cells = product(range(YEARS[0], YEARS[1] + 1), codes,
                        res.sex_domain, ages)
    entries = {}
    for key in cells:
        if rng.random() < 0.6:
            entries[key] = (int(rng.integers(1, 1000)) if integer
                            else float(rng.random() * 10.0 ** rng.integers(-3, 4)))
    return CensusTable(res, entries, integer=integer, name="t")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DataError:
        return DataError


def _assert_same(got, want, integer):
    if want is DataError or integer:
        assert got == want
        return
    assert got is not DataError
    assert got.resolution == want.resolution
    assert got.integer == want.integer
    assert got.keys() == want.keys()
    for key, v in want.items():
        assert abs(got[key] - v) <= 1e-12 * v, key


@pytest.mark.parametrize("fine,coarse", list(product(LEVELS, LEVELS)))
def test_degrade_matches_reference_chain(fine, coarse):
    rng = np.random.default_rng(LEVELS.index(fine) * 7 + LEVELS.index(coarse))
    degraded = 0
    for case in range(12):
        od = case % 3 == 2
        integer = case % 2 == 0
        sexes = (SEXES, SEXES, (), ("f",))[case % 4]
        table = _table(rng, fine, od, integer, sexes)
        res = table.resolution
        y0 = int(rng.integers(YEARS[0], YEARS[1] + 1))
        y1 = int(rng.integers(y0, YEARS[1] + 1))
        if rng.random() < 0.1:
            y0 -= 1  # outside the source years
        drop_sex = rng.random() < 0.5
        ages, open_age = ((0,), 0) if od else _merged_ages(rng, res.ages, res.open_age)
        target = ResolutionSpec((y0, y1), coarse,
                                sexes=() if drop_sex else res.sexes,
                                ages=ages, open_age=open_age, od=od)
        want = _outcome(_ref_degrade, table, target)
        _assert_same(_outcome(degrade, table, target), want, integer)
        degraded += want is not DataError
    assert bool(degraded) == coarser_or_equal(coarse, fine)


@pytest.mark.parametrize("fine", LEVELS)
def test_aggregate_matches_reference_exactly(fine):
    rng = np.random.default_rng(100 + LEVELS.index(fine))
    for case in range(8):
        od = case % 4 == 3
        table = _table(rng, fine, od, case % 2 == 0, SEXES)
        axes = ("sex",) if od else ("region", "sex", "age")
        drop = {a for a in axes if rng.random() < 0.5}
        coarse = None
        if "region" not in drop and rng.random() < 0.7:
            coarse = LEVELS[int(rng.integers(0, len(LEVELS)))]
        want = _outcome(_ref_aggregate, table, drop, coarse)
        assert _outcome(aggregate, table, drop, coarse) == want
