"""Differential tests of the table <-> array bridge and the key checks.

CensusTable.grid must equal one lookup per grid cell, and cells must invert
it: a table rebuilt from the cells of its own grid is the table, restricted
to the grid.  Both run on random plain, origin-destination and integer
tables, over grids with off-grid keys, codes the table never uses and
empty axes.  grid scatters the table's entries into the array; the
reference below is the per-cell binary search it replaced (`_ref_grid`,
kept verbatim), compared byte for byte, on axes that also repeat values.

The constructor checks each distinct year, region code, sex and age class
(or second region code) once.  The reference below is the per-key check it
replaced (`_check_key`, kept verbatim), with duplicates counted among zero
values too.  Both sides run on random entries carrying at most one fault
and must agree on accepting them, on the stored entries, and on the
DataError message.
"""

import math
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest

from censim.errors import DataError
from censim.regions import is_valid_code
from censim.table import (_SEX_INDEX, SEXES, CensusTable, ResolutionSpec,
                          _flat, cells)

CODES = {
    "municipalities": ("10101", "10102", "10201", "20101", "30101", "90001"),
    "districts": ("101", "102", "201", "301", "900"),
}
BAD_CODES = ("AT", "AT-1", "1010", "999999", "9010101", "90101", "abc", "")
YEARS = (2000, 2004)


# the per-key reference, as CensusTable.__init__ stood before per-axis checks

def _ref_check_key(res, name, key, valid):
    def check_code(code, what):
        if code not in valid:
            if not is_valid_code(code, res.level):
                raise DataError(f"{name}: {what} {code!r} invalid at level "
                                f"{res.level!r}")
            valid.add(code)

    if len(key) != 4:
        raise DataError(f"{name}: key {key} must have 4 components")
    year, region, sex, last = key
    year = int(year)
    if not res.years[0] <= year <= res.years[1]:
        raise DataError(f"{name}: year {year} outside {res.years}")
    check_code(region, "region")
    if sex not in res.sex_domain:
        raise DataError(f"{name}: sex {sex!r} not in domain {res.sex_domain}")
    if res.od:
        check_code(last, "region2")
        return (year, region, sex, last)
    age = int(last)
    i = bisect_right(res.ages, age) - 1
    if i < 0 or res.ages[i] != age:
        raise DataError(f"{name}: no age class starts at {age}")
    return (year, region, sex, age)


def _ref_entries(res, pairs, integer, name):
    seen = {}
    valid = set()
    for key, raw in pairs:
        key = _ref_check_key(res, name, tuple(key), valid)
        v = float(raw)
        if not math.isfinite(v) or v < 0:
            raise DataError(
                f"{name}: value {raw!r} at {key} is not a finite non-negative number")
        if integer and not v.is_integer():
            raise DataError(f"{name}: value {raw!r} at {key} is not an integer")
        if key in seen:
            raise DataError(f"{name}: duplicate key {key}")
        seen[key] = v
    return dict(sorted((k, v) for k, v in seen.items() if v != 0.0))


def _outcome(build):
    try:
        return "ok", build()
    except DataError as exc:
        return "error", str(exc)


# random tables and grids

def _random_res(rng, od):
    level = str(rng.choice(list(CODES)))
    sexes = (SEXES, ("f",), ())[rng.integers(3)]
    if od:
        return ResolutionSpec(YEARS, level, sexes=sexes, od=True)
    ages = tuple(sorted(int(a) for a in rng.choice(30, size=rng.integers(1, 6),
                                                   replace=False)))
    return ResolutionSpec(YEARS, level, sexes=sexes, ages=ages,
                          open_age=ages[-1] if rng.random() < 0.5 else None)


def _lasts(res):
    return CODES[res.level] if res.od else res.ages


def _random_entries(rng, res, integer, n):
    keys = list(product(res.year_list(), CODES[res.level], res.sex_domain,
                        _lasts(res)))
    picked = rng.choice(len(keys), size=min(n, len(keys)), replace=False)
    values = rng.integers(0, 9, size=len(picked)) if integer else \
        rng.random(len(picked)) * (rng.random(len(picked)) < 0.8)
    return [(keys[i], v.item()) for i, v in zip(picked.tolist(), values)]


def _random_axis(rng, values, extra):
    """A random subset of values plus unused extras, in random order."""
    pool = list(values) + list(extra)
    k = rng.integers(0, len(pool) + 1)
    return [pool[i] for i in rng.permutation(len(pool))[:k]]


@pytest.mark.parametrize("seed", range(40))
def test_grid_equals_cell_lookups_and_cells_inverts_it(seed):
    rng = np.random.default_rng(seed)
    od = seed % 3 == 0
    integer = seed % 2 == 0
    res = _random_res(rng, od)
    t = CensusTable(res, _random_entries(rng, res, integer, 60),
                    integer=integer, name="t")

    unused = ("20102",) if res.level == "municipalities" else ("302",)
    axes = (_random_axis(rng, (1999,) + tuple(res.year_list()), (2005,)),
            _random_axis(rng, CODES[res.level], unused),
            _random_axis(rng, res.sex_domain, ("-", "m", "f")),
            _random_axis(rng, _lasts(res), unused if od else (99,)))
    g = t.grid(*axes)
    assert g.dtype == float
    assert g.shape == tuple(map(len, axes))
    expect = np.array([t[key] for key in product(*axes)]).reshape(g.shape)
    assert np.array_equal(g, expect)

    # the grid of the whole domain holds every entry
    full = (tuple(res.year_list()), CODES[res.level], res.sex_domain, _lasts(res))
    back = CensusTable(res, cells(*full, t.grid(*full)), integer=integer,
                       name="t")
    assert back == t
    assert list(back.items()) == list(t.items())

    # on a partial grid, cells keeps exactly the entries on the grid
    on_grid = {k: v for k, v in t.items()
               if all(c in axis for c, axis in zip(k, axes))}
    assert cells(*axes, g) == on_grid


# grid as it stood before the scatter: one binary search per grid cell

def _ref_grid(t, years, regions, sexes, lasts):
    res = t.resolution
    pos = dict(zip(t.codes, range(len(t.codes))))
    on_axes = (dict(zip(res.year_list(), range(len(res.year_list())))), pos,
               _SEX_INDEX, pos if res.od else dict(zip(res.ages, res.ages)))
    at = [np.array([index.get(v, -1) for v in axis], np.int64).reshape(
        (-1,) + (1,) * (3 - k)) for k, (index, axis) in
        enumerate(zip(on_axes, (years, regions, sexes, lasts)))]
    flat = _flat(*at, t._radices())
    row = np.searchsorted(t._key, flat)
    hit = (at[0] >= 0) & (at[1] >= 0) & (at[2] >= 0) & (at[3] >= 0) \
        & (np.append(t._key, -1)[row] == flat)
    return np.where(hit, np.append(t.values, 0.0)[row], 0.0)


def _axis_with_repeats(rng, values, extra):
    """Values and unused extras drawn with replacement, in random order."""
    pool = list(values) + list(extra)
    size = rng.integers(0, 2 * len(pool) + 1)
    return [pool[i] for i in rng.integers(len(pool), size=size)]


@pytest.mark.parametrize("seed", range(60))
def test_grid_scatter_equals_the_per_cell_search(seed):
    rng = np.random.default_rng(1000 + seed)
    od = seed % 3 == 0
    integer = seed % 2 == 0
    res = _random_res(rng, od)
    t = CensusTable(res, _random_entries(rng, res, integer, int(rng.integers(0, 200))),
                    integer=integer, name="t")
    unused = ("20102",) if res.level == "municipalities" else ("302",)
    draw = _axis_with_repeats if seed % 4 < 2 else _random_axis
    axes = (draw(rng, (1999,) + tuple(res.year_list()), (2005,)),
            draw(rng, CODES[res.level], unused),
            draw(rng, res.sex_domain, ("-", "m", "f")),
            draw(rng, _lasts(res), unused if od else (1, 31, 99)))
    g = t.grid(*axes)
    want = _ref_grid(t, *axes)
    assert g.shape == want.shape and g.dtype == want.dtype
    assert g.tobytes() == want.tobytes()


def test_grid_fills_every_repeat_of_an_axis_value():
    res = ResolutionSpec(YEARS, "districts", ages=(0, 5), open_age=5)
    t = CensusTable(res, {(2000, "101", "m", 0): 3, (2001, "201", "f", 5): 2,
                          (2001, "101", "m", 5): 7})
    axes = ((2001, 2000, 2001), ("101", "900", "101", "201"), ("m", "f", "m"),
            (5, 0, 5, 1))
    g = t.grid(*axes)
    assert g.tobytes() == _ref_grid(t, *axes).tobytes()
    assert g[0, 0, 0, 0] == g[2, 2, 2, 2] == g[0, 2, 0, 2] == 7.0
    assert g[1, 0, 0, 1] == g[1, 2, 2, 1] == 3.0
    assert g[2, 3, 1, 0] == 2.0 and g.sum() == 16 * 7 + 4 * 3 + 4 * 2


@pytest.mark.parametrize("od", [False, True])
def test_grid_of_an_empty_table_is_zero(od):
    res = ResolutionSpec(YEARS, "districts", od=od)
    t = CensusTable(res, {})
    axes = ((2000, 2001), ("101", "201"), SEXES, ("101",) if od else (0,))
    assert t.grid(*axes).tobytes() == _ref_grid(t, *axes).tobytes()


def test_cells_rejects_an_array_off_the_grid():
    with pytest.raises(DataError):
        cells((2000,), ("101",), SEXES, (0,), np.ones((1, 1, 1, 1)))


def test_grid_with_an_empty_axis_is_empty():
    res = ResolutionSpec(YEARS, "districts", ages=(0,), open_age=0)
    t = CensusTable(res, {(2000, "101", "m", 0): 3})
    assert t.grid((2000,), (), SEXES, (0,)).shape == (1, 0, 2, 1)
    assert cells((2000,), (), SEXES, (0,), np.zeros((1, 0, 2, 1))) == {}


# the key checks against the per-key reference

FAULTS = ("none", "year", "region", "sex", "last", "arity", "negative", "nan",
          "inf", "fraction", "duplicate", "zero-duplicate", "types")


def _inject(rng, res, pairs, fault):
    """pairs with one faulty (or, for "types", oddly typed) entry."""
    i = int(rng.integers(len(pairs)))
    (y, r, s, last), v = pairs[i]

    def pick(options):
        return options[rng.integers(len(options))]

    if fault == "year":
        pairs[i] = ((pick((YEARS[0] - 1, YEARS[1] + 1, 1990)), r, s, last), v)
    elif fault == "region":
        bad = [c for c in BAD_CODES if not is_valid_code(c, res.level)]
        pairs[i] = ((y, pick(bad), s, last), v)
    elif fault == "sex":
        bad = [c for c in ("x", "-", "m", "f", "M") if c not in res.sex_domain]
        pairs[i] = ((y, r, pick(bad), last), v)
    elif fault == "last" and res.od:
        bad = [c for c in BAD_CODES if not is_valid_code(c, res.level)]
        pairs[i] = ((y, r, s, pick(bad)), v)
    elif fault == "last":
        bad = [a for a in (-1, 31, 99) + tuple(a + 1 for a in res.ages)
               if a not in res.ages]
        pairs[i] = ((y, r, s, pick(bad)), v)
    elif fault == "arity":
        pairs[i] = (pick(((y, r, s), (y, r, s, last, 0))), v)
    elif fault == "negative":
        pairs[i] = ((y, r, s, last), -1.0)
    elif fault == "nan":
        pairs[i] = ((y, r, s, last), math.nan)
    elif fault == "inf":
        pairs[i] = ((y, r, s, last), math.inf)
    elif fault == "fraction":
        pairs[i] = ((y, r, s, last), 2.5)
    elif fault in ("duplicate", "zero-duplicate"):
        first = 0 if fault == "zero-duplicate" else v
        pairs[i] = ((y, r, s, last), first)
        pairs.insert(int(rng.integers(i + 1, len(pairs) + 1)), ((y, r, s, last), v))
    elif fault == "types":
        odd_last = last if res.od else pick((np.int64(last), str(last), float(last)))
        pairs[i] = ((pick((np.int64(y), float(y), str(y))), r, s, odd_last),
                    np.float64(v))
    return pairs


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("seed", range(12))
def test_key_checks_agree_with_the_per_key_reference(seed, fault):
    rng = np.random.default_rng(1000 * seed + FAULTS.index(fault))
    od = seed % 3 == 0
    integer = fault == "fraction" or seed % 2 == 0
    res = _random_res(rng, od)
    pairs = _inject(rng, res, _random_entries(rng, res, integer, 25), fault)
    expect = _outcome(lambda: _ref_entries(res, pairs, integer, "t"))
    got = _outcome(lambda: dict(CensusTable(res, pairs, integer=integer,
                                            name="t").items()))
    assert got == expect
    assert got[0] == ("ok" if fault in ("none", "types") else "error")
    if fault == "types":
        assert all(type(y) is int for y, *_ in got[1])
        assert od or all(type(a) is int for *_, a in got[1])
