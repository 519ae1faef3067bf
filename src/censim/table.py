"""Sparse census tables indexed by (year, region, sex, age).

A table holds one census quantity (population, births, deaths, ...) at one
resolution.  Keys are plain tuples; values are non-negative floats; absent
keys mean zero and zero-valued entries are never stored.  Tables are
immutable after construction: every operation returns a new table.

Origin-destination tables (migration flows) replace the age component with a
second region code and carry no age axis.

Age classes are described by their sorted lower bounds.  Class i covers the
completed ages [ages[i], ages[i+1]); the last class is the open class
"ages[-1] and above" when open_age is set, otherwise the single age ages[-1].
A table without an age axis uses the single class 0+ (all ages).

CensusTable.grid() reads a table onto a dense (year, region, sex, age or
region2) array, and cells() turns such an array back into entries; they are
the one bridge between tables and numpy, so the key <-> index mapping lives
here.  The constructor checks each distinct year, region code, sex and age
class (or second region code) once, and each key for its four components,
its value and duplicates (zero values included).

degrade() is the one aggregation: it sums a table onto a coarser or equal
resolution (a coarser level, the sex axis dropped, age classes merged, years
cut) in one pass over the keys.  aggregate() is its front for dropping whole
dimensions.

The CSV form is canonical: UTF-8, LF endings, header
``year,region,sex,age,value`` (``year,region,sex,region2,value`` for
origin-destination tables), rows sorted by key.  sex is ``m``, ``f`` or ``-``
for tables without a sex axis; age is the decimal lower bound of the class or
``<a>+`` for the open class; values are written as integers when integral,
otherwise with full float round-trip precision.  Unknown columns are
rejected.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import product, repeat
from operator import itemgetter

import numpy as np

from .errors import DataError
from .fileio import atomic_open
from .regions import LEVELS, coarser_or_equal, is_valid_code, parent_region

SEXES = ("m", "f")
NO_SEX = "-"


def single_ages(lo: int, hi: int) -> tuple[int, ...]:
    """Lower bounds for single-year age classes lo..hi inclusive."""
    return tuple(range(lo, hi + 1))


@dataclass(frozen=True)
class ResolutionSpec:
    """Declares a table's year range, regional level, sex and age domains."""

    years: tuple[int, int]
    level: str
    sexes: tuple[str, ...] = SEXES
    ages: tuple[int, ...] = (0,)
    open_age: int | None = 0
    od: bool = False

    def __post_init__(self):
        y0, y1 = int(self.years[0]), int(self.years[1])
        if y0 > y1:
            raise DataError(f"empty year range {self.years}")
        object.__setattr__(self, "years", (y0, y1))
        if self.level not in LEVELS:
            raise DataError(f"unknown regional level {self.level!r}")
        sexes = tuple(s for s in SEXES if s in self.sexes)
        if set(self.sexes) - set(SEXES):
            raise DataError(f"invalid sex domain {self.sexes}")
        object.__setattr__(self, "sexes", sexes)
        if self.od:
            # origin-destination tables carry no age axis
            object.__setattr__(self, "ages", (0,))
            object.__setattr__(self, "open_age", 0)
            return
        ages = tuple(sorted(set(int(a) for a in self.ages)))
        if not ages or ages[0] < 0:
            raise DataError(f"invalid age classes {self.ages}")
        if len(ages) != len(self.ages):
            raise DataError(f"duplicate age classes {self.ages}")
        object.__setattr__(self, "ages", ages)
        if self.open_age is not None and self.open_age != ages[-1]:
            raise DataError(
                f"open class bound {self.open_age} is not the last age bound {ages[-1]}"
            )

    @property
    def sex_domain(self) -> tuple[str, ...]:
        return self.sexes if self.sexes else (NO_SEX,)

    def year_list(self) -> range:
        return range(self.years[0], self.years[1] + 1)

    def age_bounds(self, lo: int) -> tuple[int, int | None]:
        """Bounds [lo, hi) of the class starting at lo; hi None when open."""
        i = bisect_right(self.ages, lo) - 1
        if i < 0 or self.ages[i] != lo:
            raise DataError(f"no age class starts at {lo}")
        if self.open_age is not None and lo == self.open_age:
            return lo, None
        if i + 1 < len(self.ages):
            return lo, self.ages[i + 1]
        return lo, lo + 1

    def age_class_of(self, age: int) -> int:
        """Lower bound of the class containing the completed age."""
        i = bisect_right(self.ages, age) - 1
        if i < 0:
            raise DataError(f"age {age} below the first age class")
        lo, hi = self.age_bounds(self.ages[i])
        if hi is not None and age >= hi:
            raise DataError(f"age {age} not covered by any age class")
        return lo

    def classes_onto(self, coarse: ResolutionSpec, what: str) -> dict[int, int]:
        """Map each of this spec's age classes to the coarse class holding it."""
        out: dict[int, int] = {}
        for lo in self.ages:
            _, hi = self.age_bounds(lo)
            try:
                parent = coarse.age_class_of(lo)
            except DataError:
                raise DataError(f"{what}: age class {lo} not covered") from None
            p_lo, p_hi = coarse.age_bounds(parent)
            if p_hi is not None and (hi is None or hi > p_hi):
                raise DataError(
                    f"{what}: age class [{lo},{'inf' if hi is None else hi}) straddles "
                    f"[{p_lo},{p_hi})")
            out[lo] = parent
        return out


class CensusTable:
    """Immutable sparse table; absent keys read as zero."""

    __slots__ = ("resolution", "integer", "name", "_entries")

    def __init__(self, resolution: ResolutionSpec, entries, integer: bool = False,
                 name: str = "table"):
        self.resolution = resolution
        self.integer = bool(integer)
        self.name = name
        pairs = entries.items() if hasattr(entries, "items") else list(entries)
        keys = [tuple(key) for key, _ in pairs]
        if set(map(len, keys)) - {4}:
            key = next(k for k in keys if len(k) != 4)
            raise DataError(f"{name}: key {key} must have 4 components")

        def column(i):
            return map(itemgetter(i), keys)

        # each distinct component is checked once; years and ages become ints
        res = resolution
        year_of = {y: int(y) for y in dict.fromkeys(column(0))}
        for year in year_of.values():
            if not res.years[0] <= year <= res.years[1]:
                raise DataError(f"{name}: year {year} outside {res.years}")
        codes = dict.fromkeys(column(1))
        for code in codes:
            self._check_code(code, "region")
        for sex in dict.fromkeys(column(2)):
            if sex not in res.sex_domain:
                raise DataError(f"{name}: sex {sex!r} not in domain {res.sex_domain}")
        if res.od:
            last_of = {code: code for code in dict.fromkeys(column(3))}
            for code in last_of:
                if code not in codes:
                    self._check_code(code, "region2")
        else:
            last_of = {a: int(a) for a in dict.fromkeys(column(3))}
            for age in last_of.values():
                i = bisect_right(res.ages, age) - 1
                if i < 0 or res.ages[i] != age:
                    raise DataError(f"{name}: no age class starts at {age}")
        if not (set(map(type, column(0))) <= {int}
                and (res.od or set(map(type, column(3))) <= {int})):
            keys = [(year_of[y], r, s, last_of[last]) for y, r, s, last in keys]

        values = np.array([float(raw) for _, raw in pairs])
        for i in np.flatnonzero(~((values >= 0) & (values < math.inf)))[:1]:
            raise DataError(f"{name}: value {list(pairs)[i][1]!r} at {keys[i]} "
                            f"is not a finite non-negative number")
        if integer:
            for i in np.flatnonzero(values != np.floor(values))[:1]:
                raise DataError(f"{name}: value {list(pairs)[i][1]!r} at {keys[i]} "
                                f"is not an integer")
        seen = dict(zip(keys, values.tolist()))
        if len(seen) < len(keys):
            first = set()
            for key in keys:
                if key in first:
                    raise DataError(f"{name}: duplicate key {key}")
                first.add(key)
        nonzero = [key for key, v in seen.items() if v]
        self._entries = {key: seen[key] for key in sorted(nonzero)}

    def _check_code(self, code, what: str) -> None:
        if not is_valid_code(code, self.resolution.level):
            raise DataError(f"{self.name}: {what} {code!r} invalid at level "
                            f"{self.resolution.level!r}")

    def __getitem__(self, key: tuple) -> float:
        return self._entries.get(tuple(key), 0.0)

    def get(self, key: tuple, default: float = 0.0) -> float:
        return self._entries.get(tuple(key), default)

    def items(self):
        return self._entries.items()

    def keys(self):
        return self._entries.keys()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensusTable):
            return NotImplemented
        return (self.resolution == other.resolution
                and self.integer == other.integer
                and self._entries == other._entries)

    def __repr__(self) -> str:
        return f"CensusTable({self.name!r}, {len(self._entries)} entries, {self.resolution})"

    def total(self) -> float:
        return math.fsum(self._entries.values())

    def grid(self, years, regions, sexes, lasts) -> np.ndarray:
        """The values on a (year, region, sex, age or region2) grid as a dense
        float array shaped by the axis lengths; absent keys read 0.

        Each grid cell is one lookup, so keys off the grid cost nothing.
        """
        shape = (len(years), len(regions), len(sexes), len(lasts))
        lookups = map(self._entries.get, product(years, regions, sexes, lasts),
                      repeat(0.0))
        return np.fromiter(lookups, float, count=math.prod(shape)).reshape(shape)


def cells(years, regions, sexes, lasts, array) -> dict:
    """The {key: value} entries of an array's nonzero cells, keyed by the
    axis values at their indices; the inverse of CensusTable.grid."""
    array = np.asarray(array)
    axes = (years, regions, sexes, lasts)
    if array.shape != tuple(map(len, axes)):
        raise DataError(f"array of shape {array.shape} does not fit a grid of "
                        f"{tuple(map(len, axes))}")
    at = np.nonzero(array)
    keys = zip(*([axis[i] for i in ix.tolist()] for axis, ix in zip(axes, at)))
    return dict(zip(keys, array[at].tolist()))


def degrade(table: CensusTable, target: ResolutionSpec) -> CensusTable:
    """Sum a table onto a coarser or equal resolution in one pass.

    The target keeps the table's origin-destination structure, sits at a
    coarser or equal level, keeps the sex axis or drops it, has age classes
    that each hold whole source classes, and years inside the source's.
    Every key is projected once onto its target cell; sums run in source key
    order.
    """
    res = table.resolution
    if res.od != target.od:
        raise DataError("cannot degrade across origin-destination structure")
    if not coarser_or_equal(target.level, res.level):
        raise DataError(
            f"level {target.level!r} is not coarser than or equal to {res.level!r}")
    if target.sexes not in (res.sexes, ()):
        raise DataError(
            f"sex domain {target.sexes} is not a degradation of {res.sexes}")
    y0, y1 = target.years
    if y0 < res.years[0] or y1 > res.years[1]:
        raise DataError(
            f"target years {target.years} exceed source years {res.years}")
    age_class = res.classes_onto(target, table.name)
    parents: dict[str, str] = {}

    def up(code: str) -> str:
        if code not in parents:
            parents[code] = parent_region(code, res.level, target.level)
        return parents[code]

    acc: dict[tuple, float] = {}
    for (y, r, s, last), v in table.items():
        if y0 <= y <= y1:
            key = (y, up(r), s if target.sexes else NO_SEX,
                   up(last) if res.od else age_class[last])
            acc[key] = acc.get(key, 0.0) + v
    return CensusTable(target, acc, integer=table.integer, name=table.name)


def aggregate(table: CensusTable, drop=(), coarse_level: str | None = None) -> CensusTable:
    """Sum a table over dropped dimensions and/or up to a coarser level.

    drop may contain region, sex and age.  Origin-destination tables keep
    both region axes: only sex can be dropped from them.
    """
    drop = frozenset(drop)
    res = table.resolution
    allowed = {"sex"} if res.od else {"region", "sex", "age"}
    if drop - allowed:
        raise DataError(f"cannot drop {sorted(drop - allowed)} from "
                        f"{'origin-destination ' if res.od else ''}table {table.name!r}")
    if "region" in drop and coarse_level is not None:
        raise DataError("coarse_level is meaningless when region is dropped")
    level = "country" if "region" in drop else (
        res.level if coarse_level is None else coarse_level)
    flat = "age" in drop
    return degrade(table, replace(
        res, level=level, sexes=() if "sex" in drop else res.sexes,
        ages=(0,) if flat else res.ages, open_age=0 if flat else res.open_age))


def add_tables(tables, name: str | None = None) -> CensusTable:
    """Elementwise sum of tables sharing one resolution."""
    tables = list(tables)
    if not tables:
        raise DataError("nothing to add")
    res = tables[0].resolution
    for t in tables[1:]:
        if t.resolution != res:
            raise DataError("can only add tables with identical resolutions")
    acc: dict[tuple, float] = {}
    for t in tables:
        for key, v in t.items():
            acc[key] = acc.get(key, 0.0) + v
    return CensusTable(res, acc, integer=all(t.integer for t in tables),
                       name=name or tables[0].name)


# CSV input and output

_HEADER = ["year", "region", "sex", "age", "value"]
_HEADER_OD = ["year", "region", "sex", "region2", "value"]

# coarser readings are preferred when codes alone cannot tell levels apart
_INFER_ORDER = (
    "country", "federalstates", "districts", "districts_districts",
    "municipalities", "municipalities_districts",
    "municipalities_registrationdistricts",
)


def infer_level(codes) -> str:
    codes = set(codes)
    if not codes:
        raise DataError("cannot infer a regional level from no codes")
    for level in _INFER_ORDER:
        if all(is_valid_code(c, level) for c in codes):
            return level
    raise DataError(f"no regional level fits codes {sorted(codes)[:5]}...")


def _format_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def _format_age(a: int, open_age: int | None) -> str:
    return f"{a}+" if a == open_age else str(a)


def write_csv(table: CensusTable, path: str) -> None:
    res = table.resolution
    header = _HEADER_OD if res.od else _HEADER
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for (y, r, s, last), v in table.items():
            tail = last if res.od else _format_age(last, res.open_age)
            fh.write(f"{y},{r},{s},{tail},{_format_value(v)}\n")


def _parse_age_token(tok: str) -> tuple[int, bool]:
    open_class = tok.endswith("+")
    body = tok[:-1] if open_class else tok
    if not body.isdigit():
        raise DataError(f"malformed age token {tok!r}")
    return int(body), open_class


def read_csv(path: str, level: str | None = None, integer: bool = False,
             resolution: ResolutionSpec | None = None,
             name: str | None = None) -> CensusTable:
    """Read a canonical census CSV.

    The resolution is inferred from the data unless given: years span the
    observed range, age classes are the observed lower bounds, and the
    regional level is the coarsest level all codes are valid at (pass level
    to override; districts and municipalities win over the Viennese splits
    when codes are ambiguous).
    """
    name = name or path
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header == _HEADER:
            od = False
        elif header == _HEADER_OD:
            od = True
        else:
            raise DataError(f"{name}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{name}:{lineno}: expected 5 columns, got {len(row)}")
            rows.append((lineno, row))

    entries = []
    years = set()
    codes = set()
    sexes = set()
    age_tokens = set()
    for lineno, (ytok, region, sex, tail, vtok) in rows:
        try:
            year = int(ytok)
        except ValueError:
            raise DataError(f"{name}:{lineno}: malformed year {ytok!r}") from None
        try:
            value = float(vtok)
        except ValueError:
            raise DataError(f"{name}:{lineno}: malformed value {vtok!r}") from None
        years.add(year)
        codes.add(region)
        sexes.add(sex)
        if od:
            codes.add(tail)
            entries.append(((year, region, sex, tail), value))
        else:
            age, open_class = _parse_age_token(tail)
            age_tokens.add((age, open_class))
            entries.append(((year, region, sex, age), value))

    if resolution is None:
        if not rows:
            raise DataError(f"{name}: empty table needs an explicit resolution")
        lvl = level or infer_level(codes)
        if NO_SEX in sexes and sexes != {NO_SEX}:
            raise DataError(f"{name}: mixes '-' with sexed rows")
        sex_domain = () if sexes == {NO_SEX} else tuple(sorted(sexes & set(SEXES)))
        if od:
            resolution = ResolutionSpec((min(years), max(years)), lvl,
                                        sexes=sex_domain, od=True)
        else:
            opens = sorted(a for a, o in age_tokens if o)
            singles = sorted(a for a, o in age_tokens if not o)
            if len(opens) > 1:
                raise DataError(f"{name}: multiple open age classes {opens}")
            if opens and singles and opens[0] <= singles[-1]:
                raise DataError(
                    f"{name}: open class {opens[0]}+ overlaps age {singles[-1]}")
            ages = tuple(singles + opens)
            resolution = ResolutionSpec((min(years), max(years)), lvl,
                                        sexes=sex_domain, ages=ages,
                                        open_age=opens[0] if opens else None)
    elif level is not None and level != resolution.level:
        raise DataError(f"{name}: level {level!r} contradicts the given resolution")

    return CensusTable(resolution, entries, integer=integer, name=name)
