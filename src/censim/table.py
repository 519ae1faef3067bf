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

    def same_shape(self, other: "ResolutionSpec") -> bool:
        """True when everything but the year range coincides."""
        return (self.level, self.sexes, self.ages, self.open_age, self.od) == (
            other.level, other.sexes, other.ages, other.open_age, other.od)

    def with_years(self, y0: int, y1: int) -> "ResolutionSpec":
        return replace(self, years=(y0, y1))


class CensusTable:
    """Immutable sparse table; absent keys read as zero."""

    __slots__ = ("resolution", "integer", "name", "_entries")

    def __init__(self, resolution: ResolutionSpec, entries, integer: bool = False,
                 name: str = "table"):
        self.resolution = resolution
        self.integer = bool(integer)
        self.name = name
        items = entries.items() if hasattr(entries, "items") else entries
        seen: dict[tuple, float] = {}
        for key, raw in items:
            key = self._check_key(tuple(key))
            v = float(raw)
            if not math.isfinite(v) or v < 0:
                raise DataError(f"{name}: value {raw!r} at {key} is not a finite non-negative number")
            if integer and not v.is_integer():
                raise DataError(f"{name}: value {raw!r} at {key} is not an integer")
            if key in seen:
                raise DataError(f"{name}: duplicate key {key}")
            if v != 0.0:
                seen[key] = v
        self._entries = dict(sorted(seen.items()))

    def _check_key(self, key: tuple) -> tuple:
        res = self.resolution
        if len(key) != 4:
            raise DataError(f"{self.name}: key {key} must have 4 components")
        year, region, sex, last = key
        year = int(year)
        if not res.years[0] <= year <= res.years[1]:
            raise DataError(f"{self.name}: year {year} outside {res.years}")
        if not is_valid_code(region, res.level):
            raise DataError(f"{self.name}: region {region!r} invalid at level {res.level!r}")
        if sex not in res.sex_domain:
            raise DataError(f"{self.name}: sex {sex!r} not in domain {res.sex_domain}")
        if res.od:
            if not is_valid_code(last, res.level):
                raise DataError(f"{self.name}: region2 {last!r} invalid at level {res.level!r}")
            return (year, region, sex, last)
        age = int(last)
        i = bisect_right(res.ages, age) - 1
        if i < 0 or res.ages[i] != age:
            raise DataError(f"{self.name}: no age class starts at {age}")
        return (year, region, sex, age)

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


def aggregate(table: CensusTable, drop=(), coarse_level: str | None = None) -> CensusTable:
    """Sum a table over dropped dimensions and/or up to a coarser level.

    drop may contain region, sex, age, and region2 (origin-destination
    tables only).  Dropping region on an origin-destination table sums over
    origins, leaving the destination as the region axis.
    """
    drop = frozenset(drop)
    res = table.resolution
    unknown = drop - {"region", "sex", "age", "region2"}
    if unknown:
        raise DataError(f"cannot drop {sorted(unknown)}")
    if "region2" in drop and not res.od:
        raise DataError("region2 only exists on origin-destination tables")
    if res.od and "age" in drop:
        raise DataError("origin-destination tables have no age axis")
    if "region" in drop and coarse_level is not None:
        raise DataError("coarse_level is meaningless when region is dropped")

    if res.od and drop & {"region", "region2"}:
        # reduce one or both region axes, then recurse on the plain table
        both = {"region", "region2"} <= drop
        acc: dict[tuple, float] = {}
        for (y, r, s, r2), v in table.items():
            if both:
                key = (y, "AT", s, 0)
            elif "region" in drop:
                key = (y, r2, s, 0)
            else:
                key = (y, r, s, 0)
            acc[key] = acc.get(key, 0.0) + v
        level = "country" if both else res.level
        plain = CensusTable(
            replace(res, level=level, od=False, ages=(0,), open_age=0),
            acc, integer=table.integer, name=table.name)
        return aggregate(plain, drop - {"region", "region2"}, coarse_level)

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


def fold_open_age(table: CensusTable, a_max: int) -> CensusTable:
    """Merge all age classes at or above a_max into the open class a_max+."""
    res = table.resolution
    if res.od:
        raise DataError("origin-destination tables have no age axis")
    if res.open_age is not None and res.open_age < a_max:
        raise DataError(
            f"existing open class {res.open_age}+ straddles the new bound {a_max}")
    for lo in res.ages:
        hi = res.age_bounds(lo)[1]
        if lo < a_max and hi is not None and hi > a_max:
            raise DataError(f"age class [{lo},{hi}) straddles the bound {a_max}")
    ages = tuple(a for a in res.ages if a < a_max) + (a_max,)
    new_res = replace(res, ages=ages, open_age=a_max)
    acc: dict[tuple, float] = {}
    for (y, r, s, a), v in table.items():
        key = (y, r, s, a if a < a_max else a_max)
        acc[key] = acc.get(key, 0.0) + v
    return CensusTable(new_res, acc, integer=table.integer, name=table.name)


def average_population(P: CensusTable, y: int) -> CensusTable:
    """Mid-period population (P(y) + P(y+1)) / 2, clamped at the last year.

    At the final year of the table the next-year term falls back to the
    year itself, so the average degenerates to P(y) there.
    """
    res = P.resolution
    if res.od:
        raise DataError("population tables are not origin-destination tables")
    y = int(y)
    if not res.years[0] <= y <= res.years[1]:
        raise DataError(f"year {y} outside {res.years}")
    y_next = min(y + 1, res.years[1])
    acc: dict[tuple, float] = {}
    for (yy, r, s, a), v in P.items():
        if yy == y:
            acc[(y, r, s, a)] = acc.get((y, r, s, a), 0.0) + v / 2.0
        if yy == y_next:
            acc[(y, r, s, a)] = acc.get((y, r, s, a), 0.0) + v / 2.0
    return CensusTable(res.with_years(y, y), acc, integer=False,
                       name=f"avg({P.name},{y})")


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


def merge_time(tables: list[CensusTable]) -> CensusTable:
    """Concatenate tables with identical shape over contiguous year ranges."""
    if not tables:
        raise DataError("nothing to merge")
    if len(tables) == 1:
        return tables[0]
    parts = sorted(tables, key=lambda t: t.resolution.years)
    first = parts[0]
    entries: dict[tuple, float] = {}
    for i, part in enumerate(parts):
        if not part.resolution.same_shape(first.resolution):
            raise DataError("merge_time requires identical non-year resolution")
        if part.integer != first.integer:
            raise DataError("merge_time requires identical integer typing")
        if i > 0 and part.resolution.years[0] != parts[i - 1].resolution.years[1] + 1:
            raise DataError(
                f"year ranges {parts[i - 1].resolution.years} and "
                f"{part.resolution.years} are not contiguous and disjoint")
        entries.update(part.items())
    res = replace(first.resolution,
                  years=(first.resolution.years[0], parts[-1].resolution.years[1]))
    return CensusTable(res, entries, integer=first.integer, name=first.name)


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


def _format_age(a: int, res: ResolutionSpec) -> str:
    return f"{a}+" if res.open_age is not None and a == res.open_age else str(a)


def write_csv(table: CensusTable, path: str) -> None:
    res = table.resolution
    header = _HEADER_OD if res.od else _HEADER
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for (y, r, s, last), v in table.items():
            tail = last if res.od else _format_age(last, res)
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
