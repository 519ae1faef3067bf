"""Sparse census tables indexed by (year, region, sex, age).

A table holds one census quantity (population, births, deaths, ...) at one
resolution.  Values are non-negative floats; absent keys mean zero and
zero-valued entries are never stored.  Tables are immutable after
construction: every operation returns a new table.

Origin-destination tables (migration flows) replace the age component with a
second region code and carry no age axis.

Age classes are described by their sorted lower bounds.  Class i covers the
completed ages [ages[i], ages[i+1]); the last class is the open class
"ages[-1] and above" when open_age is set, otherwise the single age ages[-1].
A table without an age axis uses the single class 0+ (all ages).

A table is stored as columns: the sorted region codes its entries use, one
int64 flat key per entry (year, code index, sex, and age or second code index,
counted in key order) and one float64 value per entry.  Every table is built
from Entries, key columns with one axis of values per component, through the
one checked constructor.  grid() reads a table onto a dense array, cells()
turns an array's nonzero cells back into Entries, and degrade() sums a table
onto a coarser or equal resolution with one bincount.

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
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .fileio import atomic_open
from .regions import LEVELS, coarser_or_equal, is_valid_code, parent_region

SEXES = ("m", "f")
NO_SEX = "-"
FULL_AGES = tuple(range(101))  # single ages, 100 the open class


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


# A key's place in key order is one int64, its flat key, over the radices
# (years, codes, sexes, ages or codes); codes and sexes count in string order.
_SEX_ORDER = ("-", "f", "m")
_SEX_INDEX = {s: i for i, s in enumerate(_SEX_ORDER)}


def _radices(res: ResolutionSpec, ncodes: int) -> tuple[int, int]:
    """The code and last-component radices of a flat key."""
    c = max(ncodes, 1)
    return c, c if res.od else res.ages[-1] + 1


def _flat(year, region, sex, last, radices):
    c, n = radices
    return ((year * c + region) * 3 + sex) * n + last


def _split(flat, radices):
    """(year offset, code index, sex index, age or code index) of flat keys."""
    c, n = radices
    rest, last = np.divmod(flat, n)
    rest, sex = np.divmod(rest, 3)
    year, region = np.divmod(rest, c)
    return year, region, sex, last


def _factor(column) -> tuple[list, np.ndarray]:
    """A column's distinct values, first seen first, and each row's index."""
    index = {v: i for i, v in enumerate(dict.fromkeys(column))}
    return list(index), np.fromiter(map(index.__getitem__, column), np.intp,
                                    len(column))


class Entries:
    """Table entries as key columns, the form every CensusTable is built from.

    axes holds the values of each key component (years, region codes, sexes,
    and ages or second region codes), index one array per component with
    each row's position on that axis, values one float per row and raw the
    values as given, for messages.  It compares equal to the {key: value}
    dict of its rows.
    """

    __slots__ = ("axes", "index", "values", "raw")

    def __init__(self, axes, index, values, raw=None):
        self.axes = tuple(axes)
        self.index = tuple(np.asarray(ix, np.intp) for ix in index)
        self.values = np.asarray(values, float)
        self.raw = self.values if raw is None else raw

    @staticmethod
    def concat(parts) -> Entries:
        """The rows of several entries in order, on their joined axes."""
        parts = list(parts)
        index = [np.concatenate([np.zeros(0, np.intp)] + [
            p.index[k] + offset for p, offset in
            zip(parts, np.cumsum([0] + [len(p.axes[k]) for p in parts]))])
            for k in range(4)]
        return Entries(([v for p in parts for v in p.axes[k]] for k in range(4)),
                       index, np.concatenate([np.zeros(0)] + [p.values for p in parts]))

    def items(self):
        keys = zip(*(map(axis.__getitem__, ix.tolist())
                     for axis, ix in zip(self.axes, self.index)))
        return zip(keys, self.values.tolist())

    def __eq__(self, other) -> bool:
        return dict(self.items()) == other


def _factored(name: str, entries) -> Entries:
    """The entries of a {key: value} mapping or of (key, value) pairs."""
    pairs = list(entries.items() if hasattr(entries, "items") else entries)
    keys, raw = tuple(zip(*pairs)) or ((), ())
    if set(map(len, keys)) - {4}:
        key = next(k for k in keys if len(k) != 4)
        raise DataError(f"{name}: key {tuple(key)} must have 4 components")
    axes, index = zip(*map(_factor, tuple(zip(*keys)) or ((),) * 4))
    return Entries(axes, index, np.fromiter(map(float, raw), float, len(raw)), raw)


class CensusTable:
    """Immutable sparse table; absent keys read as zero.

    The entries are held in key order as flat keys over the sorted region
    codes the table uses (codes), with one float per entry (values).
    """

    __slots__ = ("resolution", "integer", "name", "codes", "values", "_key")

    def __init__(self, resolution: ResolutionSpec, entries, integer: bool = False,
                 name: str = "table"):
        self.resolution = res = resolution
        self.integer = bool(integer)
        self.name = name
        e = (entries._entries() if isinstance(entries, CensusTable) else entries
             if isinstance(entries, Entries) else _factored(name, entries))
        # the axis values the rows use are checked (each distinct code once),
        # then each row for its value and duplicates (zero values included)
        used = [np.flatnonzero(np.bincount(ix, minlength=len(axis))).tolist()
                for axis, ix in zip(e.axes, e.index)]
        years, regions, sexes, lasts = ([axis[i] for i in u]
                                        for axis, u in zip(e.axes, used))
        years = [self._whole(y, "year") for y in years]
        for year in years:
            if not res.years[0] <= year <= res.years[1]:
                raise DataError(f"{name}: year {year} outside {res.years}")
        for code in dict.fromkeys(regions):
            self._check_code(code, "region")
        for sex in sexes:
            if sex not in res.sex_domain:
                raise DataError(f"{name}: sex {sex!r} not in domain {res.sex_domain}")
        codes = set(regions)
        if res.od:
            for code in dict.fromkeys(lasts):
                if code not in codes:
                    self._check_code(code, "region2")
            codes.update(lasts)
        else:
            lasts = [self._whole(a, "age") for a in lasts]
            for age in lasts:
                if age not in res.ages:
                    raise DataError(f"{name}: no age class starts at {age}")
        codes = sorted(codes)
        pos = dict(zip(codes, range(len(codes))))

        def column(k, on_axis):
            lut = np.zeros(len(e.axes[k]), np.int64)
            lut[used[k]] = on_axis
            return lut[e.index[k]]

        year = column(0, [y - res.years[0] for y in years])
        region = column(1, [pos[c] for c in regions])
        sex = column(2, [_SEX_INDEX[s] for s in sexes])
        last = column(3, [pos[c] for c in lasts] if res.od else lasts)

        def key(i):
            return (int(year[i]) + res.years[0], codes[region[i]],
                    _SEX_ORDER[sex[i]], codes[last[i]] if res.od else int(last[i]))

        values = e.values
        checks = [(~((values >= 0) & (values < math.inf)), "a finite non-negative number")]
        if self.integer:
            checks.append((values != np.floor(values), "an integer"))
        for bad, what in checks:
            for i in np.flatnonzero(bad)[:1]:
                given = e.raw[i].item() if isinstance(e.raw, np.ndarray) else e.raw[i]
                raise DataError(f"{name}: value {given!r} at {key(i)} is not {what}")
        radices = _radices(res, len(codes))
        flat = _flat(year, region, sex, last, radices)
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        again = order[1:][flat[1:] == flat[:-1]]
        if again.size:
            raise DataError(f"{name}: duplicate key {key(again.min())}")
        nonzero = values[order] != 0
        # codes only zero values use are dropped, so equal tables hold equal codes
        y, r, s, a = _split(flat[nonzero], radices)
        kept = np.flatnonzero(np.bincount(np.concatenate((r, a)) if res.od else r,
                                          minlength=len(codes)))
        self.codes = tuple(codes[i] for i in kept.tolist())
        self._key = _flat(y, np.searchsorted(kept, r), s,
                          np.searchsorted(kept, a) if res.od else a, self._radices())
        self.values = values[order][nonzero]
        self.values.flags.writeable = False

    def _whole(self, v, what: str) -> int:
        try:
            return int(v)
        except (TypeError, ValueError):
            raise DataError(f"{self.name}: malformed {what} {v!r}") from None

    def _check_code(self, code, what: str) -> None:
        if not (isinstance(code, str) and is_valid_code(code, self.resolution.level)):
            raise DataError(f"{self.name}: {what} {code!r} invalid at level "
                            f"{self.resolution.level!r}")

    def _radices(self) -> tuple[int, int]:
        return _radices(self.resolution, len(self.codes))

    def _entries(self) -> Entries:
        """The table's entries on its own axes."""
        res = self.resolution
        lasts = self.codes if res.od else range(res.ages[-1] + 1)
        return Entries((res.year_list(), self.codes, _SEX_ORDER, lasts),
                       _split(self._key, self._radices()), self.values)

    def get(self, key: tuple, default: float = 0.0) -> float:
        key = tuple(key)
        v = self.grid(*([k] for k in key)).item() if len(key) == 4 else 0.0
        return v if v else default

    __getitem__ = get

    def items(self) -> list:
        return list(self._entries().items())

    def keys(self) -> list:
        return [key for key, _ in self.items()]

    def __len__(self) -> int:
        return len(self._key)

    def __iter__(self):
        return iter(self.keys())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensusTable):
            return NotImplemented
        return (self.resolution == other.resolution
                and self.integer == other.integer
                and self.codes == other.codes
                and np.array_equal(self._key, other._key)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"CensusTable({self.name!r}, {len(self)} entries, {self.resolution})"

    def total(self) -> float:
        return math.fsum(self.values.tolist())

    def grid(self, years, regions, sexes, lasts) -> np.ndarray:
        """The values on a (year, region, sex, age or region2) grid as a dense
        float array shaped by the axis lengths; absent keys read 0.

        Each grid cell is one binary search among the flat keys."""
        res = self.resolution
        pos = dict(zip(self.codes, range(len(self.codes))))
        on_axes = (dict(zip(res.year_list(), range(len(res.year_list())))), pos,
                   _SEX_INDEX, pos if res.od else dict(zip(res.ages, res.ages)))
        at = [np.array([index.get(v, -1) for v in axis], np.int64).reshape(
            (-1,) + (1,) * (3 - k)) for k, (index, axis) in
            enumerate(zip(on_axes, (years, regions, sexes, lasts)))]
        flat = _flat(*at, self._radices())
        row = np.searchsorted(self._key, flat)
        hit = (at[0] >= 0) & (at[1] >= 0) & (at[2] >= 0) & (at[3] >= 0) \
            & (np.append(self._key, -1)[row] == flat)
        return np.where(hit, np.append(self.values, 0.0)[row], 0.0)


def cells(years, regions, sexes, lasts, array) -> Entries:
    """The entries of an array's nonzero cells, keyed by the axis values at
    their indices; the inverse of CensusTable.grid."""
    array = np.asarray(array)
    axes = (years, regions, sexes, lasts)
    if array.shape != tuple(map(len, axes)):
        raise DataError(f"array of shape {array.shape} does not fit a grid of "
                        f"{tuple(map(len, axes))}")
    at = np.nonzero(array)
    return Entries(axes, at, array[at], array[at])


def _summed(target: ResolutionSpec, codes, columns, values, **kw) -> CensusTable:
    """The table of the rows' sums per key, key columns indexing target's
    years from its first, codes and _SEX_ORDER.

    bincount adds in row order: each sum is the running sum of a loop over
    the rows."""
    radices = _radices(target, len(codes))
    keys, at = np.unique(_flat(*columns, radices), return_inverse=True)
    sums = np.bincount(at, weights=values, minlength=len(keys))
    lasts = codes if target.od else range(radices[1])
    return CensusTable(target, Entries((target.year_list(), codes, _SEX_ORDER, lasts),
                                       _split(keys, radices), sums), **kw)


def degrade(table: CensusTable, target: ResolutionSpec) -> CensusTable:
    """Sum a table onto a coarser or equal resolution in one pass.

    The target keeps the table's origin-destination structure, sits at a
    coarser or equal level, keeps the sex axis or drops it, has age classes
    that each hold whole source classes, and years inside the source's.
    Every code and age class is projected once onto its target; sums run
    in source key order.
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
    parents = [parent_region(c, res.level, target.level) for c in table.codes]
    codes = sorted(set(parents))
    pos = dict(zip(codes, range(len(codes))))
    up = np.array([pos[p] for p in parents], np.int64)
    year, region, sex, last = _split(table._key, table._radices())
    year += res.years[0] - y0
    keep = (year >= 0) & (year <= y1 - y0)
    if res.od:
        last = up[last]
    else:
        onto = np.zeros(res.ages[-1] + 1, np.int64)
        onto[list(age_class)] = list(age_class.values())
        last = onto[last]
    columns = (year, up[region], sex if target.sexes else np.zeros_like(sex), last)
    return _summed(target, codes, [c[keep] for c in columns], table.values[keep],
                   integer=table.integer, name=table.name)


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
    codes = sorted(set().union(*(t.codes for t in tables)))
    columns = []
    for t in tables:
        up = np.searchsorted(codes, t.codes).astype(np.int64)
        y, r, s, a = _split(t._key, t._radices())
        columns.append((y, up[r], s, up[a] if res.od else a))
    # rows in table order: each sum is the running sum of a loop over tables
    return _summed(res, codes, [np.concatenate(c) for c in zip(*columns)],
                   np.concatenate([t.values for t in tables]),
                   integer=all(t.integer for t in tables), name=name or tables[0].name)


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


# rows per write call: a few calls per table, each string about 100 kB;
# one string per 64k rows (over 1 MB) wrote slower and raised peak RSS
_CHUNK_ROWS = 1 << 12


def write_csv(table: CensusTable, path: str) -> None:
    """Write a table in the canonical CSV form.

    Census tables repeat few values, so each distinct value is formatted
    once, and each distinct ``year,region,sex,`` prefix and ``age,value``
    tail (``region2,value`` for od tables) is built once.  Rows sharing a
    prefix are consecutive in key order, and each such run is one join of
    its tails.  After the header the rows go out in chunks of at least
    _CHUNK_ROWS rows (the last one shorter), so no string holds the whole
    file.
    """
    res = table.resolution
    header = _HEADER_OD if res.od else _HEADER
    e = table._entries()
    years, codes, sexes, lasts = e.axes
    yi, ri, si, li = e.index
    lasts = lasts if res.od else [_format_age(a, res.open_age) for a in lasts]
    distinct, vi = np.unique(table.values, return_inverse=True)
    nv = len(distinct)
    tokens = list(map(_format_value, distinct.tolist()))
    tail_ids, ti = np.unique(li * nv + vi, return_inverse=True)
    tails = [f"{lasts[t // nv]},{tokens[t % nv]}\n" for t in tail_ids.tolist()]
    n = len(ti)
    starts = np.flatnonzero(np.diff((yi * len(codes) + ri) * 3 + si,
                                    prepend=-1)).tolist()
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        chunk, first = [], 0
        for a, b, y, r, s in zip(starts, starts[1:] + [n],
                                 yi[starts].tolist(), ri[starts].tolist(),
                                 si[starts].tolist()):
            prefix = f"{years[y]},{codes[r]},{sexes[s]},"
            chunk.append(prefix + prefix.join(map(tails.__getitem__,
                                                  ti[a:b].tolist())))
            if b - first >= _CHUNK_ROWS or b == n:
                fh.write("".join(chunk))
                chunk, first = [], b


def _parse_age_token(tok: str) -> tuple[int, bool]:
    open_class = tok.endswith("+")
    body = tok[:-1] if open_class else tok
    if not body.isdigit():
        raise DataError(f"malformed age token {tok!r}")
    return int(body), open_class


def _csv_fields(name: str, text: str) -> tuple[list, list]:
    """Header and fields of irregular text, row by row; the first bad row raises."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    head = rows.pop(0) if rows else None
    if head not in (_HEADER, _HEADER_OD):
        raise DataError(f"{name}: unexpected header {head}")
    numbered = [(lineno, row) for lineno, row in enumerate(rows, start=2) if row]
    for lineno, row in numbered:
        if len(row) != 5:
            raise DataError(f"{name}:{lineno}: expected 5 columns, got {len(row)}")
    for lineno, row in numbered:
        for what, tok, parse in (("year", row[0], int), ("value", row[4], float)):
            try:
                parse(tok)
            except ValueError:
                raise DataError(f"{name}:{lineno}: malformed {what} {tok!r}") from None
        if head == _HEADER:
            _parse_age_token(row[3])
    return head, [tok for row in rows for tok in row]


def read_csv(path: str, integer: bool = False,
             resolution: ResolutionSpec | None = None,
             name: str | None = None) -> CensusTable:
    """Read a canonical census CSV.

    The resolution is inferred from the data unless given: years span the
    observed range, age classes are the observed lower bounds, and the
    regional level is the coarsest level all codes are valid at (districts
    and municipalities win over the Viennese splits when codes are
    ambiguous).  Each distinct token is parsed once.
    """
    name = name or path
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    # plain text (no quotes or CRs, five fields a line) is split on commas in
    # one pass, which takes a third of the time csv.reader does
    head, _, body = text.partition("\n")
    fields = (body.rstrip("\n") + "\n").replace("\n", ",\n,").split(",")[:-1]
    if ('"' in text or "\r" in text or head.split(",") not in (_HEADER, _HEADER_OD)
            or len(fields) % 6 or fields[5::6].count("\n") != len(fields) // 6):
        head, fields = _csv_fields(name, text)
    else:
        head = head.split(",")
        del fields[5::6]
    od = head == _HEADER_OD
    ytok, rtok, stok, tail, vtok = (fields[k::5] for k in range(5))
    (years, yi), (codes, ri), (sexes, si), (lasts, li) = map(
        _factor, (ytok, rtok, stok, tail))
    try:
        years = [int(tok) for tok in years]
        ages = None if od else [_parse_age_token(tok) for tok in lasts]
        values = np.fromiter(map(float, vtok), float, len(vtok))
    except (ValueError, DataError):
        _csv_fields(name, text)
        raise

    if resolution is None:
        if not len(vtok):
            raise DataError(f"{name}: empty table needs an explicit resolution")
        lvl = infer_level(set(codes) | set(lasts if od else ()))
        sexes_seen = set(sexes)
        if NO_SEX in sexes_seen and sexes_seen != {NO_SEX}:
            raise DataError(f"{name}: mixes '-' with sexed rows")
        sex_domain = () if sexes_seen == {NO_SEX} else tuple(sorted(sexes_seen & set(SEXES)))
        if od:
            resolution = ResolutionSpec((min(years), max(years)), lvl,
                                        sexes=sex_domain, od=True)
        else:
            opens = sorted({a for a, o in ages if o})
            singles = sorted({a for a, o in ages if not o})
            if len(opens) > 1:
                raise DataError(f"{name}: multiple open age classes {opens}")
            if opens and singles and opens[0] <= singles[-1]:
                raise DataError(
                    f"{name}: open class {opens[0]}+ overlaps age {singles[-1]}")
            resolution = ResolutionSpec((min(years), max(years)), lvl,
                                        sexes=sex_domain, ages=tuple(singles + opens),
                                        open_age=opens[0] if opens else None)

    lasts = lasts if od else [a for a, _ in ages]
    return CensusTable(resolution, Entries((years, codes, sexes, lasts),
                                           (yi, ri, si, li), values),
                       integer=integer, name=name)
