"""Differential test of the CSV reader and writer against the row-by-row code.

The reference below is read_csv and write_csv as they stood before tables
were held as key columns, kept verbatim: one int, float and age-token parse
per row, one key tuple per row into the constructor, and one formatted line
per item on the way out.  Random plain, origin-destination, sexless, integer
and float tables must write byte-identical files on both sides and read back
into equal tables.  Every malformed input must raise the same DataError
message on both sides, or give the same table.  The reference builds its
table through the same constructor, so each case's outcome is pinned as
well: removing any check that a CSV read reaches fails a case.
"""

import csv
import math

import numpy as np
import pytest

from censim.errors import DataError
from censim.fileio import atomic_open
from censim.table import (NO_SEX, SEXES, CensusTable, ResolutionSpec,
                          _format_age, _format_value, infer_level, read_csv,
                          write_csv)

# the row-by-row reference, as it stood before the columnar tables

_HEADER = ["year", "region", "sex", "age", "value"]
_HEADER_OD = ["year", "region", "sex", "region2", "value"]


def ref_write_csv(table: CensusTable, path: str) -> None:
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


def ref_read_csv(path: str, integer: bool = False,
                 resolution: ResolutionSpec | None = None,
                 name: str | None = None) -> CensusTable:
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
        lvl = infer_level(codes)
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

    return CensusTable(resolution, entries, integer=integer, name=name)


def _outcome(build):
    try:
        t = build()
    except DataError as exc:
        return "error", str(exc)
    return "ok", (t.resolution, t.integer, list(t.items()))


# random round trips

CODES = {"municipalities": ("10101", "10102", "20101", "30102", "90001"),
         "districts": ("101", "102", "201", "900")}
ODD_VALUES = (0.1, 2.5, 1e-300, 1e20, 123456789.0, 1 / 3)


def _random_table(rng, kind):
    od = kind == "od"
    integer = kind in ("integer", "od")
    level = str(rng.choice(list(CODES)))
    sexes = () if kind == "sexless" else (SEXES, ("f",), ("m",))[rng.integers(3)]
    if od:
        res = ResolutionSpec((2000, 2003), level, sexes=sexes, od=True)
        lasts = CODES[level]
    else:
        ages = tuple(sorted(int(a) for a in rng.choice(
            101, size=rng.integers(1, 8), replace=False)))
        res = ResolutionSpec((2000, 2003), level, sexes=sexes, ages=ages,
                             open_age=ages[-1] if rng.random() < 0.5 else None)
        lasts = ages
    entries = {}
    for _ in range(int(rng.integers(0, 80))):
        key = (int(rng.integers(2000, 2004)), str(rng.choice(CODES[level])),
               str(rng.choice(res.sex_domain)), lasts[rng.integers(len(lasts))])
        if integer:
            v = float(rng.integers(0, 1000))
        elif rng.random() < 0.2:
            v = ODD_VALUES[rng.integers(len(ODD_VALUES))]
        else:
            v = float(rng.random() * 10.0 ** rng.integers(-3, 7))
        entries[key] = v
    return CensusTable(res, entries, integer=integer, name="t")


KINDS = ("plain", "od", "sexless", "integer")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_round_trips_match_the_reference_byte_for_byte(tmp_path, seed, kind):
    rng = np.random.default_rng(100 * seed + KINDS.index(kind))
    t = _random_table(rng, kind)
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_csv(t, str(ours))
    ref_write_csv(t, str(theirs))
    assert ours.read_bytes() == theirs.read_bytes()

    given = {"integer": t.integer, "name": "t"}
    if not len(t) or rng.random() < 0.5:
        given["resolution"] = t.resolution
    back = read_csv(str(ours), **given)
    assert _outcome(lambda: back) == _outcome(
        lambda: ref_read_csv(str(theirs), **given))
    if "resolution" in given:
        assert back == t
    write_csv(back, str(ours))
    assert ours.read_bytes() == theirs.read_bytes()


# malformed inputs

H = "year,region,sex,age,value\n"
H_OD = "year,region,sex,region2,value\n"
RES = ResolutionSpec((2000, 2001), "districts", ages=(0, 5), open_age=5)
RES_OD = ResolutionSpec((2000, 2001), "districts", od=True)

CASES = {
    "no header": ("", {},
        't: unexpected header None'),
    "wrong header": ("year,region,sex,age\n2000,101,m,0\n", {},
        "t: unexpected header ['year', 'region', 'sex', 'age']"),
    "unknown column": ("year,region,sex,age,value,note\n", {},
        "t: unexpected header ['year', 'region', 'sex', 'age', 'value', 'note']"),
    "too few columns": (H + "2000,101,m,0,1\n2000,101,f,0\n", {},
        't:3: expected 5 columns, got 4'),
    "too many columns": (H + "2000,101,m,0,1,9\n", {},
        't:2: expected 5 columns, got 6'),
    "blank lines": (H + "\n2000,101,m,0,1\n\n2000,101,f,0,2\n\n", {},
        None),
    "blank line then bad row": (H + "\n\n2000,101,m,0\n", {},
        't:4: expected 5 columns, got 4'),
    "year token": (H + "2000,101,m,0,1\nMMXX,101,f,0,2\n", {},
        "t:3: malformed year 'MMXX'"),
    "year and value in one row": (H + "20x0,101,m,0,zz\n", {},
        "t:2: malformed year '20x0'"),
    "value token": (H + "2000,101,m,0,1\n2000,101,f,0,lots\n", {},
        "t:3: malformed value 'lots'"),
    "value then year": (H + "2000,101,m,0,one\n2x00,101,f,0,2\n", {},
        "t:2: malformed value 'one'"),
    "age token": (H + "2000,101,m,0,1\n2000,101,f,five,2\n", {},
        "malformed age token 'five'"),
    "age and value in one row": (H + "2000,101,f,x5,bad\n", {},
        "t:2: malformed value 'bad'"),
    "negative age": (H + "2000,101,m,-5,1\n", {},
        "malformed age token '-5'"),
    "duplicate key": (H + "2000,101,m,0,1\n2000,102,m,0,2\n2000,101,m,0,3\n", {},
        "t: duplicate key (2000, '101', 'm', 0)"),
    "zero then duplicate": (H + "2000,101,m,0,0\n2000,101,m,0,4\n", {},
        "t: duplicate key (2000, '101', 'm', 0)"),
    "duplicate across age tokens": (H + "2000,101,m,5,1\n2000,101,m,5+,2\n",
                                    {"resolution": RES},
        "t: duplicate key (2000, '101', 'm', 5)"),
    "negative value": (H + "2000,101,m,0,1\n2000,101,f,0,-2\n", {},
        "t: value -2.0 at (2000, '101', 'f', 0) is not a finite non-negative number"),
    "nan value": (H + "2000,101,m,0,nan\n", {},
        "t: value nan at (2000, '101', 'm', 0) is not a finite non-negative number"),
    "inf value": (H + "2000,101,m,0,inf\n", {},
        "t: value inf at (2000, '101', 'm', 0) is not a finite non-negative number"),
    "fraction in an integer table": (H + "2000,101,m,0,2.5\n", {"integer": True},
        "t: value 2.5 at (2000, '101', 'm', 0) is not an integer"),
    "fraction in a float table": (H + "2000,101,m,0,2.5\n", {},
        None),
    "overlapping open class": (H + "2000,101,m,5+,1\n2000,101,m,10,2\n", {},
        't: open class 5+ overlaps age 10'),
    "open class equal to an age": (H + "2000,101,m,5+,1\n2000,101,f,5,2\n", {},
        't: open class 5+ overlaps age 5'),
    "multiple open classes": (H + "2000,101,m,5+,1\n2000,101,m,10+,2\n", {},
        't: multiple open age classes [5, 10]'),
    "mixed dash sex": (H + "2000,101,m,0,1\n2000,101,-,0,2\n", {},
        "t: mixes '-' with sexed rows"),
    "unknown sex": (H + "2000,101,x,0,1\n", {},
        "t: sex 'x' not in domain ('-',)"),
    "sex outside the resolution": (H + "2000,101,-,0,1\n", {"resolution": RES},
        "t: sex '-' not in domain ('m', 'f')"),
    "year outside the resolution": (H + "2003,101,m,0,1\n", {"resolution": RES},
        't: year 2003 outside (2000, 2001)'),
    "age outside the resolution": (H + "2000,101,m,3,1\n", {"resolution": RES},
        't: no age class starts at 3'),
    "code invalid at the given level": (H + "2000,10101,m,0,1\n",
                                        {"resolution": RES},
        "t: region '10101' invalid at level 'districts'"),
    "no level fits the codes": (H + "2000,101,m,0,1\n2000,AT-1,m,0,1\n", {},
        "no regional level fits codes ['101', 'AT-1']..."),
    "header only": (H, {},
        't: empty table needs an explicit resolution'),
    "header only with a resolution": (H, {"resolution": RES},
        None),
    "od header only": (H_OD, {},
        't: empty table needs an explicit resolution'),
    "od rows": (H_OD + "2000,101,m,102,3\n2001,102,f,101,0.5\n", {},
        None),
    "od bad second code": (H_OD + "2000,101,m,1x2,3\n", {},
        "no regional level fits codes ['101', '1x2']..."),
    "od age token is a code": (H_OD + "2000,101,m,5+,3\n", {},
        "no regional level fits codes ['101', '5+']..."),
    "od duplicate": (H_OD + "2000,101,m,102,3\n2000,101,m,102,0\n", {},
        "t: duplicate key (2000, '101', 'm', '102')"),
    "zeros only": (H + "2000,101,m,0,0\n2001,102,f,5+,0.0\n", {},
        None),
    "spaced tokens": (H + " 2000,101,m,0, 7\n", {},
        None),
    "quoted tokens": (H + '"2000","101","m","0","1e3"\n', {},
        None),
    "crlf line ends": (H.replace("\n", "\r\n") + "2000,101,m,0,1\r\n", {},
        None),
    "no final newline": (H + "2000,101,m,0,1\n2000,101,f,0,2", {},
        None),
    "quoted comma": (H + '2000,"101,5",m,0,1\n', {},
        "no regional level fits codes ['101,5']..."),
    "quoted newline": (H + '2000,"10\n1",m,0,1\n', {},
        "no regional level fits codes ['10\\n1']..."),
    "cr inside a row": (H + "2000,101,m,0\r,1\n", {},
        't:2: expected 5 columns, got 4'),
    "lone cr": (H + "2000,101,m,0,1\r2000,101,f,0,2\n", {},
        None),
    "od bad second code at a given level": (H_OD + "2000,101,m,1x2,3\n",
                                            {"resolution": RES_OD},
        "t: region2 '1x2' invalid at level 'districts'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_inputs_fail_as_the_reference_does(tmp_path, case):
    text, kwargs, message = CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    kwargs = dict(kwargs, name="t")
    ours = _outcome(lambda: read_csv(str(path), **kwargs))
    assert ours == _outcome(lambda: ref_read_csv(str(path), **kwargs))
    # both sides share the constructor, so its checks are pinned here too
    assert ours[0] == ("ok" if message is None else "error")
    assert message is None or ours[1] == message


def test_values_survive_the_round_trip_exactly(tmp_path):
    res = ResolutionSpec((2000, 2000), "districts", ages=(0,), open_age=None)
    values = [math.nextafter(1.0, 2.0), 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    t = CensusTable(res, {(2000, c, "m", 0): v
                          for c, v in zip(("101", "102", "103", "104"), values)})
    path = str(tmp_path / "t.csv")
    write_csv(t, path)
    assert read_csv(path, resolution=res) == t


# writer edge cases: distinct values, awkward floats, every table shape and
# bodies of several write chunks

EDGE_VALUES = (1e16, 0.1 + 0.2, 5e-324, 1e300, 2.0 ** 53, 2.0 ** 53 + 2,
               1e15 + 0.5, 1e-5, 1 / 3, 7.0)
MUNICIPALITIES = tuple(f"{d}{m:02d}" for d in (101, 102, 201, 202, 301)
                       for m in range(1, 19))


def _assert_writes_match(tmp_path, t):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    write_csv(t, str(ours))
    ref_write_csv(t, str(theirs))
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_bytes()


def _edge_table(kind, rng):
    ages = tuple(range(0, 101, 5))
    if kind == "od":
        res = ResolutionSpec((2000, 2001), "districts", od=True)
        keys = [(y, r, s, r2) for y in (2000, 2001) for r in CODES["districts"]
                for s in SEXES for r2 in CODES["districts"]]
    elif kind == "sexless":
        res = ResolutionSpec((2000, 2001), "districts", sexes=(), ages=ages,
                             open_age=None)
        keys = [(y, r, NO_SEX, a) for y in (2000, 2001)
                for r in CODES["districts"] for a in ages]
    else:
        res = ResolutionSpec((2000, 2001), "districts", ages=ages,
                             open_age=100 if kind == "open age" else None)
        keys = [(y, r, s, a) for y in (2000, 2001) for r in CODES["districts"]
                for s in SEXES for a in ages]
    if kind == "distinct":
        values = rng.permutation(len(keys)) + rng.random(len(keys))
    else:
        values = [EDGE_VALUES[i] for i in rng.integers(len(EDGE_VALUES),
                                                       size=len(keys))]
    return CensusTable(res, dict(zip(keys, map(float, values))))


@pytest.mark.parametrize("kind", ["distinct", "edge values", "od", "open age",
                                  "sexless"])
def test_writer_edge_tables_match_the_reference(tmp_path, kind):
    t = _edge_table(kind, np.random.default_rng(len(kind)))
    _assert_writes_match(tmp_path, t)
    if kind == "distinct":
        assert len(set(t.values.tolist())) == len(t)
    assert read_csv(str(tmp_path / "ours.csv"), resolution=t.resolution) == t


def test_edge_values_are_written_as_the_reference_does(tmp_path):
    text = _assert_writes_match(tmp_path, _edge_table(
        "edge values", np.random.default_rng(0))).decode()
    for token in ("10000000000000000", "0.30000000000000004", "5e-324",
                  str(int(1e300)), "1000000000000000.5"):
        assert f",{token}\n" in text


@pytest.mark.parametrize("od", [False, True])
def test_empty_tables_write_the_header_only(tmp_path, od):
    res = (ResolutionSpec((2000, 2000), "districts", od=True) if od else
           ResolutionSpec((2000, 2000), "districts", ages=(0, 5), open_age=5))
    text = _assert_writes_match(tmp_path, CensusTable(res, {}))
    assert text == ((",".join(_HEADER_OD if od else _HEADER)) + "\n").encode()


def _counting_writes(monkeypatch):
    import contextlib

    import censim.table as table_mod

    writes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

    real_open = table_mod.atomic_open

    @contextlib.contextmanager
    def counting_open(*args, **kwargs):
        with real_open(*args, **kwargs) as fh:
            yield Counting(fh)

    monkeypatch.setattr(table_mod, "atomic_open", counting_open)
    return writes


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_small_chunks_write_the_same_bytes(tmp_path, monkeypatch, chunk):
    import censim.table as table_mod

    t = _edge_table("od", np.random.default_rng(chunk))
    monkeypatch.setattr(table_mod, "_CHUNK_ROWS", chunk)
    writes = _counting_writes(monkeypatch)
    _assert_writes_match(tmp_path, t)
    # one write for the header, then one per chunk of at least `chunk` rows
    # (the last one shorter), each ending on a whole run of one prefix
    rows = [w.count("\n") for w in writes[1:]]
    assert sum(rows) == len(t)
    assert all(r >= chunk for r in rows[:-1])
    assert all(r < chunk + len(CODES["districts"]) for r in rows)


def test_a_table_larger_than_one_chunk(tmp_path, monkeypatch):
    from censim.table import _CHUNK_ROWS

    rng = np.random.default_rng(1)
    ages = tuple(range(101))
    res = ResolutionSpec((2000, 2001), "municipalities", ages=ages,
                         open_age=100)
    grid = rng.integers(0, 60, size=(2, len(MUNICIPALITIES), 2, 101))
    t = CensusTable(res, {(2000 + y, MUNICIPALITIES[r], SEXES[s], a): float(v)
                          for (y, r, s, a), v in np.ndenumerate(grid)},
                    integer=True)
    assert len(t) > 2 * _CHUNK_ROWS
    writes = _counting_writes(monkeypatch)
    _assert_writes_match(tmp_path, t)
    rows = [w.count("\n") for w in writes[1:]]
    assert len(rows) > 2 and sum(rows) == len(t)
    assert all(_CHUNK_ROWS <= r < _CHUNK_ROWS + len(ages) for r in rows[:-1])
    assert rows[-1] < _CHUNK_ROWS + len(ages)


# the byte tokenizer: every case must match the reference, and regular text
# (ASCII, no quotes or CRs, five fields of at most 56 bytes a line) must take
# the byte path

BYTE_CASES = {
    "registration district codes": (
        H + "2000,9010101,m,0,1\n2000,9010102,m,0,2\n2000,10101,f,0,3\n"
        "2001,9010101,m,0,4\n", {}, True),
    "key tokens over eight bytes": (
        H + "0000002000,9010101,m,000000005,1\n2000,9010101,m,0000000000,2\n"
        "2001,9020101,f,5,3\n", {}, True),
    "values sharing 7, 8, 14 or 16 bytes": (
        H + "".join(f"2000,10{i:d}01,m,0,{v}\n" for i, v in enumerate(
            ("0.1234567", "0.1234568", "0.12345678", "0.12345679",
             "0.123456789012345", "0.123456789012346",
             "0.12345678901234567", "0.12345678901234568",
             "1234567890123456.5", "1234567890123456.25"), start=1)),
        {}, True),
    "tokens of 56 bytes": (
        H + f"2000,101,m,0,1{'0' * 55}\n2000,101,f,0,{'0' * 55}7\n"
        f"2001,101,m,0,1{'0' * 55}\n2001,101,f,0,1{'0' * 54}1\n", {}, True),
    "tokens over 56 bytes": (
        H + f"2000,101,m,0,1{'0' * 80}\n2000,101,f,0,{'0' * 70}7\n"
        f"2001,101,m,0,1{'0' * 80}\n", {}, False),
    "a code over 56 bytes": (H + f"2000,{'1' * 60},m,0,1\n", {}, False),
    "a 57-byte year": (H + f"{'0' * 53}2000,101,m,0,1\n", {}, False),
    "a NUL byte in a sex token": (
        H + "2000,101,m,0,1\n2000,101,m\0,0,2\n", {}, True),
    "NUL bytes ending a code": (
        H + "2000,10101,m,0,1\n2000,10101\0\0,m,0,2\n", {}, True),
    "a NUL byte in a value": (
        H + "2000,101,m,0,1\n2000,101,f,0,1\0\n", {}, True),
    "NUL-padded codes at a given level": (
        H + "2000,101,m,0,1\n2000,101\0\0\0\0,m,0,2\n", {"resolution": RES}, True),
    "bad codes, the first seen named": (
        H + "2000,1x1,m,0,1\n2000,1y1,m,0,1\n" + "".join(
            f"2000,{('1x1', '101')[i % 2]},m,{i % 3 * 5 % 10},1\n" for i in range(4000)),
        {"resolution": RES}, True),
    "spellings int and float accept": (
        H + "2000,101,m,0,7\n+2000,101,f,0, 7\n 2001,101,m,0,+7\n"
        "2_001,101,f,0,1_000\n2001,102,m,0,7.0\n2000,102,f,05,7e0\n", {}, True),
    "spellings of one key": (
        H + "2000,101,m,5,1\n+2000,101,m,05,2\n", {}, True),
    "non-ASCII digits": (
        H + "2000,101,m,0,７\n٢٠٠٠,101,f,٥,7\n",
        {}, False),
    "a non-ASCII code": (
        H + "2000,1ä01,m,0,1\n", {}, False),
    "no final newline": (H + "2000,101,m,0,1\n2000,101,f,0,2", {}, True),
    "trailing blank lines": (H + "2000,101,m,0,1\n\n\n\n", {}, True),
    "header only": (H, {"resolution": RES}, True),
    "header only, no newline": (H[:-1], {"resolution": RES}, True),
    "header only, blank lines": (H + "\n\n", {"resolution": RES}, True),
    "header only, inferred": (H, {}, True),
    "od header only": (H_OD, {"resolution": RES_OD}, True),
    "od rows": (H_OD + "2000,101,m,102,3\n2001,102,f,101,0.5\n", {}, True),
    "empty tokens": (H + ",,,,\n", {}, True),
    "an empty value": (H + "2000,101,m,0,\n", {}, True),
    "interior blank line": (H + "2000,101,m,0,1\n\n2000,101,f,0,2\n", {}, False),
    "a header with a space": (H.replace(",sex", ", sex") + "2000,101,m,0,1\n", {},
                              False),
}


def _byte_path_used(monkeypatch):
    import censim.table as table_mod

    calls = []
    factor = table_mod._factor_bytes
    monkeypatch.setattr(table_mod, "_factor_bytes",
                        lambda *a: calls.append(1) or factor(*a))
    return calls


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_byte_tokens_read_as_the_reference_does(tmp_path, monkeypatch, case):
    text, kwargs, byte_path = BYTE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    kwargs = dict(kwargs, name="t")
    calls = _byte_path_used(monkeypatch)
    ours = _outcome(lambda: read_csv(str(path), **kwargs))
    assert ours == _outcome(lambda: ref_read_csv(str(path), **kwargs))
    assert bool(calls) == byte_path


def test_byte_tokens_keep_nul_bytes_apart(tmp_path):
    # "m" and "m\0" are two sexes, "10101" and "10101\0\0" two codes
    path = tmp_path / "t.csv"
    path.write_bytes((H + "2000,101,m,0,1\n2000,101,m\0,0,2\n").encode())
    with pytest.raises(DataError, match=r"sex 'm\\x00' not in domain"):
        read_csv(str(path), name="t")
    res = ResolutionSpec((2000, 2000), "municipalities", sexes=("m",), ages=(0,))
    path.write_bytes((H + "2000,10101,m,0,1\n2000,10101\0\0,m,0,2\n").encode())
    with pytest.raises(DataError, match=r"region '10101\\x00\\x00' invalid"):
        read_csv(str(path), resolution=res, name="t")


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe4\xb8", b"\xed\xa0\x80"])
@pytest.mark.parametrize("where", ["header", "code", "last byte"])
def test_invalid_utf8_raises_as_the_reference_does(tmp_path, bad, where):
    text = (H + "2000,101,m,0,1\n").encode()
    text = {"header": bad + text, "code": text.replace(b",101,", b",1" + bad + b"01,"),
            "last byte": text + bad}[where]
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(UnicodeDecodeError):
        ref_read_csv(str(path), name="t")
    with pytest.raises(UnicodeDecodeError) as ours:
        read_csv(str(path), name="t")
    # the message is a whole-file text read's (the reference decodes in
    # chunks, so it counts positions from the last chunk)
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    assert str(ours.value) == str(whole.value)


# equivalent spellings: a year, an age or a value may be written any way int
# and float accept; each row picks one at random
SPELLINGS = (lambda v: v, lambda v: f"+{v}", lambda v: f" {v}", lambda v: f"{v} ",
             lambda v: f"0{v}", lambda v: f"00000000{v}")


def _value_spellings(v: float) -> list:
    token = _format_value(v)
    out = [token, repr(v), f"{v:.17e}", f"0{token}", f" {token}", f"+{token}"]
    if "e" not in token:
        out.append(f"{token}e0")
    if v.is_integer() and abs(v) < 1e15:
        out += [f"{int(v)}.0", f"{int(v)}.000000000000000000", f"{int(v):_}"]
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_equivalent_spellings_read_as_the_reference_does(tmp_path, monkeypatch,
                                                         seed, kind):
    rng = np.random.default_rng(900 + 10 * seed + KINDS.index(kind))
    t = _random_table(rng, kind)
    res = t.resolution
    # a few values over many rows, so that each is spelt several ways
    pool = [float(rng.integers(1, 1000)) if t.integer else
            float(ODD_VALUES[i]) for i in rng.integers(len(ODD_VALUES), size=3)]
    t = CensusTable(res, {key: pool[rng.integers(3)] for key in t.keys()},
                    integer=t.integer, name="t")
    lines = [",".join(_HEADER_OD if res.od else _HEADER)]
    for (y, r, s, last), v in t.items():
        spell = SPELLINGS[rng.integers(len(SPELLINGS))]
        # an age token is digits, perhaps with leading zeros
        tail = last if res.od else "0" * int(rng.integers(10)) + _format_age(
            last, res.open_age)
        values = _value_spellings(v)
        lines.append(f"{spell(str(y))},{r},{s},{tail},{values[rng.integers(len(values))]}")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    given = {"integer": t.integer, "name": "t"}
    calls = _byte_path_used(monkeypatch)
    for kwargs in (given, dict(given, resolution=res)):
        ours = _outcome(lambda: read_csv(str(path), **kwargs))
        assert ours == _outcome(lambda: ref_read_csv(str(path), **kwargs))
    assert calls
    if len(t):
        assert read_csv(str(path), resolution=res, integer=t.integer, name="t") == t
