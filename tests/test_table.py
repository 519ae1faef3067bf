import math
import random

import pytest

from censim.errors import DataError
from censim.table import (
    CensusTable,
    ResolutionSpec,
    add_tables,
    aggregate,
    infer_level,
    read_csv,
    write_csv,
)

DISTRICTS = ResolutionSpec((2020, 2020), "districts", ages=tuple(range(5)), open_age=4)


def test_aggregate_region_to_federalstates():
    t = CensusTable(DISTRICTS, {(2020, "101", "m", 3): 5, (2020, "102", "m", 3): 7},
                    integer=True)
    out = aggregate(t, coarse_level="federalstates")
    assert dict(out.items()) == {(2020, "AT-1", "m", 3): 12.0}
    assert out.resolution.level == "federalstates"
    assert out.integer


def test_aggregate_nothing_is_identity():
    t = CensusTable(DISTRICTS, {(2020, "101", "f", 0): 2.5, (2020, "201", "m", 4): 7})
    assert aggregate(t) == t


def test_aggregate_drop_all_matches_brute_force():
    regions = ("101", "102", "201", "301")
    keys = [(2020, r, s, a) for r in regions for s in "mf" for a in range(5)]
    values = [(i * 37 + 11) % 101 for i in range(len(keys))]
    t = CensusTable(DISTRICTS, dict(zip(keys, values)), integer=True)
    out = aggregate(t, drop={"region", "sex", "age"})
    assert dict(out.items()) == {(2020, "AT", "-", 0): float(sum(values))}
    assert out.resolution.level == "country"
    assert out.resolution.sexes == ()


def test_aggregate_rejects_incomparable_or_finer_level():
    t = CensusTable(DISTRICTS, {(2020, "101", "m", 0): 1})
    with pytest.raises(DataError):
        aggregate(t, coarse_level="municipalities")
    mun = CensusTable(
        ResolutionSpec((2020, 2020), "municipalities", ages=(0,), open_age=0),
        {(2020, "10101", "m", 0): 1})
    with pytest.raises(DataError):
        aggregate(mun, coarse_level="districts_districts")


def test_aggregate_is_associative_across_dimensions():
    t = CensusTable(DISTRICTS, {
        (2020, "101", "m", 0): 1, (2020, "101", "f", 0): 2,
        (2020, "102", "m", 1): 3, (2020, "301", "f", 4): 4,
    }, integer=True)
    a = aggregate(aggregate(t, drop={"sex"}), coarse_level="federalstates")
    b = aggregate(aggregate(t, coarse_level="federalstates"), drop={"sex"})
    assert a == b
    two_step = aggregate(aggregate(t, coarse_level="federalstates"),
                         coarse_level="country")
    one_step = aggregate(t, coarse_level="country")
    assert two_step == one_step


def test_grand_total_invariant_bit_exact():
    entries = {}
    value = 1
    for r in ("10101", "10102", "10201", "20101"):
        for s in "mf":
            for a in range(6):
                entries[(2020, r, s, a)] = value
                value = (value * 7) % 1000003
    res = ResolutionSpec((2020, 2020), "municipalities", ages=tuple(range(6)),
                         open_age=5)
    t = CensusTable(res, entries, integer=True)
    total = t.total()
    for out in (aggregate(t, coarse_level="districts"),
                aggregate(t, drop={"sex"}),
                aggregate(t, drop={"region", "sex", "age"})):
        assert out.total() == total


def test_table_validation():
    res = ResolutionSpec((2020, 2020), "districts", ages=(0, 5), open_age=5)
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "101", "m", 3): 1})  # 3 is not a class bound
    with pytest.raises(DataError):
        CensusTable(res, {(2019, "101", "m", 0): 1})
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "901", "m", 0): 1})
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "101", "-", 0): 1})
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "101", "m", 0): -1})
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "101", "m", 0): 1.5}, integer=True)
    with pytest.raises(DataError):
        CensusTable(res, {(2020, "101", "m", 0): math.nan})


def test_malformed_key_components_raise_data_errors_naming_them():
    res = ResolutionSpec((2020, 2020), "districts")
    with pytest.raises(DataError, match="region 101 invalid at level 'districts'"):
        CensusTable(res, {(2020, 101, "m", 0): 1})
    with pytest.raises(DataError, match="malformed age 'x'"):
        CensusTable(res, {(2020, "101", "m", "x"): 1})
    with pytest.raises(DataError, match="malformed year 'y'"):
        CensusTable(res, {("y", "101", "m", 0): 1})
    with pytest.raises(DataError, match="malformed year None"):
        CensusTable(res, {(None, "101", "m", 0): 1})


def test_zero_entry_does_not_hide_a_duplicate_key(tmp_path):
    rows = ("2020,101,m,0+,0", "2020,101,m,0+,5")
    for order in (rows, rows[::-1]):
        path = tmp_path / "t.csv"
        path.write_text("year,region,sex,age,value\n" + "\n".join(order) + "\n")
        with pytest.raises(DataError, match="duplicate key"):
            read_csv(str(path))


def test_zero_entries_are_not_stored():
    res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0,), open_age=0)
    t = CensusTable(res, {(2020, "AT", "-", 0): 0})
    assert len(t) == 0
    assert t[(2020, "AT", "-", 0)] == 0.0


def test_resolution_rejects_bad_shapes():
    with pytest.raises(DataError):
        ResolutionSpec((2020, 2019), "country")
    with pytest.raises(DataError):
        ResolutionSpec((2020, 2020), "provinces")
    with pytest.raises(DataError):
        ResolutionSpec((2020, 2020), "country", sexes=("m", "x"))
    with pytest.raises(DataError):
        ResolutionSpec((2020, 2020), "country", ages=(5, 3, 5), open_age=None)
    with pytest.raises(DataError):
        ResolutionSpec((2020, 2020), "country", ages=(0, 5), open_age=3)


def test_age_class_lookup():
    res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0, 3, 6), open_age=6)
    assert res.age_class_of(0) == 0
    assert res.age_class_of(2) == 0
    assert res.age_class_of(3) == 3
    assert res.age_class_of(97) == 6
    assert res.age_bounds(3) == (3, 6)
    assert res.age_bounds(6) == (6, None)
    closed = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0, 3), open_age=None)
    assert closed.age_bounds(3) == (3, 4)
    with pytest.raises(DataError):
        closed.age_class_of(4)


def test_csv_roundtrip_is_bit_exact(tmp_path):
    res = ResolutionSpec((2020, 2021), "districts", ages=(0, 3, 100), open_age=100)
    t = CensusTable(res, {
        (2020, "101", "m", 0): 5,
        (2020, "101", "f", 3): 2.5,
        (2021, "900", "m", 100): 0.1,
    })
    path = tmp_path / "t.csv"
    write_csv(t, str(path))
    raw = path.read_bytes()
    assert raw == (b"year,region,sex,age,value\n"
                   b"2020,101,f,3,2.5\n"
                   b"2020,101,m,0,5\n"
                   b"2021,900,m,100+,0.1\n")
    again = read_csv(str(path))
    assert dict(again.items()) == dict(t.items())
    assert again.resolution.ages == (0, 3, 100)
    assert again.resolution.open_age == 100
    write_csv(again, str(tmp_path / "t2.csv"))
    assert (tmp_path / "t2.csv").read_bytes() == raw


def test_write_csv_failing_partway_keeps_the_previous_file(tmp_path, monkeypatch):
    import contextlib

    import censim.table as table_mod

    res = ResolutionSpec((2020, 2020), "districts", ages=(0,), open_age=None)
    path = tmp_path / "t.csv"
    write_csv(CensusTable(res, {(2020, "101", "m", 0): 5}), str(path))
    before = path.read_bytes()
    writes = []

    class FailingHandle:
        """The real file handle, whose second write raises."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(text)
            if len(writes) == 2:
                raise OSError("disk full")
            return self.fh.write(text)

    real_open = table_mod.atomic_open

    @contextlib.contextmanager
    def failing_open(*args, **kwargs):
        with real_open(*args, **kwargs) as fh:
            yield FailingHandle(fh)

    monkeypatch.setattr(table_mod, "atomic_open", failing_open)
    bigger = CensusTable(res, {(2020, c, "m", 0): 1 for c in ("101", "102", "103")})
    with pytest.raises(OSError, match="disk full"):
        write_csv(bigger, str(path))
    # the header went through, the body did not
    assert writes == ["year,region,sex,age,value\n",
                      "2020,101,m,0,1\n2020,102,m,0,1\n2020,103,m,0,1\n"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    # a failed first write leaves no file at all
    with pytest.raises(OSError):
        writes.clear()
        write_csv(bigger, str(tmp_path / "new.csv"))
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_csv_keeps_mode_and_writes_through_symlinks(tmp_path):
    res = ResolutionSpec((2020, 2020), "districts", ages=(0,), open_age=None)
    real = tmp_path / "real.csv"
    write_csv(CensusTable(res, {(2020, "101", "m", 0): 5}), str(real))
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_csv(CensusTable(res, {(2020, "101", "m", 0): 7}), str(link))
    assert link.is_symlink()
    assert read_csv(str(real))[(2020, "101", "m", 0)] == 7
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_csv_od_roundtrip(tmp_path):
    res = ResolutionSpec((2020, 2020), "federalstates", od=True)
    t = CensusTable(res, {(2020, "AT-1", "m", "AT-2"): 4,
                          (2020, "AT-2", "f", "AT-1"): 6}, integer=True)
    path = tmp_path / "m.csv"
    write_csv(t, str(path))
    assert path.read_text(encoding="utf-8").splitlines()[0] == "year,region,sex,region2,value"
    again = read_csv(str(path), integer=True)
    assert again.resolution.od
    assert dict(again.items()) == dict(t.items())


def test_csv_rejects_unknown_columns_and_junk(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,region,sex,age,value,extra\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_csv(str(bad))
    bad.write_text("year,region,sex,age,value\n2020,101,m,zero,1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_csv(str(bad))
    bad.write_text("year,region,sex,age,value\n2020,101,m,0,-3\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_csv(str(bad))
    bad.write_text("year,region,sex,age,value\n2020,101,m,0,1\n2020,101,m,0,2\n",
                   encoding="utf-8")
    with pytest.raises(DataError):
        read_csv(str(bad))


def test_csv_sexless_tables_use_dash(tmp_path):
    res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0,), open_age=0)
    t = CensusTable(res, {(2020, "AT", "-", 0): 9}, integer=True)
    path = tmp_path / "s.csv"
    write_csv(t, str(path))
    assert "2020,AT,-,0+,9" in path.read_text(encoding="utf-8")
    again = read_csv(str(path), integer=True)
    assert again.resolution.sexes == ()
    assert again[(2020, "AT", "-", 0)] == 9.0


def test_level_inference_preferences():
    assert infer_level({"101", "102"}) == "districts"
    assert infer_level({"900"}) == "districts"
    assert infer_level({"901"}) == "districts_districts"
    assert infer_level({"10101"}) == "municipalities"
    assert infer_level({"90101"}) == "municipalities_districts"
    assert infer_level({"9010101"}) == "municipalities_registrationdistricts"
    assert infer_level({"10101", "9010101"}) == "municipalities_registrationdistricts"
    assert infer_level({"AT"}) == "country"
    assert infer_level({"AT-3"}) == "federalstates"
    with pytest.raises(DataError):
        infer_level({"abc"})
    with pytest.raises(DataError, match="from no codes"):
        infer_level(set())


def test_od_aggregate_reductions():
    res = ResolutionSpec((2020, 2020), "districts", od=True)
    t = CensusTable(res, {
        (2020, "101", "m", "201"): 3,
        (2020, "101", "m", "301"): 5,
        (2020, "201", "m", "101"): 7,
    }, integer=True)
    coarse = aggregate(t, coarse_level="federalstates")
    assert dict(coarse.items()) == {(2020, "AT-1", "m", "AT-2"): 3.0,
                                    (2020, "AT-1", "m", "AT-3"): 5.0,
                                    (2020, "AT-2", "m", "AT-1"): 7.0}
    assert coarse.resolution.od
    # origin-destination tables keep both region axes
    for drop in ({"region2"}, {"region"}, {"region", "region2"}, {"age"}):
        with pytest.raises(DataError, match="origin-destination"):
            aggregate(t, drop=drop)


def test_add_tables_matches_a_loop_over_keys():
    """add_tables equals the running sums of a loop over the tables' keys,
    bit for bit, on plain and origin-destination tables."""
    rng = random.Random(7)
    codes = ("101", "102", "201", "301", "302")
    for od in (False, True):
        res = ResolutionSpec((2020, 2021), "districts", ages=(0, 1, 5), open_age=5,
                             od=od)
        lasts = codes if od else res.ages
        tables = [CensusTable(res, {
            (rng.choice((2020, 2021)), rng.choice(codes), rng.choice(("m", "f")),
             rng.choice(lasts)): rng.choice((0.1, 0.7, 1 / 3, 2.0, 5e-17))
            for _ in range(12)}) for _ in range(3)]
        expect = {}
        for t in tables:
            for key, v in t.items():
                expect[key] = expect.get(key, 0.0) + v
        got = add_tables(tables, name="sum")
        assert got.items() == sorted(expect.items())
        assert got.name == "sum" and got.resolution == res
