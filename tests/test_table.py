import math

import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.table import (
    CensusTable,
    ResolutionSpec,
    aggregate,
    average_population,
    fold_open_age,
    infer_level,
    merge_time,
    read_csv,
    single_ages,
    write_csv,
)

DISTRICTS = ResolutionSpec((2020, 2020), "districts", ages=single_ages(0, 4), open_age=4)


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


def test_fold_open_age_merges_tail():
    res = ResolutionSpec((2020, 2020), "country", sexes=(),
                         ages=(99, 100, 101), open_age=None)
    t = CensusTable(res, {(2020, "AT", "-", 99): 2, (2020, "AT", "-", 100): 3,
                          (2020, "AT", "-", 101): 1}, integer=True)
    out = fold_open_age(t, 100)
    assert dict(out.items()) == {(2020, "AT", "-", 99): 2.0, (2020, "AT", "-", 100): 4.0}
    assert out.resolution.open_age == 100
    assert out.resolution.ages == (99, 100)


def test_fold_open_age_beyond_max_age_gives_empty_class():
    res = ResolutionSpec((2020, 2020), "country", sexes=(),
                         ages=(99, 100), open_age=None)
    t = CensusTable(res, {(2020, "AT", "-", 99): 2, (2020, "AT", "-", 100): 3})
    out = fold_open_age(t, 150)
    assert out.resolution.ages == (99, 100, 150)
    assert out.resolution.open_age == 150
    assert out[(2020, "AT", "-", 150)] == 0.0
    assert out.total() == t.total()


def test_fold_open_age_is_idempotent_and_preserves_totals():
    res = ResolutionSpec((2020, 2021), "federalstates", ages=single_ages(0, 9),
                         open_age=None)
    entries = {(y, "AT-1", s, a): (a + 1) * (2 if s == "m" else 3) + y % 2
               for y in (2020, 2021) for s in "mf" for a in range(10)}
    t = CensusTable(res, entries, integer=True)
    once = fold_open_age(t, 7)
    twice = fold_open_age(once, 7)
    assert once == twice
    assert once.total() == t.total()
    folded = sum(v for k, v in entries.items() if k[3] >= 7 and k[1:3] == ("AT-1", "m")
                 and k[0] == 2020)
    assert once[(2020, "AT-1", "m", 7)] == folded


def test_fold_open_age_rejects_straddling_classes():
    res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0, 3, 6), open_age=None)
    t = CensusTable(res, {(2020, "AT", "-", 3): 5})
    with pytest.raises(DataError):
        fold_open_age(t, 5)
    open_res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0, 90), open_age=90)
    t2 = CensusTable(open_res, {(2020, "AT", "-", 90): 5})
    with pytest.raises(DataError):
        fold_open_age(t2, 95)


def test_average_population_midpoints():
    res = ResolutionSpec((2020, 2021), "country", sexes=(), ages=(0,), open_age=0)
    P = CensusTable(res, {(2020, "AT", "-", 0): 100, (2021, "AT", "-", 0): 200},
                    integer=True)
    avg = average_population(P, 2020)
    assert dict(avg.items()) == {(2020, "AT", "-", 0): 150.0}
    assert avg.resolution.years == (2020, 2020)


def test_average_population_identity_and_last_year_clamp():
    res = ResolutionSpec((2020, 2021), "country", sexes=(), ages=(0,), open_age=0)
    P = CensusTable(res, {(2020, "AT", "-", 0): 7, (2021, "AT", "-", 0): 7})
    assert average_population(P, 2020)[(2020, "AT", "-", 0)] == 7.0
    # the last census year has no successor; the mean clamps to that year
    assert average_population(P, 2021)[(2021, "AT", "-", 0)] == 7.0
    with pytest.raises(DataError):
        average_population(P, 2019)


@given(st.lists(st.integers(0, 10 ** 6), min_size=10, max_size=10),
       st.lists(st.integers(0, 10 ** 6), min_size=10, max_size=10))
def test_average_population_matches_direct_recomputation(now, nxt):
    res = ResolutionSpec((2000, 2001), "federalstates", ages=single_ages(0, 4),
                         open_age=4)
    keys = [(s, a) for s in "mf" for a in range(5)]
    entries = {}
    for (s, a), v in zip(keys, now):
        entries[(2000, "AT-3", s, a)] = v
    for (s, a), v in zip(keys, nxt):
        entries[(2001, "AT-3", s, a)] = v
    avg = average_population(CensusTable(res, entries, integer=True), 2000)
    for (s, a), v0, v1 in zip(keys, now, nxt):
        assert avg[(2000, "AT-3", s, a)] == (v0 + v1) / 2


def test_merge_time_contiguous_union():
    res_a = ResolutionSpec((1962, 2001), "country", sexes=(), ages=(0,), open_age=0)
    res_b = ResolutionSpec((2002, 2024), "country", sexes=(), ages=(0,), open_age=0)
    a = CensusTable(res_a, {(y, "AT", "-", 0): 1 for y in range(1962, 2002)})
    b = CensusTable(res_b, {(y, "AT", "-", 0): 2 for y in range(2002, 2025)})
    merged = merge_time([b, a])
    assert merged.resolution.years == (1962, 2024)
    assert merged[(1980, "AT", "-", 0)] == 1.0
    assert merged[(2020, "AT", "-", 0)] == 2.0
    assert len(merged) == len(a) + len(b)


def test_merge_time_single_table_is_itself():
    res = ResolutionSpec((2000, 2001), "country", sexes=(), ages=(0,), open_age=0)
    t = CensusTable(res, {(2000, "AT", "-", 0): 5})
    assert merge_time([t]) is t


def test_merge_time_rejects_overlap_and_gap():
    mk = lambda y0, y1: CensusTable(
        ResolutionSpec((y0, y1), "country", sexes=(), ages=(0,), open_age=0),
        {(y0, "AT", "-", 0): 1})
    with pytest.raises(DataError):
        merge_time([mk(2000, 2005), mk(2005, 2010)])
    with pytest.raises(DataError):
        merge_time([mk(2000, 2005), mk(2007, 2010)])


def test_grand_total_invariant_bit_exact():
    entries = {}
    value = 1
    for r in ("10101", "10102", "10201", "20101"):
        for s in "mf":
            for a in range(6):
                entries[(2020, r, s, a)] = value
                value = (value * 7) % 1000003
    res = ResolutionSpec((2020, 2020), "municipalities", ages=single_ages(0, 5),
                         open_age=5)
    t = CensusTable(res, entries, integer=True)
    total = t.total()
    for out in (aggregate(t, coarse_level="districts"),
                aggregate(t, drop={"sex"}),
                aggregate(t, drop={"region", "sex", "age"}),
                fold_open_age(t, 3)):
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
    import censim.table as table_mod

    res = ResolutionSpec((2020, 2020), "districts", ages=(0,), open_age=None)
    path = tmp_path / "t.csv"
    write_csv(CensusTable(res, {(2020, "101", "m", 0): 5}), str(path))
    before = path.read_bytes()
    calls = []

    def failing(v):
        calls.append(v)
        if len(calls) == 2:
            raise OSError("disk full")
        return str(v)

    monkeypatch.setattr(table_mod, "_format_value", failing)
    bigger = CensusTable(res, {(2020, c, "m", 0): 1 for c in ("101", "102", "103")})
    with pytest.raises(OSError, match="disk full"):
        write_csv(bigger, str(path))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    # a failed first write leaves no file at all
    with pytest.raises(OSError):
        calls.clear()
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


def test_read_csv_level_override(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("year,region,sex,age,value\n2020,101,m,0,1\n", encoding="utf-8")
    t = read_csv(str(path), level="districts_districts")
    assert t.resolution.level == "districts_districts"


def test_od_aggregate_reductions():
    res = ResolutionSpec((2020, 2020), "districts", od=True)
    t = CensusTable(res, {
        (2020, "101", "m", "201"): 3,
        (2020, "101", "m", "301"): 5,
        (2020, "201", "m", "101"): 7,
    }, integer=True)
    outflow = aggregate(t, drop={"region2"})
    assert dict(outflow.items()) == {(2020, "101", "m", 0): 8.0, (2020, "201", "m", 0): 7.0}
    assert not outflow.resolution.od
    inflow = aggregate(t, drop={"region"})
    assert dict(inflow.items()) == {(2020, "201", "m", 0): 3.0, (2020, "301", "m", 0): 5.0,
                                    (2020, "101", "m", 0): 7.0}
    coarse = aggregate(t, coarse_level="federalstates")
    assert dict(coarse.items()) == {(2020, "AT-1", "m", "AT-2"): 3.0,
                                    (2020, "AT-1", "m", "AT-3"): 5.0,
                                    (2020, "AT-2", "m", "AT-1"): 7.0}
    assert coarse.resolution.od
    both = aggregate(t, drop={"region", "region2"})
    assert dict(both.items()) == {(2020, "AT", "m", 0): 15.0}
