import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.disagg import (disaggregate_table, huntington_hill, huntington_hill_splits,
                           proportional_disaggregate)
from censim.errors import DataError
from censim.regions import RegionManifest
from censim.table import CensusTable, ResolutionSpec, aggregate


def test_proportional_forced_shares():
    assert proportional_disaggregate(10, (1, 3)) == [2.5, 7.5]
    assert proportional_disaggregate(0, (5, 7)) == [0.0, 0.0]
    assert proportional_disaggregate(7, (2, 2, 3)) == [2.0, 2.0, 3.0]


def test_proportional_rejects_bad_weights():
    with pytest.raises(DataError):
        proportional_disaggregate(10, ())
    with pytest.raises(DataError):
        proportional_disaggregate(10, (0, 0))
    with pytest.raises(DataError):
        proportional_disaggregate(10, (1, -2))
    with pytest.raises(DataError):
        proportional_disaggregate(-1, (1, 2))


@given(st.integers(0, 10 ** 6),
       st.lists(st.floats(0, 1e6), min_size=1, max_size=8).filter(lambda p: sum(p) > 0))
def test_proportional_conserves_total(x, p):
    out = proportional_disaggregate(x, p)
    assert abs(sum(out) - x) <= 1e-9 * max(1.0, x)


def test_huntington_hill_reference_split():
    assert huntington_hill(10, (2, 3)) == [4, 6]


def test_huntington_hill_zero_and_hand_trace():
    assert huntington_hill(0, (5, 7)) == [0, 0]
    # 3 = 1*(1+1) + 1; the leftover draw ties at priority 1 and the lower
    # index wins
    assert huntington_hill(3, (1, 1)) == [2, 1]


def test_huntington_hill_zero_weights_get_nothing():
    assert huntington_hill(9, (0, 2, 0, 1)) == [0, 6, 0, 3]


def test_huntington_hill_rejects_bad_input():
    with pytest.raises(DataError):
        huntington_hill(2.5, (1, 2))
    with pytest.raises(DataError):
        huntington_hill(-1, (1, 2))
    with pytest.raises(DataError):
        huntington_hill(3, (0.0, 0.0))


def test_huntington_hill_takes_int64_totals_exactly():
    # 2**53 + 1 is not a float: its last award goes to the first of equals
    assert huntington_hill(2**53 + 1, [1.0, 1.0]) == [2**52 + 1, 2**52]
    x = 2**63 - 1
    split = huntington_hill(x, [0.5, 1.5])
    assert sum(split) == x
    assert split[0] == pytest.approx(x / 4, rel=1e-15)
    assert huntington_hill(x, [0.5]) == [x]
    assert huntington_hill(np.uint64(x), [1.0, 2.0]) == [x // 3, 2 * (x // 3) + 1]


def test_totals_outside_int64_are_data_errors():
    with pytest.raises(DataError, match="integer in 0..2"):
        huntington_hill(2**63, [1.0, 2.0])
    with pytest.raises(DataError, match="integer totals in 0..2"):
        huntington_hill_splits(np.array([2**63], np.uint64), [1.0, 2.0])


def test_disaggregate_table_names_a_cell_outside_int64():
    big = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 1e19}, integer=True, name="P")
    with pytest.raises(DataError, match=r"P: value 1e\+19 at \(2020, 'AT-1', '-', 0\) "
                                        "is outside int64"):
        disaggregate_table(big, _mun_dist(), ("year",), MUN_TOTAL, "huntington_hill")
    # the first failing cell in key order names its first failure: AT-2 has
    # no target keys either
    for cells, named in (({"AT-1": 1e19, "AT-2": 3}, "AT-1"),
                         ({"AT-1": 3, "AT-2": 1e19}, "AT-2")):
        source = CensusTable(FS_TOTAL, {(2020, r, "-", 0): v for r, v in cells.items()},
                             integer=True, name="P")
        with pytest.raises(DataError, match=f"'{named}', '-', 0\\) is outside int64"):
            disaggregate_table(source, _mun_dist(), ("year",), MUN_TOTAL,
                               "huntington_hill")


def test_weight_sum_overflow_is_a_data_error():
    with pytest.raises(DataError, match="overflow"):
        huntington_hill(3, [1e308, 1e308])
    with pytest.raises(DataError, match="overflow"):
        proportional_disaggregate(3.0, [1e308, 1e308])


def test_huntington_hill_scale_equivariance():
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 6)
        p = [rng.randint(0, 9) for _ in range(n)]
        if sum(p) == 0:
            p[0] = 3
        k = rng.randint(1, 10)
        assert huntington_hill(k * sum(p), p) == [k * v for v in p], (k, p)


def test_huntington_hill_house_monotone():
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(2, 6)
        if trial % 2:
            p = [rng.randint(0, 20) for _ in range(n)]
        else:
            p = [round(rng.uniform(0, 10), 3) for _ in range(n)]
        if sum(p) == 0:
            p[0] = 1
        x = rng.randint(0, 60)
        lo = huntington_hill(x, p)
        hi = huntington_hill(x + 1, p)
        assert all(b >= a for a, b in zip(lo, hi)), (x, p, lo, hi)
        assert sum(hi) - sum(lo) == 1


def test_huntington_hill_house_monotone_large_houses():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 40)
        if trial % 2:
            p = [rng.randint(0, 500) for _ in range(n)]
        else:
            p = [rng.uniform(0, 10) for _ in range(n)]
        if sum(p) == 0:
            p[0] = 1
        x = rng.randint(50_000, 150_000)
        lo = huntington_hill(x, p)
        hi = huntington_hill(x + 1, p)
        assert all(b >= a for a, b in zip(lo, hi)), (x, p)
        assert sum(hi) - sum(lo) == 1


@given(st.integers(0, 10 ** 6),
       st.lists(st.floats(0, 100), min_size=1, max_size=40).filter(lambda p: sum(p) > 0))
def test_huntington_hill_sums_exactly(x, p):
    out = huntington_hill(x, p)
    assert sum(out) == x
    assert all(v >= 0 for v in out)
    assert [v for v, w in zip(out, p) if w == 0] == [0] * sum(1 for w in p if w == 0)


FS_TOTAL = ResolutionSpec((2020, 2020), "federalstates", sexes=(), ages=(0,), open_age=0)
MUN_TOTAL = ResolutionSpec((2020, 2020), "municipalities", sexes=(), ages=(0,), open_age=0)


def _fs_source(value=12):
    return CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): value}, integer=True)


def _mun_dist(a=1, b=2):
    return CensusTable(MUN_TOTAL, {(2020, "10101", "-", 0): a, (2020, "10102", "-", 0): b})


def test_disaggregate_table_proportional_example():
    out = disaggregate_table(_fs_source(), _mun_dist(), ("year",), MUN_TOTAL,
                             "proportional")
    assert dict(out.items()) == {(2020, "10101", "-", 0): 4.0, (2020, "10102", "-", 0): 8.0}


def test_disaggregate_table_huntington_hill_example():
    out = disaggregate_table(_fs_source(), _mun_dist(), ("year",), MUN_TOTAL,
                             "huntington_hill")
    assert dict(out.items()) == {(2020, "10101", "-", 0): 4.0, (2020, "10102", "-", 0): 8.0}
    assert out.integer


def test_disaggregate_table_reaggregation_recovers_source():
    rng = random.Random(5)
    fine_res = ResolutionSpec((2020, 2021), "municipalities", ages=tuple(range(4)),
                              open_age=3)
    entries = {}
    for y in (2020, 2021):
        for r in ("10101", "10102", "10201", "20101"):
            for s in "mf":
                for a in range(4):
                    entries[(y, r, s, a)] = rng.randint(0, 50)
    fine = CensusTable(fine_res, entries, integer=True)
    coarse = aggregate(fine, coarse_level="federalstates")
    back = disaggregate_table(coarse, fine, ("year", "sex", "age"), fine_res,
                              "huntington_hill")
    # the distribution itself satisfies the coarse totals, so the integer
    # split must reproduce it bit for bit
    assert dict(back.items()) == dict(fine.items())
    prop = disaggregate_table(coarse, fine, ("year", "sex", "age"), fine_res,
                              "proportional")
    re_agg = aggregate(prop, coarse_level="federalstates")
    for key, v in coarse.items():
        assert re_agg[key] == pytest.approx(v, rel=1e-9)


def test_disaggregate_table_projection_rule():
    # source: one sexless national total for 2020, no age axis
    src_res = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0,), open_age=0)
    source = CensusTable(src_res, {(2020, "AT", "-", 0): 140}, integer=True)
    # distribution: a single older year, sexed, banded ages, federalstates
    dist_res = ResolutionSpec((2019, 2019), "federalstates", ages=(0, 2), open_age=None)
    dist = CensusTable(dist_res, {
        (2019, "AT-1", "m", 0): 4, (2019, "AT-1", "m", 2): 6,
        (2019, "AT-1", "f", 0): 3, (2019, "AT-1", "f", 2): 1,
    })
    # target: federalstates, sexed, single ages 0..2
    target = ResolutionSpec((2020, 2020), "federalstates",
                            ages=tuple(range(3)), open_age=None)
    out = disaggregate_table(source, dist, ("region", "sex", "age"), target,
                             "proportional")
    # weights project single ages 0,1 onto band [0,2) and age 2 onto [2,3):
    # m:(4,4,6) f:(3,3,1), total 21, scaled to 140/21
    assert out[(2020, "AT-1", "m", 0)] == pytest.approx(140 * 4 / 21)
    assert out[(2020, "AT-1", "m", 1)] == pytest.approx(140 * 4 / 21)
    assert out[(2020, "AT-1", "m", 2)] == pytest.approx(140 * 6 / 21)
    assert out[(2020, "AT-1", "f", 1)] == pytest.approx(140 * 3 / 21)
    assert out[(2020, "AT-1", "f", 2)] == pytest.approx(140 * 1 / 21)
    assert sum(v for _, v in out.items()) == pytest.approx(140)


def test_disaggregate_table_zero_fiber_error_names_cell():
    src = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 5}, integer=True)
    dist = CensusTable(MUN_TOTAL, {(2020, "10101", "-", 0): 0.0,
                                   (2020, "10102", "-", 0): 0.0,
                                   (2020, "10103", "-", 0): 1.0})
    manifest = RegionManifest({"municipalities": ("10101", "10102")})
    with pytest.raises(DataError) as err:
        disaggregate_table(src, dist, ("year",), MUN_TOTAL, "proportional",
                           regions=manifest)
    assert "AT-1" in str(err.value)
    out = disaggregate_table(src, dist, ("year",), MUN_TOTAL, "proportional",
                             regions=manifest, uniform_fallback=True)
    assert out[(2020, "10101", "-", 0)] == 2.5
    assert out[(2020, "10102", "-", 0)] == 2.5


def test_disaggregate_table_zero_source_cells_are_skipped():
    src = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 0}, integer=True)
    dist = CensusTable(MUN_TOTAL, {(2020, "10101", "-", 0): 0.0})
    out = disaggregate_table(src, dist, ("year",), MUN_TOTAL, "proportional")
    assert len(out) == 0


def test_disaggregate_table_validation_errors():
    src = _fs_source()
    dist = _mun_dist()
    coarse_target = ResolutionSpec((2020, 2020), "country", sexes=(), ages=(0,),
                                   open_age=0)
    with pytest.raises(DataError):
        disaggregate_table(src, dist, ("year",), coarse_target, "proportional")
    with pytest.raises(DataError):
        disaggregate_table(src, dist, ("year",), MUN_TOTAL, "midpoint")
    with pytest.raises(DataError):
        disaggregate_table(src, dist, ("year", "epoch"), MUN_TOTAL, "proportional")
    shifted = ResolutionSpec((2021, 2021), "municipalities", sexes=(), ages=(0,),
                             open_age=0)
    with pytest.raises(DataError):
        disaggregate_table(src, dist, ("year",), shifted, "proportional")
    frac = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 2.5})
    with pytest.raises(DataError):
        disaggregate_table(frac, dist, ("year",), MUN_TOTAL, "huntington_hill")


def test_disaggregate_table_needs_manifest_for_deep_refinement():
    # distribution at federalstates cannot name municipalities on its own
    src = _fs_source()
    dist_res = ResolutionSpec((2020, 2020), "federalstates", sexes=(), ages=(0,),
                              open_age=0)
    dist = CensusTable(dist_res, {(2020, "AT-1", "-", 0): 1.0})
    with pytest.raises(DataError):
        disaggregate_table(src, dist, ("year",), MUN_TOTAL, "proportional")
    manifest = RegionManifest({"municipalities": ("10101", "10202")})
    out = disaggregate_table(src, dist, ("year",), MUN_TOTAL, "proportional",
                             regions=manifest)
    assert out[(2020, "10101", "-", 0)] == 6.0
    assert out[(2020, "10202", "-", 0)] == 6.0


def test_disaggregate_table_is_deterministic():
    src = _fs_source(101)
    dist = _mun_dist(3, 7)
    runs = [dict(disaggregate_table(src, dist, ("year",), MUN_TOTAL,
                                    "huntington_hill").items())
            for _ in range(2)]
    assert runs[0] == runs[1]
