import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.disagg import (_priorities, disaggregate_table, huntington_hill,
                           huntington_hill_sequences, proportional_disaggregate)
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
    # int64 totals, numpy ones too, are taken exactly up to the domain's
    # edge; past it the award loop follows float ties rather than the
    # divisor method (at 2**63 - 1 it is 171 awards off the exact 1:2
    # split), so totals there are data errors
    x = 2**48 - 1
    assert huntington_hill(x, [1.0, 1.0]) == [2**47, 2**47 - 1]
    assert huntington_hill(np.int64(x), [1.0, 2.0]) == [x // 3, 2 * (x // 3)]
    assert huntington_hill(np.uint64(x), [0.5]) == [x]
    for x in (2**53 + 1, 2**63 - 1, np.uint64(2**63 - 1)):
        with pytest.raises(DataError, match=r"an integer in 0\.\.2\*\*48 - 1"):
            huntington_hill(x, [1.0, 2.0])


def test_totals_outside_int64_are_data_errors():
    with pytest.raises(DataError, match="integer in 0..2"):
        huntington_hill(2**63, [1.0, 2.0])
    with pytest.raises(DataError, match="integer totals in 0..2"):
        huntington_hill_sequences([[1.0, 2.0]], np.array([2**63], np.uint64))


def test_integer_weights_at_the_domain_edge():
    # weights summing past the domain, such as a weight of 2**63 or
    # 2**62 + 2**62, are data errors; inside it, totals up to their sum
    # split without warnings, and no award left out has a priority above
    # one handed out
    for p in ([2.0**63, 2.0], [2.0**62, 2.0**62], [2.0**47, 2.0**47]):
        with pytest.raises(DataError, match=r"outside 0\.\.2\*\*48 - 1"):
            huntington_hill(2**48 - 1, p)
    x = 2**47
    for p, expected in (([2.0**47, 1.0], [x, 0]), ([2.0**46, 2.0**46 + 1], [x // 2 - 1, x // 2 + 1])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = huntington_hill(x, p)
        assert split == expected
        p, k = np.array(p), np.array(split)
        assert _priorities(p, k - 1)[k > 0].min() >= _priorities(p, k).max()


def test_float_priorities_tie_near_2_52_awards_past_the_edge():
    """At about 2**52 awards a float priority ties another cell's first
    award, and the larger weight takes the tie, so the award loop leaves
    the exact divisor split there.  The domain ends at 2**48, before those
    ties, so the two totals below are data errors, and at the domain's
    edge the split is the exact one.

    x = 2**52 + 1, p = [2**52, 1]: cell 0's award m < 2**52 has priority
    2**52 / sqrt(m(m+1)) > 1; at m = 2**52 - 1 the product 2**104 - 2**52 is
    exact, its root rounds to 2**52 - 0.5 and the quotient to 1 + 2**-52.
    At m = 2**52 the product 2**104 + 2**52 is exact, its root 2**52 + 0.5 -
    (a little) rounds to 2**52, so the priority is exactly 1.0, the priority
    of cell 1's first award.  Ties go to the larger weight: cell 0 takes
    all 2**52 + 1 awards, [2**52 + 1, 0], where the exact split is
    [2**52, 1].

    x = 2**53 + 2, p = [2**53, 1, 1]: cell 0's award 2**53 - 1 has the
    exact product 2**106 - 2**53, root 2**53 - 1 and priority 1 + 2**-52.
    Awards 2**53 and 2**53 + 1 both read m as the float 2**53 (2**53 + 1
    rounds to even), and 2**53 + 1.0 rounds to 2**53 too, so both have
    priority exactly 1.0 and beat the first awards of cells 1 and 2 as the
    larger weight: [2**53 + 2, 0, 0], not the exact [2**53, 1, 1].
    """
    for x, p in ((2**52 + 1, [2.0**52, 1.0]), (2**53 + 2, [2.0**53, 1.0, 1.0])):
        with pytest.raises(DataError, match=r"0\.\.2\*\*48 - 1"):
            huntington_hill(x, p)
    assert huntington_hill(2**48 - 1, [2.0**48 - 2, 1.0]) == [2**48 - 2, 1]


def test_disaggregate_table_names_a_cell_outside_int64():
    big = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 1e19}, integer=True, name="P")
    with pytest.raises(DataError, match=r"P: value 1e\+19 at \(2020, 'AT-1', '-', 0\) "
                                        r"is outside 0\.\.2\*\*48 - 1"):
        disaggregate_table(big, _mun_dist(), ("year",), MUN_TOTAL, "huntington_hill")
    # the first failing cell in key order names its first failure: AT-2 has
    # no target keys either
    for cells, named in (({"AT-1": 1e19, "AT-2": 3}, "AT-1"),
                         ({"AT-1": 3, "AT-2": 1e19}, "AT-2")):
        source = CensusTable(FS_TOTAL, {(2020, r, "-", 0): v for r, v in cells.items()},
                             integer=True, name="P")
        with pytest.raises(DataError, match=f"'{named}', '-', 0\\) is outside 0\\.\\.2"):
            disaggregate_table(source, _mun_dist(), ("year",), MUN_TOTAL,
                               "huntington_hill")


def test_domain_edge_is_2_48():
    # fractional weights split by the window alone at the edge
    x = 2**48 - 1
    split = huntington_hill(x, [0.5, 1.5])
    assert sum(split) == x and abs(split[0] - x / 4) <= 1
    below = huntington_hill(x - 1, [0.5, 1.5])
    assert sum(below) == x - 1 and all(a <= b for a, b in zip(below, split))
    with pytest.raises(DataError, match=r"cannot split 281474976710656: a total is "
                                        r"an integer in 0\.\.2\*\*48 - 1"):
        huntington_hill(2**48, [1.0, 2.0])
    assert huntington_hill(5, [2.0**47, 2.0**47 - 1]) == [3, 2]
    with pytest.raises(DataError, match=r"weights sum to 281474976710656\.0, "
                                        r"outside 0\.\.2\*\*48 - 1"):
        huntington_hill(5, [2.0**47, 2.0**47])


def test_splits_reject_the_domain_edge_before_splitting(monkeypatch):
    # a total past the domain, or a row whose weights sum past it, raises
    # before any row is ranked
    import censim.disagg as disagg

    monkeypatch.setattr(disagg, "_window", lambda *args: pytest.fail("ranked"))
    with pytest.raises(DataError, match=r"integer totals in 0\.\.2\*\*48 - 1"):
        huntington_hill_sequences([[1.0, 2.0]] * 2, np.array([3, 2**48]))
    with pytest.raises(DataError, match=r"weights sum to 281474976710656\.0"):
        huntington_hill_sequences([[1.0, 2.0], [2.0**47, 2.0**47]], np.array([3, 3]))


@pytest.mark.parametrize("bad", [
    [1.0, -2.0, 3.0], [1.0, math.nan, 3.0], [1.0, math.inf, 3.0], [0.0, 0.0, 0.0],
    [1.0, 2.0**-1000, 3.0], [2.0**47, 2.0**47, 0.0], [1e308, 1e308, 1e308],
    [2.0**48 - 1, 0.6, 0.6], [],
])
def test_splits_name_the_first_bad_row_as_its_own_check_does(bad):
    # the whole-matrix screen passes every good row; a bad row in the middle
    # raises the message its own check gives, ahead of a later bad row
    with pytest.raises(DataError) as own:
        huntington_hill(1, bad)
    n = len(bad)
    p = [[1.0 + i] * n for i in range(3)] + [bad] + [[-1.0] * n, [2.0] * n]
    with pytest.raises(DataError, match=f"^{re.escape(str(own.value))}$"):
        huntington_hill_sequences(p, np.array([1, 2, 0, 1, 1, 3]))


def test_disaggregate_table_names_a_cell_at_the_domain_edge():
    at_edge = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 2**48 - 1}, integer=True)
    out = disaggregate_table(at_edge, _mun_dist(), ("year",), MUN_TOTAL, "huntington_hill")
    k = (2**48 - 1) // 3
    assert dict(out.items()) == {(2020, "10101", "-", 0): k, (2020, "10102", "-", 0): 2 * k}
    # a value of 2**48 in the first failing cell in key order; AT-2 has no
    # target keys, and its value is named first
    for cells, named in (({"AT-1": 2**48, "AT-2": 3}, "AT-1"),
                         ({"AT-1": 3, "AT-2": 2**48}, "AT-2")):
        source = CensusTable(FS_TOTAL, {(2020, r, "-", 0): v for r, v in cells.items()},
                             integer=True, name="P")
        with pytest.raises(DataError, match=f"P: value 281474976710656.0 at \\(2020, "
                                            f"'{named}', '-', 0\\) is outside 0\\.\\.2"):
            disaggregate_table(source, _mun_dist(), ("year",), MUN_TOTAL,
                               "huntington_hill")
    # a fiber whose weights sum to 2**48, after one that splits
    source = CensusTable(FS_TOTAL, {(2020, "AT-1", "-", 0): 3, (2020, "AT-2", "-", 0): 3},
                         integer=True, name="P")
    dist = CensusTable(MUN_TOTAL, {(2020, "10101", "-", 0): 1.0,
                                   (2020, "20101", "-", 0): 2.0**47,
                                   (2020, "20102", "-", 0): 2.0**47})
    with pytest.raises(DataError, match=r"P: weights under cell \(2020, 'AT-2', '-', 0\) "
                                        r"sum to 281474976710656\.0, outside 0\.\.2\*\*48 - 1"):
        disaggregate_table(source, dist, ("year",), MUN_TOTAL, "huntington_hill")
    # the proportional shares have no such bound
    out = disaggregate_table(source, dist, ("year",), MUN_TOTAL, "proportional")
    assert out[(2020, "20101", "-", 0)] == 1.5


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


# weights on the domain: 0, or from the floor 2**-900 up
@given(st.integers(0, 10 ** 6),
       st.lists(st.just(0.0) | st.floats(2.0**-900, 100), min_size=1,
                max_size=40).filter(lambda p: sum(p) > 0))
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
