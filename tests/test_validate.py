import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.simulate import RunOutput
from censim.table import CensusTable, ResolutionSpec, cells
from censim.validate import (
    DeviationRow,
    age_band_label,
    compare,
    error_band,
    mc_mean,
    read_window,
    write_deviations,
)

FULL = tuple(range(101))


def test_error_band_examples():
    assert error_band((110, 90), (100, 100)) == (-0.10, 0.10)
    assert error_band((5, 5, 5), (5, 5, 5)) == (0.0, 0.0)
    # denominator clamps to one when the reference is empty
    assert error_band([3], [0]) == (3.0, 3.0)
    assert error_band([0.4], [0.5]) == ((0.4 - 0.5) / 1.0,) * 2


def test_error_band_rejects_bad_series():
    with pytest.raises(DataError):
        error_band([], [])
    with pytest.raises(DataError):
        error_band([1, 2], [1])


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=8),
       st.floats(0.001, 100.0))
def test_error_band_shift_moves_band_up(ref, c):
    lo0, hi0 = error_band(ref, ref)
    lo1, hi1 = error_band([y + c for y in ref], ref)
    assert lo1 >= lo0 and hi1 >= hi0


def _census(entries, years=(2000, 2000), level="federalstates", ages=FULL,
            open_age=100, integer=False):
    spec = ResolutionSpec(years, level, ages=ages, open_age=open_age)
    return CensusTable(spec, entries, integer=integer, name="P")


def _output(census_entries, years=(2000, 2001)):
    spec = ResolutionSpec(years, "federalstates", ages=FULL, open_age=100)
    span = (years[0], years[1] - 1)
    aged = ResolutionSpec(span, "federalstates", ages=FULL, open_age=100)
    birth = ResolutionSpec(span, "federalstates", ages=(0,), open_age=None)
    od = ResolutionSpec(span, "federalstates", od=True)
    empty = {}
    return RunOutput(
        census=CensusTable(spec, census_entries, integer=True, name="P"),
        births=CensusTable(birth, empty, integer=True, name="B"),
        deaths=CensusTable(aged, empty, integer=True, name="D"),
        emigrants=CensusTable(aged, empty, integer=True, name="E"),
        immigrants=CensusTable(aged, empty, integer=True, name="I"),
        internal_out=CensusTable(aged, empty, integer=True, name="IE"),
        internal_in=CensusTable(aged, empty, integer=True, name="II"),
        od=CensusTable(od, empty, integer=True, name="M"),
    )


def test_mc_mean_single_run_is_identity():
    t = _census({(2000, "AT-1", "m", 10): 4}, years=(2000, 2001), integer=True)
    assert mc_mean([t]) is t


def test_mc_mean_averages_cells_and_ignores_order():
    a = _census({(2000, "AT-1", "m", 10): 2}, years=(2000, 2001), integer=True)
    b = _census({(2000, "AT-1", "m", 10): 4, (2001, "AT-2", "f", 0): 1},
                years=(2000, 2001), integer=True)
    mean = mc_mean([a, b])
    assert mean[(2000, "AT-1", "m", 10)] == 3.0
    assert mean[(2001, "AT-2", "f", 0)] == 0.5
    swapped = mc_mean([b, a])
    assert dict(mean.items()) == dict(swapped.items())
    same = mc_mean([a, a])
    assert dict(same.items()) == dict(a.items())


# mc_mean as it stood before the integer fast path: one fsum per cell

def _ref_mc_mean(tables):
    first = tables[0]
    res = first.resolution
    codes = sorted(set().union(*(t.codes for t in tables)))
    axes = (res.year_list(), codes, res.sex_domain, codes if res.od else res.ages)
    runs = np.stack([t.grid(*axes) for t in tables])
    at = np.nonzero(runs.any(axis=0))
    mean = np.zeros(runs.shape[1:])
    mean[at] = [math.fsum(v) / len(tables) for v in runs[(slice(None),) + at].T.tolist()]
    return CensusTable(res, cells(*axes, mean), name=first.name)


def _same(a, b):
    return a == b and a.values.tobytes() == b.values.tobytes()


def _random_runs(rng, k, integer, scale=50):
    codes = ("AT-1", "AT-2", "AT-3", "AT-9")
    keys = [(y, r, s, a) for y in (2000, 2001) for r in codes
            for s in ("m", "f") for a in range(0, 101, 7)]
    runs = []
    for _ in range(k):
        picked = rng.random(len(keys)) < 0.6
        values = (rng.integers(0, scale, len(keys)) if integer
                  else rng.random(len(keys)) * scale)
        runs.append(_census({key: v.item() for key, v, p in
                             zip(keys, values, picked) if p},
                            years=(2000, 2001), integer=integer))
    return runs


@pytest.mark.parametrize("seed", range(12))
def test_mc_mean_equals_the_fsum_reference(seed):
    rng = np.random.default_rng(seed)
    runs = _random_runs(rng, 2 + seed % 4, integer=seed % 3 != 0,
                        scale=(50, 10 ** 6, 2 ** 50)[seed % 3])
    assert _same(mc_mean(runs), _ref_mc_mean(runs))


def test_mc_mean_of_fractions_keeps_fsum():
    runs = [_census({(2000, "AT-1", "m", 10): v}) for v in (0.1, 0.2, 0.3)]
    mean = mc_mean(runs)
    assert _same(mean, _ref_mc_mean(runs))
    # a float sum in run order would round differently
    assert mean[(2000, "AT-1", "m", 10)] == math.fsum((0.1, 0.2, 0.3)) / 3
    assert mean[(2000, "AT-1", "m", 10)] != (0.1 + 0.2 + 0.3) / 3


def test_mc_mean_of_integers_near_2_53_keeps_fsum():
    key = (2000, "AT-1", "m", 10)
    runs = [_census({key: v, (2000, "AT-2", "f", 0): 1}, integer=True)
            for v in (2.0 ** 53, 1, 1)]
    mean = mc_mean(runs)
    assert _same(mean, _ref_mc_mean(runs))
    assert mean[key] == (2.0 ** 53 + 2) / 3
    assert mean[key] != (2.0 ** 53 + 1 + 1) / 3  # the float sum drops both ones
    # just below 2**53 every sum is exact, whichever path takes it
    below = [_census({key: v}, integer=True) for v in (2.0 ** 53 - 3, 1, 1)]
    assert _same(mc_mean(below), _ref_mc_mean(below))
    assert mc_mean(below)[key] == (2.0 ** 53 - 1) / 3


def test_mc_mean_rejects_mismatched_resolutions():
    a = _census({(2000, "AT-1", "m", 10): 2}, years=(2000, 2001), integer=True)
    b = _census({(2000, "AT-1", "m", 10): 2}, years=(2000, 2002), integer=True)
    with pytest.raises(DataError):
        mc_mean([a, b])
    with pytest.raises(DataError):
        mc_mean([])


def test_age_band_labels():
    assert age_band_label(0) == "0-19"
    assert age_band_label(19) == "0-19"
    assert age_band_label(20) == "20-39"
    assert age_band_label(99) == "80-99"
    assert age_band_label(100) == "100+"


REF_ENTRIES = {
    (2000, "AT-1", "m", 10): 100,
    (2000, "AT-1", "f", 30): 50,
    (2000, "AT-2", "m", 100): 20,
    (2001, "AT-1", "m", 11): 90,
    (2001, "AT-1", "f", 31): 60,
    (2001, "AT-2", "m", 100): 20,
}


def test_compare_identity_is_zero_everywhere():
    ref = _census(REF_ENTRIES, years=(2000, 2001))
    rows = compare(ref, ref, groups=("total", "fed", "sex", "age20"),
                   window=(2000, 2002))
    assert rows, "expected at least one deviation row"
    for row in rows:
        assert row.e_min == 0.0 and row.e_max == 0.0
    assert {r.label for r in rows if r.group == "fed"} == {"AT-1", "AT-2"}
    assert {r.label for r in rows if r.group == "age20"} == \
        {"0-19", "20-39", "100+"}


def test_compare_uniform_inflation_shows_up_in_every_group():
    ref = _census(REF_ENTRIES, years=(2000, 2001))
    sim = _census({k: 1.01 * v for k, v in REF_ENTRIES.items()},
                  years=(2000, 2001))
    for row in compare(sim, ref, groups=("total", "fed", "sex", "age20"),
                       window=(2000, 2002)):
        assert row.e_min == pytest.approx(0.01, rel=1e-9)
        assert row.e_max == pytest.approx(0.01, rel=1e-9)


def test_compare_total_group_equals_grand_total_band():
    ref = _census(REF_ENTRIES, years=(2000, 2001))
    sim_entries = dict(REF_ENTRIES)
    sim_entries[(2000, "AT-1", "m", 10)] = 120   # +20 in 2000
    sim_entries[(2001, "AT-2", "m", 100)] = 3    # -17 in 2001
    sim = _census(sim_entries, years=(2000, 2001))
    (row,) = compare(sim, ref, groups=("total",), window=(2000, 2002))
    ref_totals = [170.0, 170.0]
    sim_totals = [190.0, 153.0]
    assert (row.e_min, row.e_max) == error_band(sim_totals, ref_totals)


def test_compare_window_end_is_exclusive():
    ref = _census(REF_ENTRIES, years=(2000, 2001))
    sim_entries = dict(REF_ENTRIES)
    sim_entries[(2001, "AT-1", "m", 11)] = 9999  # outside the window
    sim = _census(sim_entries, years=(2000, 2001))
    (row,) = compare(sim, ref, groups=("total",), window=(2000, 2001))
    assert (row.e_min, row.e_max) == (0.0, 0.0)


def test_compare_aggregates_fine_regions_to_federal_states():
    spec = ResolutionSpec((2000, 2000), "districts", ages=(0,), open_age=None)
    ref = CensusTable(spec, {(2000, "101", "m", 0): 10,
                             (2000, "102", "m", 0): 30,
                             (2000, "201", "m", 0): 5})
    sim = CensusTable(spec, {(2000, "101", "m", 0): 14,
                             (2000, "102", "m", 0): 30,
                             (2000, "201", "m", 0): 5})
    rows = {r.label: r for r in compare(sim, ref, groups=("fed",),
                                        window=(2000, 2001))}
    assert rows["AT-1"].e_max == pytest.approx(4 / 40)
    assert rows["AT-2"].e_max == 0.0


def test_compare_rejects_gaps_and_straddles():
    ref = _census(REF_ENTRIES, years=(2000, 2001))
    with pytest.raises(DataError, match="cover"):
        compare(ref, ref, window=(2000, 2003))
    with pytest.raises(DataError):
        compare(ref, ref, window=(2001, 2001))
    banded = _census({(2000, "AT-1", "m", 10): 5}, ages=(0, 10, 30),
                     open_age=30)
    with pytest.raises(DataError, match="straddles"):
        compare(banded, banded, groups=("age20",))
    with pytest.raises(DataError, match="grouping"):
        compare(ref, ref, groups=("cohort",), window=(2000, 2001))


def test_deviation_row_must_be_ordered():
    with pytest.raises(DataError):
        DeviationRow("total", "all", 0.2, 0.1)


def test_write_deviations_formats_percentages(tmp_path):
    rows = [DeviationRow("total", "all", -0.1, 0.2),
            DeviationRow("sex", "f", 0.0, 1 / 3)]
    path = tmp_path / "dev.csv"
    write_deviations(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "group,label,e_min,e_max,pct_min,pct_max"
    assert lines[1] == "total,all,-0.1,0.2,-10.00,20.00"
    assert lines[2].startswith("sex,f,0.0,0.3333333333333333,0.00,33.33")


def test_read_window():
    assert read_window("2002:2025") == (2002, 2025)
    with pytest.raises(DataError):
        read_window("2002-2025")


def test_compare_accepts_run_output():
    out = _output({(2000, "AT-1", "m", 10): 4, (2001, "AT-1", "m", 11): 4})
    ref = _census({(2000, "AT-1", "m", 10): 4, (2001, "AT-1", "m", 11): 5},
                  years=(2000, 2001))
    (row,) = compare(out, ref, groups=("total",), window=(2000, 2002))
    assert row.e_min == pytest.approx(-0.2)
    assert row.e_max == 0.0
