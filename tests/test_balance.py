import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.balance import residual_immigrants, round_half_away
from censim.errors import DataError
from censim.table import CensusTable, ResolutionSpec


def test_round_half_away():
    assert round_half_away(5.5) == 6
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4999) == 2
    assert round_half_away(0.0) == 0


def _tables(p0=100, p1=105, b=10, d=7, e=3):
    pres = ResolutionSpec((2000, 2001), "country", sexes=(), ages=(0,),
                          open_age=None)
    fres = ResolutionSpec((2000, 2000), "country", sexes=(), ages=(0,),
                          open_age=None)
    P = CensusTable(pres, {(2000, "AT", "-", 0): p0, (2001, "AT", "-", 0): p1},
                    name="P")
    B = CensusTable(fres, {(2000, "AT", "-", 0): b}, name="B")
    D = CensusTable(fres, {(2000, "AT", "-", 0): d}, name="D")
    E = CensusTable(fres, {(2000, "AT", "-", 0): e}, name="E")
    return P, B, D, E


def test_residual_immigrants_inverts_projection():
    P, B, D, E = _tables()
    I = residual_immigrants(P, B, D, E)
    assert I[(2000, "AT", "-", 0)] == 5
    assert I.integer
    # the balance closes: P(y) + B + I - D - E = P(y+1)
    assert 100 + 10 + I[(2000, "AT", "-", 0)] - 7 - 3 == 105


def test_residual_immigrants_rounds_half_away():
    P, B, D, E = _tables(p1=105, b=10, d=7, e=3.5)
    I = residual_immigrants(P, B, D, E)
    assert I[(2000, "AT", "-", 0)] == 6  # residual 5.5


def test_residual_immigrants_stationary_identity():
    P, B, D, E = _tables(p0=500, p1=500, b=4, d=9, e=2)
    I = residual_immigrants(P, B, D, E)
    assert I[(2000, "AT", "-", 0)] == 9 + 2 - 4


def test_residual_immigrants_floors_negatives():
    P, B, D, E = _tables(p1=90, b=10, d=0, e=0)
    diag = {}
    I = residual_immigrants(P, B, D, E, diagnostics=diag)
    assert I[(2000, "AT", "-", 0)] == 0
    assert diag["floored"] == 1


def test_residual_immigrants_requires_next_year():
    P, B, D, E = _tables()
    short = CensusTable(
        ResolutionSpec((2000, 2000), "country", sexes=(), ages=(0,),
                       open_age=None),
        {(2000, "AT", "-", 0): 100}, name="P")
    with pytest.raises(DataError):
        residual_immigrants(short, B, D, E)


@given(st.integers(0, 2000), st.integers(0, 300), st.integers(0, 300),
       st.integers(0, 300), st.integers(0, 300))
def test_projection_roundtrip_bound(p0, b, d, e, i_true):
    p1 = p0 + b + i_true - d - e
    if p1 < 0:
        return
    P, B, D, E = _tables(p0=p0, p1=p1, b=b, d=d, e=e)
    I = residual_immigrants(P, B, D, E)
    got = I[(2000, "AT", "-", 0)]
    assert got == i_true
    assert abs(p0 + b + got - d - e - p1) <= 0.5


# the per-cell loop residual_immigrants ran before it read whole grids

def _ref_residual_immigrants(P, B, D, E):
    years = B.resolution.years
    cells = set()
    for t in (B, D, E):
        cells.update((y, r, s) for (y, r, s, _) in t.keys())
    for (y, r, s, _) in P.keys():
        if years[0] <= y <= years[1]:
            cells.add((y, r, s))
        if years[0] <= y - 1 <= years[1]:
            cells.add((y - 1, r, s))
    floored = 0
    entries = {}
    for (y, r, s) in sorted(cells):
        residual = (P[(y + 1, r, s, 0)] - P[(y, r, s, 0)] - B[(y, r, s, 0)]
                    + E[(y, r, s, 0)] + D[(y, r, s, 0)])
        value = round_half_away(residual)
        if value < 0:
            floored += 1
            value = 0
        if value:
            entries[(y, r, s, 0)] = value
    return CensusTable(B.resolution, entries, integer=True, name="I"), floored


@pytest.mark.parametrize("seed", range(20))
def test_residual_immigrants_match_the_per_cell_loop(seed):
    rng = np.random.default_rng(seed)
    codes = ("101", "102", "201", "301", "900")
    sexes = ((), ("f",), ("m", "f"))[seed % 3]
    flat = ResolutionSpec((2000, 2002), "districts", sexes=sexes, ages=(0,),
                          open_age=None)
    pres = ResolutionSpec((2000, 2003), "districts", sexes=sexes, ages=(0,),
                          open_age=None)

    def table(res, name, scale):
        keys = [(y, r, s, 0) for y in res.year_list() for r in codes
                for s in res.sex_domain if rng.random() < 0.7]
        # quarter steps put residuals on rounding ties
        return CensusTable(res, {k: float(rng.integers(0, 4 * scale)) / 4
                                 for k in keys}, name=name)

    P, B, D, E = (table(pres, "P", 400), table(flat, "B", 40),
                  table(flat, "D", 40), table(flat, "E", 40))
    diag = {}
    got = residual_immigrants(P, B, D, E, diagnostics=diag)
    expect, floored = _ref_residual_immigrants(P, B, D, E)
    assert got == expect
    assert diag["floored"] == floored
