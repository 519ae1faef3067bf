import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.rates import (
    death_table_alpha,
    farr_probability,
    farr_probability_model,
    invert_farr,
)
from censim.table import CensusTable, ResolutionSpec


def test_farr_probability_examples():
    assert farr_probability(0.0, 0.5) == 0.0
    assert farr_probability(0.1, 0.5) == pytest.approx(2 / 21, rel=1e-15)
    assert farr_probability(0.01, 0.923) == pytest.approx(0.01 / 1.00923, rel=1e-15)
    assert farr_probability(0.01, 0.923) == pytest.approx(0.00990854, abs=5e-9)


@given(st.floats(0, 100), st.floats(0.01, 1))
def test_farr_probability_bounds_and_monotonicity(rate, alpha):
    q = farr_probability(rate, alpha)
    assert 0 <= q <= min(rate, 1 / alpha)
    assert farr_probability(rate + 0.1, alpha) > q


def test_invert_farr_examples():
    assert invert_farr(0.0, 1000, 0.5) == 0.0
    assert invert_farr(2 / 21, 1000, 0.5) == pytest.approx(100, rel=1e-12)
    with pytest.raises(DataError):
        invert_farr(1.0, 1000, 1.0)


@given(st.floats(0, 0.9), st.floats(1, 10 ** 7), st.floats(0, 1))
def test_farr_round_trip(q, p, alpha):
    count = invert_farr(q, p, alpha)
    assert farr_probability(count / p, alpha) == pytest.approx(q, rel=1e-12, abs=1e-15)


def _stationary_tables(years=(2000, 2004), pop=1000, deaths=100):
    res = ResolutionSpec(years, "country", sexes=("m",), ages=(50,), open_age=None)
    P = CensusTable(res, {(y, "AT", "m", 50): pop for y in range(years[0], years[1] + 1)},
                    integer=True, name="P")
    D = CensusTable(res, {(y, "AT", "m", 50): deaths for y in range(years[0], years[1] + 1)},
                    integer=True, name="D")
    return P, D


def test_farr_model_stationary_closed_form():
    P, D = _stationary_tables()
    prob = farr_probability_model(D, P, D)
    for y in range(2000, 2005):
        assert prob[(y, "AT", "m", 50)] == pytest.approx(100 / 1050, rel=1e-13)
    # identical to the scalar formula applied to the single-year rate
    assert prob[(2000, "AT", "m", 50)] == pytest.approx(
        farr_probability(100 / 1000, 0.5), rel=1e-13)


def test_farr_model_zero_counts():
    P, _ = _stationary_tables()
    zero = CensusTable(P.resolution, {}, name="D")
    prob = farr_probability_model(zero, P, zero)
    assert len(prob) == 0


def test_farr_model_two_year_mean():
    res = ResolutionSpec((2000, 2002), "country", sexes=("m",), ages=(50,),
                         open_age=None)
    P = CensusTable(res, {(2000, "AT", "m", 50): 1000, (2001, "AT", "m", 50): 1200,
                          (2002, "AT", "m", 50): 1200}, name="P")
    D = CensusTable(res, {(2000, "AT", "m", 50): 100, (2001, "AT", "m", 50): 60,
                          (2002, "AT", "m", 50): 30}, name="D")
    prob = farr_probability_model(D, P, D)
    xm = {2000: 100 / (1100 + 50), 2001: 60 / (1200 + 30), 2002: 30 / (1200 + 15)}
    assert prob[(2000, "AT", "m", 50)] == pytest.approx((xm[2000] + xm[2001]) / 2, rel=1e-13)
    assert prob[(2001, "AT", "m", 50)] == pytest.approx((xm[2001] + xm[2002]) / 2, rel=1e-13)
    # the final year clamps its successor to itself
    assert prob[(2002, "AT", "m", 50)] == pytest.approx(xm[2002], rel=1e-13)

    # a census year past the counts widens the last count year's exposure
    # but still pairs its quotient with itself, not with a missing one
    longer = ResolutionSpec((2000, 2003), "country", sexes=("m",), ages=(50,),
                            open_age=None)
    P3 = CensusTable(longer, dict(P.items()) | {(2003, "AT", "m", 50): 1400},
                     name="P")
    prob = farr_probability_model(D, P3, D)
    last = 30 / (1300 + 15)
    assert prob[(2001, "AT", "m", 50)] == pytest.approx((xm[2001] + last) / 2, rel=1e-13)
    assert prob[(2002, "AT", "m", 50)] == pytest.approx(last, rel=1e-13)


def test_farr_model_clips_and_counts():
    P, _ = _stationary_tables(pop=10, deaths=0)
    D = CensusTable(P.resolution,
                    {(y, "AT", "m", 50): 100 for y in range(2000, 2005)}, name="D")
    diag = {}
    prob = farr_probability_model(D, P, D, diagnostics=diag)
    assert all(v == 1.0 for _, v in prob.items())
    assert diag["clipped"] == 5


def test_farr_model_rejects_short_exposure():
    res = ResolutionSpec((2000, 2004), "country", sexes=("m",), ages=(50,),
                         open_age=None)
    short = ResolutionSpec((2000, 2002), "country", sexes=("m",), ages=(50,),
                           open_age=None)
    D = CensusTable(res, {(2004, "AT", "m", 50): 1}, name="D")
    P_short = CensusTable(short, {(2000, "AT", "m", 50): 10}, name="P")
    with pytest.raises(DataError):
        farr_probability_model(D, P_short, D)


def test_farr_model_names_the_first_unexposed_cell():
    res = ResolutionSpec((2000, 2001), "country", sexes=("m",), ages=(50, 60),
                         open_age=None)
    P = CensusTable(res, {(y, "AT", "m", 50): 1000 for y in (2000, 2001)},
                    name="P")
    D = CensusTable(res, {(2001, "AT", "m", 60): 3, (2000, "AT", "m", 60): 2,
                          (2000, "AT", "m", 50): 10}, name="D")
    none = CensusTable(res, {}, name="Q")
    with pytest.raises(DataError,
                       match=r"D: events at \(2000, 'AT', 'm', 60\) but no exposure"):
        farr_probability_model(D, P, none)


def test_alpha_profiles():
    profile = death_table_alpha()
    assert profile(0) == 0.923
    assert profile(1) == 0.5
    with pytest.raises(DataError):
        death_table_alpha(1.5)
