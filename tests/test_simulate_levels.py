"""Probability tables above the population's level.

A birth, death, emigration or internal-emigration table may sit at any level
at or above the population's: each simulated region reads the row of its
ancestor.  The differential tests check that this gives exactly the outputs
of the same tables copied onto every region first, by a broadcast kept here
as the reference.  Count tables stay at the population's level.
"""

import dataclasses

import pytest

from censim.errors import DataError
from censim.regions import parent_region
from censim.simulate import ScenarioConfig, SimParams, run
from censim.table import CensusTable, ResolutionSpec

FULL = tuple(range(101))
SEX = ("m", "f")
LEVEL = "municipalities"
REGIONS = ("10101", "10102", "10201", "20101", "20102")
ALL = REGIONS + ("30101",)  # the last is in the od tables only
T0, TE = 2000, 2003
YEARS = tuple(range(T0, TE))


def table(level, entries, years=(T0, TE - 1), sexes=SEX, integer=False,
          name="t", od=False):
    spec = (ResolutionSpec(years, level, od=True) if od else
            ResolutionSpec(years, level, sexes=sexes, ages=FULL, open_age=100))
    return CensusTable(spec, entries, integer=integer, name=name)


def at(level):
    """The codes of REGIONS' ancestors at a level, in order."""
    return tuple(dict.fromkeys(parent_region(r, LEVEL, level) for r in REGIONS))


def probabilities(level):
    """Birth, death, emigration and internal-emigration tables at a level,
    varying by year, region, sex and age."""
    codes = at(level)
    cells = [(y, c, s, a) for y in YEARS for c in codes for s in SEX
             for a in FULL]
    death = {k: min(0.01 + 0.003 * k[3] + 0.01 * codes.index(k[1]), 0.9)
             for k in cells}
    emig = {k: 0.02 + 0.01 * (k[0] - T0) + 0.005 * (k[2] == "f")
            for k in cells}
    ie = {k: (0.15 if k[3] < 60 else 0.05) + 0.02 * codes.index(k[1])
          for k in cells}
    birth = {(y, c, "f", a): 0.06 + 0.01 * i for y in YEARS
             for i, c in enumerate(codes) for a in range(16, 45)}
    return {"birth_p": table(level, birth, sexes=("f",), name="Bp"),
            "death_p": table(level, death, name="Dp"),
            "emig_p": table(level, emig, name="Ep"),
            "ie_p": table(level, ie, name="IEp")}


def od_weights(shift):
    """Flows from every region to every other, the unpopulated one included."""
    return table(LEVEL, {
        (y, r, s, r2): float((i + 1) * (j + shift) + (s == "f"))
        for y in YEARS for s in SEX
        for i, r in enumerate(ALL) for j, r2 in enumerate(ALL) if r2 != r},
        name="M", od=True)


def params(rates):
    pop = {(T0, r, s, a): (5 * i + 2 * (s == "f") + a) % 11
           for i, r in enumerate(REGIONS) for s in SEX for a in FULL}
    imm = {(y, r, s, a): 1 + i for y in YEARS for i, r in enumerate(REGIONS)
           for s in SEX for a in (0, 27, 64)}
    return SimParams(
        population=table(LEVEL, pop, years=(T0, T0), integer=True, name="P"),
        immigrants=table(LEVEL, imm, name="I"),
        od=od_weights(2),
        m_by_age={0: od_weights(1), 30: od_weights(3)},
        **rates)


def broadcast(t):
    """The reference: a table copied onto every region below it."""
    entries = {(y, r, s, a): v for (y, code, s, a), v in t.items()
               for r in ALL
               if parent_region(r, LEVEL, t.resolution.level) == code}
    return CensusTable(dataclasses.replace(t.resolution, level=LEVEL),
                       entries, name=t.name)


@pytest.mark.parametrize("level", ["country", "federalstates", "districts"])
@pytest.mark.parametrize("im_mode", ["none", "interregional", "full"])
def test_coarse_probabilities_match_their_broadcast(level, im_mode):
    coarse = probabilities(level)
    config = ScenarioConfig(t0=T0, te=TE, runs=2, im_mode=im_mode, seed=5,
                            scale=0.7)
    got = run(config, params(coarse))
    want = run(config, params({k: broadcast(t) for k, t in coarse.items()}))
    assert sum(len(o.deaths) + len(o.internal_out) for o in got) > 0
    for a, b in zip(got, want):
        for field in dataclasses.fields(a):
            assert getattr(a, field.name) == getattr(b, field.name), field.name


WHAT = {"death_p": "death probabilities", "emig_p": "emigration probabilities",
        "ie_p": "internal-emigration probabilities",
        "immigrants": "immigrants", "ii": "internal immigrants"}


@pytest.mark.parametrize("key, level, code", [
    ("death_p", "districts_districts", "101"),  # incomparable
    ("emig_p", "municipalities_districts", "10101"),  # finer
    ("ie_p", "municipalities_registrationdistricts", "10101"),
])
def test_probabilities_below_or_beside_the_population_are_rejected(
        key, level, code):
    rates = probabilities("country")
    rates[key] = table(level, {(T0, code, "m", 30): 0.1}, name=key)
    with pytest.raises(DataError,
                       match=f"{WHAT[key]} is at level {level}, .*{LEVEL}"):
        run(ScenarioConfig(t0=T0, te=TE, im_mode="interregional"),
            params(rates))


@pytest.mark.parametrize("key, im_mode", [("immigrants", "none"),
                                          ("ii", "biregional")])
def test_count_tables_above_the_population_are_rejected(key, im_mode):
    counts = table("districts", {(y, "101", s, 30): 2.0 for y in YEARS
                                 for s in SEX}, name=key)
    p = dataclasses.replace(params(probabilities("country")), **{key: counts})
    with pytest.raises(DataError,
                       match=f"{WHAT[key]} is at level districts, .*{LEVEL}"):
        run(ScenarioConfig(t0=T0, te=TE, im_mode=im_mode), p)
