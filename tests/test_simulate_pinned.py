"""Pinned outputs of the microsimulator.

Every table of every run is written with `write_csv` and hashed, so a change
to the draws, to the order they are used in or to the tallies changes a
digest.  The scenarios cover all four internal-migration modes,
scale 1 and a scale below 1, two runs, four years, immigrants, births, pure
destination regions, self flows that must be ignored, and a year that starts
with nobody alive.
"""

import dataclasses
import hashlib

import pytest

from censim.errors import DataError
from censim.simulate import ScenarioConfig, SimParams, run
from censim.table import CensusTable, ResolutionSpec, write_csv

FULL = tuple(range(101))
LEVEL = "federalstates"
REGIONS = ("AT-1", "AT-2", "AT-3", "AT-4")
DEST_ONLY = "AT-5"  # appears only as an od destination
T0, TE = 2000, 2004
YEARS = tuple(range(T0, TE))
SEX = ("m", "f")


def person_table(entries, years=(T0, TE - 1), sexes=SEX, integer=False,
                 name="t"):
    spec = ResolutionSpec(years, LEVEL, sexes=sexes, ages=FULL, open_age=100)
    return CensusTable(spec, entries, integer=integer, name=name)


def od_table(entries, name="M"):
    return CensusTable(ResolutionSpec((T0, TE - 1), LEVEL, od=True), entries,
                       name=name)


def od_weights(shift):
    """Flows between every ordered pair, self flows included."""
    return od_table({
        (y, r, s, r2): float((i + 1) * (j + shift) + (s == "f"))
        for y in YEARS for s in SEX
        for i, r in enumerate(REGIONS)
        for j, r2 in enumerate(REGIONS + (DEST_ONLY,))})


def busy_params():
    pop = {(T0, r, s, a): (7 * i + 3 * (s == "f") + a) % 13
           for i, r in enumerate(REGIONS) for s in SEX for a in FULL}
    cells = [(y, r, s, a) for y in YEARS for r in REGIONS for s in SEX
             for a in FULL]
    death = {k: min(0.02 + 0.004 * k[3], 0.9) for k in cells}
    emig = {k: 0.03 + 0.01 * REGIONS.index(k[1]) for k in cells}
    ie = {k: 0.12 if k[3] < 60 else 0.05 for k in cells}
    ii = {k: float(1 + (REGIONS.index(k[1]) * 5 + k[3]) % 7) for k in cells}
    birth = {(y, r, "f", a): 0.09 for y in YEARS for r in REGIONS
             for a in range(16, 45)}
    imm = {(y, r, s, a): 2 + i + (y - T0)
           for y in YEARS for i, r in enumerate(REGIONS) for s in SEX
           for a in (0, 19, 33, 71)}
    return SimParams(
        population=person_table(pop, years=(T0, T0), integer=True, name="P"),
        birth_p=person_table(birth, sexes=("f",), name="Bp"),
        death_p=person_table(death, name="Dp"),
        emig_p=person_table(emig, name="Ep"),
        immigrants=person_table(imm, name="I"),
        ie_p=person_table(ie, name="IEp"),
        od=od_weights(2),
        ii=person_table(ii, name="II"),
        m_by_age={0: od_weights(1), 15: od_weights(3), 30: od_weights(2),
                  65: od_weights(5)})


def extinct_params():
    """Everybody dies in the first year; immigrants repopulate from 2001."""
    pop = {(T0, "AT-1", "f", 30): 20, (T0, "AT-2", "m", 60): 10}
    cells = [(y, r, s, a) for y in YEARS for r in REGIONS for s in SEX
             for a in FULL]
    death = {k: 1.0 if k[0] == T0 else 0.05 for k in cells}
    imm = {(y, r, s, a): 5 for y in YEARS[1:] for r in ("AT-1", "AT-3")
           for s in SEX for a in (25, 31)}
    birth = {(y, r, "f", a): 0.4 for y in YEARS[1:] for r in REGIONS
             for a in range(20, 40)}
    return SimParams(
        population=person_table(pop, years=(T0, T0), integer=True, name="P"),
        birth_p=person_table(birth, sexes=("f",), name="Bp"),
        death_p=person_table(death, name="Dp"),
        emig_p=person_table({}, name="Ep"),
        immigrants=person_table(imm, name="I"),
        ie_p=person_table({k: 0.3 for k in cells}, name="IEp"),
        od=od_weights(2))


def digest(outputs, tmp_path):
    h = hashlib.sha256()
    for k, out in enumerate(outputs):
        for field in dataclasses.fields(out):
            path = tmp_path / f"run{k}_{field.name}.csv"
            write_csv(getattr(out, field.name), str(path))
            h.update(f"{k}:{field.name}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


PINNED = {
    ("busy", "none", 1.0):
        "5f63f160974b998873296b9c8257024ad88e6485741ab8f88391c4516914e916",
    ("busy", "none", 0.37):
        "34e9343dfd6753e3597f7d42d02a840761043e192c04e9383670c42b342e3e74",
    ("busy", "interregional", 1.0):
        "738f3335ce28ad8d81faa1a12847124b6e46b52ceccf0adb4c51ca381147c51b",
    ("busy", "interregional", 0.37):
        "5f9f57dd50c2a2cd566ce630ed060b7542075ea111df89c044a79d3ec1c28245",
    ("busy", "biregional", 1.0):
        "1e5995fc8a7f684223f135b3e1e5b2bab4c6bdbffa2e9717cb28484214849eeb",
    ("busy", "biregional", 0.37):
        "01054355933d82599d8ec2c9700c30049623bd4e88966373e12c96f12d1ac49b",
    ("busy", "full", 1.0):
        "d9c5562375341d4894373003c576e2dd2f865fb50a1d88f1ef1fa76f770026a3",
    ("busy", "full", 0.37):
        "e19cab3cfaf683da6a42cfff8cc4b23cbfce0f0883e4a06218d1652f4baa7955",
    ("extinct", "interregional", 1.0):
        "5b57c45e5991040d06b7d239c551fda750ad3768ca741c3889bbe9df6049f892",
    ("extinct", "interregional", 0.37):
        "75559691f6a9b98eabed54e468d4dcacf777475958d725a9f54a3785b6fce5ec",
}

PARAMS = {"busy": busy_params, "extinct": extinct_params}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outputs_match_pinned_digest(case, tmp_path):
    scenario, im_mode, scale = case
    config = ScenarioConfig(t0=T0, te=TE, scale=scale, runs=2,
                            im_mode=im_mode, seed=20261)
    outputs = run(config, PARAMS[scenario]())
    if scenario == "extinct":
        census = outputs[0].census
        assert sum(v for key, v in census.items() if key[0] == T0 + 1) == 0
        assert outputs[0].births.total() > 0
    assert digest(outputs, tmp_path) == PINNED[case]


def stranded_params(im_mode):
    """Movers in three groups; only the females of AT-1 have destinations."""
    pop = {(T0, "AT-1", "f", 20): 4, (T0, "AT-1", "m", 30): 2,
           (T0, "AT-1", "m", 50): 3, (T0, "AT-2", "m", 40): 3}
    ie = {(T0, r, s, a): 0.0 if a == 30 else 1.0
          for (_, r, s, a) in pop}
    route = {(T0, "AT-1", "f", "AT-2"): 1.0}
    years = (T0, T0)

    def od():
        return CensusTable(ResolutionSpec(years, LEVEL, od=True), route)

    return SimParams(
        population=person_table(pop, years=years, integer=True, name="P"),
        birth_p=person_table({}, years=years, sexes=("f",), name="Bp"),
        death_p=person_table({}, years=years, name="Dp"),
        emig_p=person_table({}, years=years, name="Ep"),
        immigrants=person_table({}, years=years, name="I"),
        ie_p=person_table(ie, years=years, name="IEp"),
        od=od() if im_mode == "interregional" else None,
        ii=(person_table({(T0, "AT-2", "f", 20): 1.0}, years=years, name="II")
            if im_mode == "biregional" else None),
        m_by_age={0: od()} if im_mode == "full" else None)


@pytest.mark.parametrize("im_mode", ["interregional", "biregional", "full"])
def test_stranded_movers_name_the_first_mover(im_mode):
    # the message names the lowest-index mover in a group without
    # destinations, with that mover's own completed age
    config = ScenarioConfig(t0=T0, te=T0 + 1, im_mode=im_mode)
    with pytest.raises(DataError) as err:
        run(config, stranded_params(im_mode))
    assert str(err.value) == \
        "no internal-migration destinations for (2000, AT-1, m, 50)"
