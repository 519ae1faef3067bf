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
        "4d90a0f71d24516bf3a8235368f00f39a644fba909c8478ef1490c50ec2fbc5d",
    ("busy", "none", 0.37):
        "14741eadac8d98aec0cd77696e4f102e3ab0b8eeac2bbe959f25b110d3a6df0a",
    ("busy", "interregional", 1.0):
        "9353e2e6305192908eb434304f2617bafdcab3114a44c5e5c545541376ebce61",
    ("busy", "interregional", 0.37):
        "81bfb170bcf25f38489ddf943aa00f3f6a412da82aef040339110e5a14547f80",
    ("busy", "biregional", 1.0):
        "1a8480ecace0a43c5803773a19c19de2913294feb3f601f4e42bb58652934bf0",
    ("busy", "biregional", 0.37):
        "21947e0cb32cd30223541a606e37ae6fb97bb049318577ee193334647ec0d118",
    ("busy", "full", 1.0):
        "38bb15eae5dfd7db5ea81e256b87422f3c3693dba424ec68fcfb94515b3fe831",
    ("busy", "full", 0.37):
        "2fe82cdcaf97b1b72789f1345759e6a68809e5ad0b99058d65f451c6ac3bb2a8",
    ("extinct", "interregional", 1.0):
        "6066f097096993665eae914332453695f2b5e1fb6c93118df271045ee2a99309",
    ("extinct", "interregional", 0.37):
        "a4f8907c1635d4550b8efc8b5a5de90baa60f0a8bacdfde250c7da643db47a82",
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
