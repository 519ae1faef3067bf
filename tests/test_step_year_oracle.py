"""Differential test of the microsimulator's year step against the code it
replaced.

The reference below is step_year and _destinations as they stood when every
person drew all eight event uniforms of a year up front, kept verbatim,
with the SplitMix64 array helpers of that time.  The step now draws the
birth occurrence for females only and each event time only for the persons
whose occurrence draw fired; since every draw is keyed by (seed, person,
year, slot), the new state and every event table must equal the
reference's exactly.  Random states run through all four internal-migration
modes with immigrants, rates of exactly 0 and 1, and empty years.  Every
state's arrays are read-only, so a step that wrote to its input would fail.
"""

import numpy as np
import pytest

from censim.balance import round_half_away
from censim.disagg import huntington_hill
from censim.errors import DataError
from censim.simulate import (IM_MODES, S_BIRTH_T, S_BIRTH_U, S_DEATH_T,
                             S_DEATH_U, S_DEST, S_EMIG_T, S_EMIG_U, S_IE_T,
                             S_IE_U, S_NEWBORN_SEX, SEXES, ScenarioConfig,
                             SimParams, SimulationState, _census_cells,
                             _master_regions, _people, _planes, _tally,
                             step_year)
from censim.table import CensusTable, ResolutionSpec, cells

# the reference: the array helpers of censim.rng and the step as they stood
# before the step drew only the uniforms it reads

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
TO_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * _M1) & MASK
    z = ((z ^ (z >> 27)) * _M2) & MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
    return z


def stream_array(seed: int, pids: np.ndarray, year: int) -> np.ndarray:
    base = mix64(seed & MASK)
    h = mix64_array(np.uint64(base) ^ pids.astype(np.uint64))
    return mix64_array(h ^ np.uint64(year & MASK))


def draw_array(handles: np.ndarray, slot: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        counter = handles + np.uint64((((slot + 1) * GOLDEN) & MASK))
    return mix64_array(counter)


def uniform_array(handles: np.ndarray, slot: int) -> np.ndarray:
    return (draw_array(handles, slot) >> np.uint64(11)) * TO_UNIT


def ref_destinations(params: SimParams, mode: str, ii: np.ndarray | None,
                     year: int, regions: tuple, origin: np.ndarray,
                     sex: np.ndarray, age: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """Destination region index of each mover, drawn with uniforms u.

    Movers are grouped by what their weight row depends on: origin and sex,
    plus the age for the ii profile or the age class for the per-age od
    tables.  Each group gets one cumulative row and one searchsorted.
    """
    if mode == "full":
        lows = sorted(params.m_by_age)
        key = np.searchsorted(lows, age, side="right") - 1
    elif mode == "biregional":
        key = age
    else:
        key = np.zeros_like(age)
    code = (origin.astype(np.int64) * 2 + sex) * 101 + key
    order = np.argsort(code, kind="stable")
    groups, starts = np.unique(code[order], return_index=True)
    dest = np.empty(len(u), dtype=np.int32)
    stranded = []
    for g, members in zip(groups.tolist(), np.split(order, starts[1:])):
        o, rest = divmod(g, 202)
        s, k = divmod(rest, 101)
        if mode == "biregional":
            row = ii[:, s, k].copy()
        else:
            od = params.od if mode == "interregional" else params.m_by_age[lows[k]]
            row = od.grid((year,), (regions[o],), (SEXES[s],), regions)[0, 0, 0]
        row[o] = 0.0  # a move always leaves the origin
        cum = np.cumsum(row)
        if cum[-1] <= 0:
            stranded.append(members[0])
        else:
            dest[members] = np.searchsorted(cum, u[members] * cum[-1],
                                            side="right")
    if stranded:
        i = min(stranded)  # the first mover, as members ascend
        raise DataError(
            f"no internal-migration destinations for ({year}, "
            f"{regions[origin[i]]}, {SEXES[sex[i]]}, {age[i]})")
    return dest


def ref_step_year(state: SimulationState, params: SimParams,
                  config: ScenarioConfig, seed: int, planes: dict):
    """Advance the state across one calendar year.

    `planes` are the scenario's probability arrays from `_planes`.  Returns
    (new_state, events) where events maps table names to key->count Entries
    for the year just simulated.
    """
    y = state.year
    regions = state.regions
    n = len(state.pid)
    p = {name: plane[y - config.t0] for name, plane in planes.items()}

    h = stream_array(seed, state.pid, y)
    la = np.minimum(y - state.birth_year - 1, 100)
    idx = (state.region, state.sex, la)

    dies = uniform_array(h, S_DEATH_U) < p["death"][idx]
    emigrates = uniform_array(h, S_EMIG_U) < p["emig"][idx]
    births_drawn = (state.sex == 1) & (uniform_array(h, S_BIRTH_U)
                                       < p["birth"][idx])
    t_birth = uniform_array(h, S_BIRTH_T)
    if "ie" in p:
        moves_drawn = uniform_array(h, S_IE_U) < p["ie"][idx]
        t_ie = uniform_array(h, S_IE_T)
    else:
        moves_drawn = np.zeros(n, dtype=bool)
        t_ie = np.full(n, np.inf)

    td = np.where(dies, uniform_array(h, S_DEATH_T), np.inf)
    te = np.where(emigrates, uniform_array(h, S_EMIG_T), np.inf)
    terminal = np.minimum(td, te)
    is_death = dies & (td <= te)
    is_emig = emigrates & (te < td)
    gives_birth = births_drawn & (t_birth < terminal)
    moves = moves_drawn & (t_ie < terminal)

    sex = state.sex
    movers = np.flatnonzero(moves)
    origin = state.region[movers]
    dest = ref_destinations(params, config.im_mode, p.get("ii"), y, regions,
                            origin, sex[movers], la[movers],
                            uniform_array(h[movers], S_DEST))
    final_region = state.region.copy()
    final_region[movers] = dest

    events = {
        "D": _tally(y, regions, final_region[is_death], sex[is_death],
                    la[is_death]),
        "E": _tally(y, regions, final_region[is_emig], sex[is_emig],
                    la[is_emig]),
        "IE": _tally(y, regions, origin, sex[movers], la[movers]),
        "II": _tally(y, regions, dest, sex[movers], la[movers]),
        "OD": _tally(y, regions, origin, sex[movers], dest, labels=regions),
    }

    # newborns: region is the mother's location at the birth instant
    mothers = np.flatnonzero(gives_birth)
    moved_first = moves[mothers] & (t_ie[mothers] < t_birth[mothers])
    nb_region = np.where(moved_first, final_region[mothers],
                         state.region[mothers])
    u_sex = uniform_array(h[mothers], S_NEWBORN_SEX)
    nb_sex = np.where(u_sex < config.male_share, 0, 1).astype(np.int8)
    events["B"] = _tally(y, regions, nb_region, nb_sex,
                         np.zeros(len(mothers), dtype=np.int64), labels=(0,))
    nb_pid = np.arange(state.next_pid, state.next_pid + len(mothers),
                       dtype=np.uint64)

    # immigrants for the year, apportioned from the scaled profile
    at, weights = _census_cells(params.immigrants, y, regions)
    total = round_half_away(config.scale * sum(weights))
    counts = huntington_hill(total, weights) if total > 0 else [0] * len(weights)
    im_pid, im_sex, im_birth_year, im_region = _people(
        at, counts, params.immigrants.resolution.ages, y + 1,
        state.next_pid + len(mothers))
    events["I"] = _tally(y, regions, im_region, im_sex,
                         y - im_birth_year.astype(np.int64))

    # pids stay ascending: survivors, then newborns, then immigrants
    keep = ~(is_death | is_emig)
    new_state = SimulationState(
        year=y + 1, regions=regions,
        pid=np.concatenate([state.pid[keep], nb_pid, im_pid]),
        sex=np.concatenate([sex[keep], nb_sex, im_sex]),
        birth_year=np.concatenate([state.birth_year[keep],
                                   np.full(len(mothers), y, dtype=np.int32),
                                   im_birth_year]),
        region=np.concatenate([final_region[keep], nb_region, im_region]),
        next_pid=state.next_pid + len(mothers) + len(im_pid))
    return new_state, events



# random scenarios

FULL = tuple(range(101))
LEVEL = "federalstates"
REGIONS = ("AT-1", "AT-2", "AT-3")
DEST_ONLY = "AT-4"  # appears only as an od destination
T0 = 2000
YEARS = (T0, T0 + 1)


def _probabilities(rng, sexes=SEXES, scale=1.0):
    """A plane of probabilities, about a third of them exactly 0 or 1."""
    p = rng.random((len(YEARS), len(REGIONS), len(sexes), len(FULL))) * scale
    pick = rng.random(p.shape)
    p[pick < 0.2] = 0.0
    p[pick > 0.85] = 1.0
    return p


def _person_table(array, sexes=SEXES, integer=False):
    spec = ResolutionSpec(YEARS, LEVEL, sexes=sexes, ages=FULL, open_age=100)
    return CensusTable(spec, cells(YEARS, REGIONS, sexes, FULL, array),
                       integer=integer)


def _od_table(rng):
    """Flows from every region, self flows included, to one more region."""
    w = rng.random((len(YEARS), len(REGIONS), 2, len(REGIONS) + 1))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[..., -1] += 0.01  # every origin keeps a destination
    return CensusTable(ResolutionSpec(YEARS, LEVEL, od=True),
                       cells(YEARS, REGIONS, SEXES, REGIONS + (DEST_ONLY,), w))


def random_params(rng, rates=None):
    """Random tables; rates maps a plane name to a fixed probability."""
    rates = rates or {}
    shape = (len(YEARS), len(REGIONS), 2, len(FULL))

    def plane(name, sexes=SEXES, scale=1.0):
        if name in rates:
            return _person_table(np.full(shape[:2] + (len(sexes),) + shape[3:],
                                         rates[name]), sexes)
        return _person_table(_probabilities(rng, sexes, scale), sexes)

    imm = rng.random(shape) * 3.0
    imm[rng.random(shape) < 0.6] = 0.0
    ii = rng.random(shape)
    return SimParams(
        population=_person_table(np.ones(shape), integer=True),
        birth_p=plane("birth", ("f",), 0.5),
        death_p=plane("death", scale=0.3),
        emig_p=plane("emig", scale=0.3),
        immigrants=_person_table(imm),
        ie_p=plane("ie", scale=0.5),
        od=_od_table(rng),
        ii=_person_table(ii),
        m_by_age={0: _od_table(rng), 15: _od_table(rng), 50: _od_table(rng)})


def random_state(rng, year, regions, n):
    pid = np.unique(rng.integers(1, 1 << 62, n, dtype=np.uint64))
    state = SimulationState(
        year=year, regions=regions, pid=pid,
        sex=rng.integers(0, 2, len(pid)).astype(np.int8),
        birth_year=(year - 1 - rng.integers(0, 111, len(pid))).astype(np.int32),
        # nobody lives in the destination-only region
        region=rng.integers(0, len(REGIONS), len(pid)).astype(np.int32),
        next_pid=int(pid[-1]) + 1 if len(pid) else 1)
    for column in (state.pid, state.sex, state.birth_year, state.region):
        column.flags.writeable = False
    return state


def _outcome(step, state, params, config, seed, planes):
    try:
        new, events = step(state, params, config, seed, planes)
    except DataError as exc:
        return "error", str(exc)
    columns = {name: (a.dtype.str, a.tolist()) for name, a in (
        ("pid", new.pid), ("sex", new.sex), ("birth_year", new.birth_year),
        ("region", new.region))}
    return "ok", (new.year, new.regions, new.next_pid, columns,
                  {name: list(e.items()) for name, e in events.items()})


def assert_same_step(state, params, config, seed):
    regions = state.regions
    planes = _planes(config, params, regions)
    before = [a.copy() for a in (state.pid, state.sex, state.birth_year,
                                 state.region)]
    ours = _outcome(step_year, state, params, config, seed, planes)
    assert ours == _outcome(ref_step_year, state, params, config, seed, planes)
    for a, b in zip(before, (state.pid, state.sex, state.birth_year,
                             state.region)):
        np.testing.assert_array_equal(a, b)
    return ours


@pytest.mark.parametrize("im_mode", IM_MODES)
@pytest.mark.parametrize("case", range(12))
def test_step_matches_the_reference(im_mode, case):
    rng = np.random.default_rng(1000 * case + IM_MODES.index(im_mode))
    params = random_params(rng)
    regions = _master_regions(params)
    config = ScenarioConfig(t0=T0, te=T0 + 2, im_mode=im_mode,
                            scale=float(rng.uniform(0.2, 1.0)),
                            seed=int(rng.integers(0, 1 << 63)),
                            male_share=float(rng.random()))
    year = T0 + case % 2
    n = (0, 1, 5, 300, 2000)[case % 5]
    seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
    outcome = assert_same_step(random_state(rng, year, regions, n), params,
                               config, seed)
    assert outcome[0] == "ok"


@pytest.mark.parametrize("im_mode", IM_MODES)
@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_rates_of_exactly_zero_and_one(im_mode, rate):
    rng = np.random.default_rng(7)
    params = random_params(rng, {name: rate for name in
                                 ("birth", "death", "emig", "ie")})
    regions = _master_regions(params)
    config = ScenarioConfig(t0=T0, te=T0 + 2, im_mode=im_mode, seed=3)
    state = random_state(rng, T0, regions, 500)
    _, (_, _, _, columns, _) = assert_same_step(state, params, config, 11)
    survivors = [pid for pid in columns["pid"][1] if pid < state.next_pid]
    assert len(survivors) == (0 if rate else len(state.pid))


@pytest.mark.parametrize("im_mode", ["interregional", "biregional", "full"])
def test_mothers_who_move_before_giving_birth(im_mode):
    # everyone moves and gives birth and nobody leaves: a newborn lives in
    # the mother's destination exactly when her move came first
    rng = np.random.default_rng(5)
    params = random_params(rng, {"birth": 1.0, "death": 0.0, "emig": 0.0,
                                 "ie": 1.0})
    regions = _master_regions(params)
    config = ScenarioConfig(t0=T0, te=T0 + 2, im_mode=im_mode, seed=9)
    state = random_state(rng, T0, regions, 400)
    _, (_, _, _, columns, events) = assert_same_step(state, params, config, 4)
    mothers = int(np.sum(state.sex == 1))
    births = int(sum(v for _, v in events["B"]))
    assert births == mothers > 0
    pid = np.asarray(columns["pid"][1], np.uint64)
    newborn = ((pid >= np.uint64(state.next_pid))
               & (pid < np.uint64(state.next_pid + births)))
    region = np.asarray(columns["region"][1])[newborn]
    mother_region = state.region[state.sex == 1]
    assert (region != mother_region).any()  # some moved first
    assert (region == mother_region).any()  # some gave birth first


def test_a_year_that_starts_with_nobody_alive():
    rng = np.random.default_rng(2)
    params = random_params(rng)
    regions = _master_regions(params)
    for im_mode in IM_MODES:
        config = ScenarioConfig(t0=T0, te=T0 + 2, im_mode=im_mode, seed=1)
        _, (_, _, _, columns, events) = assert_same_step(
            random_state(rng, T0 + 1, regions, 0), params, config, 5)
        assert sum(v for _, v in events["I"]) == len(columns["pid"][1]) > 0
        assert not events["D"] and not events["B"]


def test_stranded_movers_fail_as_the_reference_does():
    rng = np.random.default_rng(3)
    params = random_params(rng, {"ie": 1.0})
    stranded = CensusTable(ResolutionSpec(YEARS, LEVEL, od=True),
                           {(y, "AT-1", "f", "AT-2"): 1.0 for y in YEARS})
    params = SimParams(**{**params.__dict__, "od": stranded})
    regions = _master_regions(params)
    config = ScenarioConfig(t0=T0, te=T0 + 2, im_mode="interregional", seed=1)
    outcome = assert_same_step(random_state(rng, T0, regions, 200), params,
                               config, 8)
    assert outcome[0] == "error"
