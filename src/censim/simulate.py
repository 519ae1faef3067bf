"""Stochastic cohort microsimulator.

People are stored as parallel numpy arrays and advanced one calendar year at
a time.  A person counted with completed age a at the census on Jan 1 faces
the probability-table row for age a during that year; newborns and
immigrants join at the end of the year they arrive in and face no events
until the next year.  Every random decision comes from a fixed slot of a
counter-based SplitMix64 substream keyed by (run seed, person id, year), so
results are reproducible across platforms and insensitive to processing
order.

Events within a person-year: death, emigration, birth (females only) and
internal migration each get an occurrence draw, and an event that occurs
gets a uniform time in the year from a slot of its own.  Only the draws a
person-year reads are made: the birth occurrence for females, each event
time for the persons whose occurrence draw fired.  As every draw is keyed
by its slot, skipping the unread ones changes none of the numbers that are
read.  Each occurrence draw yields an index set, and times are compared
only inside those sets.  The earliest terminal event (death or emigration,
death winning exact ties) ends the year; it is kept in one full-length
array, inf for whoever faces neither.  A birth or internal move happens
only if it falls strictly before that.  Deaths and emigrations are
attributed to the region the person occupies at the event time.

All runs of a scenario start from one materialized population, which draws
no random numbers; steps only read a state's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .balance import round_half_away
from .disagg import huntington_hill
from .errors import DataError
from .regions import coarser_or_equal, parent_region
from .rng import stream_array, uniform_array
from .table import FULL_AGES, CensusTable, Entries, ResolutionSpec, SEXES, cells

IM_MODES = ("none", "interregional", "biregional", "full")

# substream slots, one per decision in a person-year
S_DEATH_U, S_DEATH_T = 0, 1
S_EMIG_U, S_EMIG_T = 2, 3
S_BIRTH_U, S_BIRTH_T = 4, 5
S_IE_U, S_IE_T = 6, 7
S_DEST = 8
S_NEWBORN_SEX = 9

MALE_SHARE = 0.513234  # long-run share of male newborns

EVENT_NAMES = ("B", "D", "E", "I", "IE", "II", "OD")


@dataclass(frozen=True)
class ScenarioConfig:
    t0: int
    te: int
    scale: float = 1.0
    runs: int = 1
    im_mode: str = "none"
    seed: int = 0
    male_share: float = MALE_SHARE

    def __post_init__(self):
        if self.t0 >= self.te:
            raise DataError(f"start year {self.t0} must precede end year {self.te}")
        if not 0 < self.scale <= 1:
            raise DataError(f"scale must lie in (0,1], got {self.scale}")
        if self.runs < 1:
            raise DataError("need at least one run")
        if self.im_mode not in IM_MODES:
            raise DataError(f"unknown im_mode {self.im_mode!r}, expected one of {IM_MODES}")
        if not 0 <= self.male_share <= 1:
            raise DataError("male share must be a probability")


@dataclass(frozen=True)
class SimParams:
    """Loaded parameter tables for one scenario.

    population: integer census covering the start year.
    birth_p/death_p/emig_p: annual event probabilities by (year, region,
    sex, age); birth probabilities apply to females only.
    immigrants: expected external arrivals by (year, region, sex, age).
    ie_p: internal-emigration probabilities, required unless im_mode is none.
    od / ii / m_by_age: destination sources for the interregional,
    biregional and full modes; m_by_age maps an age-class lower bound to an
    origin-destination table, and od is the one-class flow table of
    interregional mode, read as m_by_age = {0: od}.  A probability table may
    be at any level at or above the population's; count tables are at the
    population's level.
    """

    population: CensusTable
    birth_p: CensusTable
    death_p: CensusTable
    emig_p: CensusTable
    immigrants: CensusTable
    ie_p: CensusTable | None = None
    od: CensusTable | None = None
    ii: CensusTable | None = None
    m_by_age: dict | None = None


@dataclass
class SimulationState:
    year: int
    regions: tuple
    pid: np.ndarray
    sex: np.ndarray          # 0 = m, 1 = f
    birth_year: np.ndarray
    region: np.ndarray       # index into regions
    next_pid: int


@dataclass(frozen=True)
class RunOutput:
    census: CensusTable
    births: CensusTable
    deaths: CensusTable
    emigrants: CensusTable
    immigrants: CensusTable
    internal_out: CensusTable
    internal_in: CensusTable
    od: CensusTable

    def __getattribute__(self, attr: str):
        # a table given as a partial (run's event tables) is built when first read
        value = object.__getattribute__(self, attr)
        if isinstance(value, partial):
            object.__setattr__(self, attr, value := value())
        return value


def _require(cond: bool, message: str):
    if not cond:
        raise DataError(message)


def _check_person_table(t: CensusTable, what: str, level: str, years: tuple,
                        probability: bool, sexes=SEXES):
    _require(not t.resolution.od, f"{what} must be a plain table")
    # a probability holds below its region; a count copied would multiply
    at = t.resolution.level
    _require(coarser_or_equal(at, level) if probability else at == level,
             f"{what} is at level {at}, expected "
             f"{'at or above ' if probability else ''}the population's level {level}")
    _require(t.resolution.ages == FULL_AGES and t.resolution.open_age == 100,
             f"{what} must carry single ages 0..100+")
    for s in sexes:
        _require(s in t.resolution.sex_domain, f"{what} lacks sex {s!r}")
    y0, y1 = t.resolution.years
    _require(y0 <= years[0] and y1 >= years[1],
             f"{what} years {y0}..{y1} do not cover {years[0]}..{years[1]}")
    over = np.flatnonzero(t.values > 1.0) if probability else ()
    if len(over):
        key, v = t.items()[over[0]]
        raise DataError(f"{what} value {v} at {key} is not a probability")


def validate_coverage(config: ScenarioConfig, params: SimParams):
    """Every lookup the run will make must be answerable before stepping."""
    P = params.population
    level = P.resolution.level
    _require(not P.resolution.od, "population must be a plain table")
    _require(P.integer, "population must be integer-valued")
    _require(P.resolution.ages == FULL_AGES and P.resolution.open_age == 100,
             "population must carry single ages 0..100+")
    _require(P.resolution.sexes == SEXES, "population must carry both sexes")
    _require(P.resolution.years[0] <= config.t0 <= P.resolution.years[1],
             f"population does not cover start year {config.t0}")

    span = (config.t0, config.te - 1)
    _check_person_table(params.birth_p, "birth probabilities", level, span,
                        probability=True, sexes=("f",))
    _check_person_table(params.death_p, "death probabilities", level, span,
                        probability=True)
    _check_person_table(params.emig_p, "emigration probabilities", level, span,
                        probability=True)
    _check_person_table(params.immigrants, "immigrants", level, span,
                        probability=False)
    if config.im_mode != "none":
        _require(params.ie_p is not None,
                 "internal-emigration probabilities required for this im_mode")
        _check_person_table(params.ie_p, "internal-emigration probabilities",
                            level, span, probability=True)
    if config.im_mode == "biregional":
        _require(params.ii is not None, "ii table required for biregional mode")
        _check_person_table(params.ii, "internal immigrants", level, span,
                            probability=False)
    if config.im_mode == "interregional":
        _require(params.od is not None, "od table required for interregional mode")
    if config.im_mode == "full":
        _require(bool(params.m_by_age),
                 "per-age od tables required for full mode")
    if config.im_mode in ("interregional", "full"):
        flows = _flows(config.im_mode, params)
        _require(min(flows) == 0, "per-age od tables must start at age 0")
        for lo, t in sorted(flows.items()):
            _require(t.resolution.od, f"flow table for ages {lo}+ must be od")
            _require(t.resolution.level == level,
                     f"flow table for ages {lo}+ level mismatch")
            y0, y1 = t.resolution.years
            _require(y0 <= span[0] and y1 >= span[1],
                     f"flow table for ages {lo}+ does not cover {span[0]}..{span[1]}")


def _flows(mode: str, params: SimParams) -> dict:
    """The od tables movers draw destinations from, by age-class lower bound:
    the per-age bundle in full mode, else the one od table as class 0."""
    return params.m_by_age if mode == "full" else {0: params.od}


def _master_regions(params: SimParams) -> tuple:
    """Union of all regions any table mentions, including pure destinations."""
    tables = (params.population, params.immigrants, params.od, params.ii,
              *(params.m_by_age or {}).values())
    regions = set().union(*(t.codes for t in tables if t is not None))
    if not regions:
        raise DataError("no regions present in the parameter tables")
    return tuple(sorted(regions))


# census cells in key order: regions ascending, then f before m, then ages
_KEY_SEXES = tuple(sorted(SEXES))


def _census_cells(t: CensusTable, year: int, regions: tuple):
    """(region, sex, age) grid indices and values of a table's nonzero
    cells of one year, in key order; sex indexes _KEY_SEXES."""
    g = t.grid((year,), regions, _KEY_SEXES, t.resolution.ages)[0]
    at = np.nonzero(g)
    return at, g[at].tolist()


def _people(at, counts, ages, census_year: int, next_pid: int) -> tuple:
    """(pid, sex, birth_year, region) of counts[i] people in each census
    cell at[i] = (region, _KEY_SEXES sex, age class index), aged at
    `census_year`."""
    region, sex, age = (np.repeat(ix, counts) for ix in at)
    pid = np.arange(next_pid, next_pid + len(region), dtype=np.uint64)
    birth_year = census_year - np.asarray(ages, np.int64)[age] - 1
    return (pid, (sex == 0).astype(np.int8), birth_year.astype(np.int32),
            region.astype(np.int32))


def init_population(P: CensusTable, scale: float, year: int | None = None,
                    regions: tuple | None = None) -> SimulationState:
    """Materialize people from the census, apportioned so scaling is exact.

    Materializing the census draws no random numbers.
    """
    _require(P.integer, "population must be integer-valued")
    _require(not P.resolution.od, "population must be a plain table")
    if year is None:
        year = P.resolution.years[0]
    if regions is None:
        regions = P.codes

    at, weights = _census_cells(P, year, regions)
    total_raw = sum(weights)
    total = round_half_away(scale * total_raw)
    if total < 1:
        raise DataError(f"scaled population {scale} * {total_raw} is below one person")
    # a divisor method gives each cell its whole quota: the count itself
    counts = (np.array(weights, np.int64) if total == total_raw
              else huntington_hill(total, weights))
    pid, sex, birth_year, region = _people(at, counts, P.resolution.ages,
                                           year, 1)
    return SimulationState(year=year, regions=regions, pid=pid, sex=sex,
                           birth_year=birth_year, region=region,
                           next_pid=1 + len(pid))


def _tally(year: int, regions: tuple, region: np.ndarray, sex: np.ndarray,
           last: np.ndarray, labels: tuple = FULL_AGES) -> Entries:
    """Count people by (year, regions[region], sex, labels[last])."""
    n = len(labels)
    counts = np.bincount((region.astype(np.int64) * 2 + sex) * n + last,
                         minlength=len(regions) * 2 * n)
    return cells((year,), regions, SEXES, labels,
                 counts.reshape(1, len(regions), 2, n))


def census_counts(state: SimulationState) -> Entries:
    """Population by (year, region, sex, age) at the state's census date."""
    age = np.minimum(state.year - state.birth_year - 1, 100)
    return _tally(state.year, state.regions, state.region, state.sex, age)


def _planes(config: ScenarioConfig, params: SimParams, regions: tuple) -> dict:
    """Dense (year, region, sex, age) arrays of the per-person tables a step
    reads, built once per scenario and shared by its runs; each region reads
    a table's row for its ancestor at the table's level."""
    tables = {"death": params.death_p, "emig": params.emig_p,
              "birth": params.birth_p}
    if config.im_mode != "none":
        tables["ie"] = params.ie_p
    if config.im_mode == "biregional":
        tables["ii"] = params.ii
    level = params.population.resolution.level
    return {name: table.grid(range(config.t0, config.te),
                             [parent_region(r, level, table.resolution.level)
                              for r in regions], SEXES, FULL_AGES)
            for name, table in tables.items()}


def _destinations(params: SimParams, mode: str, ii: np.ndarray | None,
                  year: int, regions: tuple, origin: np.ndarray,
                  sex: np.ndarray, age: np.ndarray,
                  u: np.ndarray) -> np.ndarray:
    """Destination region index of each mover, drawn with uniforms u.

    Movers are grouped by what their weight row depends on: origin and sex,
    plus the age for the ii profile or the age class of the flow tables
    (`_flows`: the per-age od tables, or the one od table of interregional
    mode as class 0).  Each group gets one cumulative row and one
    searchsorted; the rows come from one (origin, sex, destination) plane
    per flow table, read once per year.
    """
    if mode == "biregional":
        key = age
    else:
        flows = _flows(mode, params)
        lows = sorted(flows)
        key = np.searchsorted(lows, age, side="right") - 1
    code = (origin.astype(np.int64) * 2 + sex) * 101 + key
    order = np.argsort(code, kind="stable")
    groups, starts = np.unique(code[order], return_index=True)
    dest = np.empty(len(u), dtype=np.int32)
    stranded = []
    od_planes: dict = {}
    for g, members in zip(groups.tolist(), np.split(order, starts[1:])):
        o, rest = divmod(g, 202)
        s, k = divmod(rest, 101)
        if mode == "biregional":
            row = ii[:, s, k].copy()
        else:
            if k not in od_planes:
                od_planes[k] = flows[lows[k]].grid((year,), regions, SEXES,
                                                   regions)[0]
            row = od_planes[k][o, s].copy()
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


def _year_events(h: np.ndarray, state: SimulationState, la: np.ndarray,
                 p: dict) -> tuple:
    """Who dies, emigrates, moves and gives birth in the year.

    Returns the indices of the persons whose year ends in death and in
    emigration, of the movers and of the mothers, and for each mother
    whether her move came first.  Event times are drawn and compared only
    within the index sets the occurrence draws fired for.
    """
    cell = np.multiply(state.region, 2, dtype=np.intp)
    cell += state.sex
    cell *= 101
    cell += la
    dies = np.flatnonzero(uniform_array(h, S_DEATH_U) < p["death"][cell])
    emigrates = np.flatnonzero(uniform_array(h, S_EMIG_U) < p["emig"][cell])
    moves_drawn = (np.flatnonzero(uniform_array(h, S_IE_U) < p["ie"][cell])
                   if "ie" in p else np.zeros(0, np.intp))
    females = np.flatnonzero(state.sex == 1)
    births_drawn = females[uniform_array(h[females], S_BIRTH_U)
                           < p["birth"][cell[females]]]

    # the earliest of death and emigration, inf for whoever faces neither
    terminal = np.full(len(h), np.inf)
    terminal[dies] = td = uniform_array(h[dies], S_DEATH_T)
    te = uniform_array(h[emigrates], S_EMIG_T)
    prior = terminal[emigrates]
    is_emig = emigrates[te < prior]  # death wins an exact tie
    terminal[emigrates] = np.minimum(prior, te)
    is_death = dies[td <= terminal[dies]]
    # a move or birth happens only strictly before the terminal event
    t_ie = uniform_array(h[moves_drawn], S_IE_T)
    moves = t_ie < terminal[moves_drawn]
    movers, t_ie = moves_drawn[moves], t_ie[moves]
    t_birth = uniform_array(h[births_drawn], S_BIRTH_T)
    births = t_birth < terminal[births_drawn]
    mothers, t_birth = births_drawn[births], t_birth[births]
    # each mover's terminal time becomes the move time; a mother who did
    # not move keeps a terminal time that falls after the birth
    terminal[movers] = t_ie
    return is_death, is_emig, movers, mothers, terminal[mothers] < t_birth


def step_year(state: SimulationState, params: SimParams, config: ScenarioConfig,
              seed: int, planes: dict):
    """Advance the state across one calendar year.

    `planes` are the scenario's probability arrays from `_planes`.  Returns
    (new_state, events) where events maps table names to key->count Entries
    for the year just simulated.  The state's arrays are only read, so one
    start state can seed every run.
    """
    y = state.year
    regions = state.regions
    # each plane's (region, sex, age) cells raveled, read by one flat index
    p = {name: plane[y - config.t0].ravel() for name, plane in planes.items()}

    h = stream_array(seed, state.pid, y)
    sex = state.sex
    la = np.minimum(y - state.birth_year - 1, 100)
    is_death, is_emig, movers, mothers, moved_first = _year_events(
        h, state, la, p)

    origin = state.region[movers]
    ii = planes["ii"][y - config.t0] if "ii" in planes else None
    dest = _destinations(params, config.im_mode, ii, y, regions, origin,
                         sex[movers], la[movers],
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
    keep = np.ones(len(h), dtype=bool)
    keep[is_death] = keep[is_emig] = False
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


def run(config: ScenarioConfig, params: SimParams) -> list:
    """Simulate all Monte Carlo runs; run k is seeded with the SplitMix64
    substream handle of (seed, k), so no two seeds share a run."""
    validate_coverage(config, params)
    regions = _master_regions(params)
    planes = _planes(config, params, regions)
    level = params.population.resolution.level

    # the start population draws no random numbers: every run starts from
    # the same state, shared read-only since step_year never writes to it
    start = init_population(params.population, config.scale,
                            year=config.t0, regions=regions)
    for column in (start.pid, start.sex, start.birth_year, start.region):
        column.flags.writeable = False
    start_census = census_counts(start)

    outputs = []
    for k in range(config.runs):
        seed_k = int(stream_array(config.seed, np.uint64(k), 0))
        state = start
        census = [start_census]
        acc = {name: [] for name in EVENT_NAMES}
        for _ in range(config.t0, config.te):
            state, events = step_year(state, params, config, seed_k,
                                       planes)
            for name, table in events.items():
                acc[name].append(table)
            census.append(census_counts(state))
        census, acc = Entries.concat(census), {
            name: Entries.concat(parts) for name, parts in acc.items()}

        census_res = ResolutionSpec((config.t0, config.te), level,
                                    ages=FULL_AGES, open_age=100)
        span = (config.t0, config.te - 1)
        aged_res = ResolutionSpec(span, level, ages=FULL_AGES, open_age=100)
        birth_res = ResolutionSpec(span, level, ages=(0,), open_age=None)
        od_res = ResolutionSpec(span, level, od=True)
        outputs.append(RunOutput(
            census=CensusTable(census_res, census, integer=True, name="P"),
            births=partial(CensusTable, birth_res, acc["B"], integer=True, name="B"),
            deaths=partial(CensusTable, aged_res, acc["D"], integer=True, name="D"),
            emigrants=partial(CensusTable, aged_res, acc["E"], integer=True, name="E"),
            immigrants=partial(CensusTable, aged_res, acc["I"], integer=True, name="I"),
            internal_out=partial(CensusTable, aged_res, acc["IE"], integer=True, name="IE"),
            internal_in=partial(CensusTable, aged_res, acc["II"], integer=True, name="II"),
            od=partial(CensusTable, od_res, acc["OD"], integer=True, name="M"),
        ))
    return outputs
