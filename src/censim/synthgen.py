"""Synthetic multi-resolution census truth.

Generates a mutually consistent bundle of integer tables (population,
births by mother age and by child sex, deaths, external and internal
migration with full origin-destination detail) from a deterministic integer
recursion, so the balance equation holds with zero residual by
construction.  Hazards follow a Gompertz-like curve modulated by the same
child/adult/senior activation split the forecast fitter uses, and fertility
is an exact member of the fitter's Gaussian family, so parameter recovery
on this data is well-posed.

The random parts, each region's size multiplier and the noise of the
origin-destination attractiveness kernel, are drawn once per bundle from the
counter RNG, keyed by region index: the same (seed, region) always gets the
same draw, however many regions the spec lists.  Each year's events are
array expressions over (region, sex, age).  An origin's internal movers
split over its kernel row by Huntington-Hill: the origin's award sequence
is ranked once per run, again only when a count outgrows it, and each cell
takes a prefix, as one row per mover that the in-movers and flow tables
count, so no array of movers is origin x destination.

The coarse inputs a harmonization pipeline starts from are these tables
summed onto coarser resolutions with censim.table.degrade, so estimates stay
comparable against known truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .disagg import huntington_hill_sequences
from .errors import DataError
from .fitting import activation, gaussian_rates
from .rng import stream_array, uniform_array
from .simulate import MALE_SHARE
# degrade is unused here; it stays bound because the benchmark imports it
# from this module and traces it as censim.synthgen:degrade
from .table import (FULL_AGES, SEXES, CensusTable, Entries, ResolutionSpec,
                    add_tables, cells, degrade)
from .regions import validate_code

FLOW_AGE_CLASSES = (0, 20, 40, 60, 80, 100)

_AGES = np.arange(101, dtype=float)
_PHI = np.stack(activation(_AGES))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic truth bundle."""

    regions: tuple
    level: str
    years: tuple
    base: float = 2000.0          # people per region and sex near the modal age
    seed: int = 0
    fertility0: tuple = (0.055, 28.0, 5.2)
    fertility_drift: tuple = (4e-4, 0.04, 0.0)
    mortality_mult0: tuple = (1.0, 1.0, 1.0)
    mortality_drift: tuple = (0.004, -0.003, -0.002)
    emig_level: float = 0.012
    ie_level: float = 0.03
    im_level: float = 0.004

    def __post_init__(self):
        if len(self.regions) < 2:
            raise DataError("need at least two regions for migration flows")
        if len(set(self.regions)) != len(self.regions):
            raise DataError("duplicate region codes")
        for code in self.regions:
            validate_code(code, self.level)
        y0, y1 = self.years
        if y0 >= y1:
            raise DataError(f"need at least two census years, got {self.years}")
        if not 0 < self.base < np.inf:
            raise DataError(f"base magnitude must be finite and positive, got {self.base!r}")
        for key in ("fertility0", "fertility_drift", "mortality_mult0", "mortality_drift"):
            v = np.asarray(getattr(self, key))
            if v.shape != (3,) or v.dtype.kind not in "iuf" or not np.isfinite(v).all():
                raise DataError(f"{key} must hold three finite numbers, got {v.tolist()}")
        for key in ("emig_level", "ie_level", "im_level"):
            v = getattr(self, key)
            if not 0 <= v < np.inf:
                raise DataError(f"{key} must be finite and non-negative, got {v!r}")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "years", (int(y0), int(y1)))


def base_mortality(sex: str) -> np.ndarray:
    """Gompertz-like annual death probability by single age."""
    scale = 1.35e-4 if sex == "m" else 0.95e-4
    q = scale * np.exp(0.082 * _AGES)
    q[0] += 0.0035  # infant bump
    return np.minimum(q, 0.9)


def mortality_probability(spec: SynthSpec, year: int, sex: str) -> np.ndarray:
    dy = year - spec.years[0]
    mult = np.array([max(0.05, m * (1.0 + d * dy))
                     for m, d in zip(spec.mortality_mult0, spec.mortality_drift)])
    return np.minimum(1.0, (mult @ _PHI) * base_mortality(sex))


def fertility_probability(spec: SynthSpec, year: int) -> np.ndarray:
    dy = year - spec.years[0]
    theta = tuple(v + d * dy for v, d in zip(spec.fertility0,
                                             spec.fertility_drift))
    return gaussian_rates(theta)


def emigration_probability(spec: SynthSpec) -> np.ndarray:
    return spec.emig_level * np.exp(-(((_AGES - 25.0) / 18.0) ** 2))


def internal_probability(spec: SynthSpec) -> np.ndarray:
    return spec.ie_level * np.exp(-(((_AGES - 24.0) / 16.0) ** 2))


def _region_mult(spec: SynthSpec) -> np.ndarray:
    """Each region's size multiplier, in [0.6, 1.4)."""
    pids = np.arange(1, len(spec.regions) + 1)
    return 0.6 + 0.8 * uniform_array(stream_array(spec.seed, pids, 0), 0)


def _kernel(spec: SynthSpec) -> np.ndarray:
    """Fixed destination attractiveness between region indexes."""
    idx = np.arange(1, len(spec.regions) + 1)
    noise = uniform_array(stream_array(spec.seed, idx[:, None], idx), 1)
    w = 1.0 / (1.0 + np.abs(idx[:, None] - idx)) + 0.5 * noise
    np.fill_diagonal(w, 0.0)
    return w


def _initial_population(spec: SynthSpec, mult: np.ndarray) -> np.ndarray:
    """Integer head counts shaped (region, sex, age) for the first census."""
    profile = np.exp(-((_AGES / 62.0) ** 1.8)) + 0.12 * np.exp(
        -(((_AGES - 30.0) / 12.0) ** 2))
    size = (spec.base * mult)[:, None, None]
    return np.round(size * profile * np.array([[0.505], [0.495]])).astype(np.int64)


def _immigrants(spec: SynthSpec, mult: np.ndarray) -> np.ndarray:
    """Integer immigrants shaped (year, region, sex, age), one year per
    transition."""
    shape = np.exp(-(((_AGES - 27.0) / 14.0) ** 2))
    y0, y1 = spec.years
    growth = 1 + 0.01 * np.arange(y1 - y0)
    level = spec.im_level * spec.base * mult * growth[:, None]
    return np.round(level[..., None, None] * shape
                    * np.array([[0.52], [0.48]])).astype(np.int64)


def bundle_resolutions(level: str, years: tuple) -> dict:
    """Each truth table's resolution by bundle key, for census years `years`:
    P holds every census, the event and flow tables each transition year.
    The per-class flow tables share M's resolution."""
    span = (years[0], years[1] - 1)
    events = ResolutionSpec(span, level, sexes=SEXES, ages=FULL_AGES,
                            open_age=100)
    return {"P": replace(events, years=years),
            "B": ResolutionSpec(span, level, ages=(0,), open_age=None),
            "B_m": replace(events, sexes=("f",)),
            "D": events, "E": events, "I": events, "IE": events, "II": events,
            "M": ResolutionSpec(span, level, od=True)}


def generate_truth(spec: SynthSpec) -> dict:
    """Build the full truth bundle; same spec, bit-identical bundle."""
    y0, y1 = spec.years
    regions = spec.regions
    n_r = len(regions)
    kernel = _kernel(spec)
    q_emig = emigration_probability(spec)
    q_ie = internal_probability(spec)

    # per-year (region, sex, age) arrays; one flow key per internal mover
    flow_shape = (len(FLOW_AGE_CLASSES), y1 - y0, n_r, 2, n_r)
    mult = _region_mult(spec)
    n = _initial_population(spec, mult)
    pop, events, flows = [n], [], []
    # row i: origin i's award sequence over its kernel row, as far as its
    # largest cell count so far (length[i]); kernel[i, i] = 0 never wins
    ranked = np.zeros((n_r, 0), dtype=np.int64)
    length = np.zeros(n_r, dtype=np.int64)
    for y, imm in zip(range(y0, y1), _immigrants(spec, mult)):
        q_death = np.stack([mortality_probability(spec, y, s) for s in SEXES])
        q_birth = fertility_probability(spec, y)

        d = np.round(q_death * n).astype(np.int64)
        e = np.round(q_emig * n).astype(np.int64)
        ie = np.round(q_ie * n).astype(np.int64)
        # keep every cell's removals within its head count
        over = d + e + ie - n
        ie -= np.clip(over, 0, ie)
        over = d + e - n
        e -= np.clip(over, 0, e)

        # the x movers of a cell (origin, sex * 101 + age) go to the first x
        # destinations of the origin's sequence; an origin is ranked again
        # only when its largest count passes the ranked length
        x = ie.reshape(n_r, -1)
        top = x.max(axis=1)
        grow = np.flatnonzero(top > length)
        if grow.size:
            length[grow] = top[grow]
            ranked = np.pad(ranked, ((0, 0), (0, length.max() - ranked.shape[1])))
            fill = ranked[grow]
            fill[np.arange(ranked.shape[1]) < length[grow, None]] = \
                huntington_hill_sequences(kernel[grow], length[grow])
            ranked[grow] = fill
        row = np.repeat(np.arange(x.size), x.ravel())
        origin, cell = np.divmod(row, x.shape[1])
        dest = ranked[origin, np.arange(len(row)) - (np.cumsum(x) - x.ravel())[row]]
        ii = np.bincount(dest * n[0].size + cell, minlength=n.size).reshape(n.shape)
        sex, age = np.divmod(cell, n.shape[2])
        flows.append(np.ravel_multi_index((np.digitize(age, FLOW_AGE_CLASSES) - 1, y - y0,
                                           origin, sex, dest), flow_shape))

        b_by_age = np.round(q_birth * n[:, 1, :]).astype(np.int64)
        total = b_by_age.sum(axis=1)
        male = np.round(MALE_SHARE * total).astype(np.int64)
        b = np.stack([male, total - male], axis=1)[:, :, None]
        events.append((b, b_by_age[:, None, :], d, e, imm, ie, ii))

        survivors = n - d - e - ie + ii
        nxt = np.zeros_like(n)
        nxt[:, :, 1:100] = survivors[:, :, 0:99]
        nxt[:, :, 100] = survivors[:, :, 99] + survivors[:, :, 100]
        nxt[:, :, 0] = b[:, :, 0]
        nxt += imm
        n = nxt
        pop.append(n)

    res = bundle_resolutions(spec.level, spec.years)
    counts = {"P": pop, **dict(zip(("B", "B_m", "D", "E", "I", "IE", "II"),
                                   zip(*events)))}
    bundle = {k: CensusTable(res[k], cells(res[k].year_list(), regions,
                                           res[k].sex_domain, res[k].ages,
                                           np.stack(arrays)),
                             integer=True, name=k)
              for k, arrays in counts.items()}
    keys, movers = np.unique(np.concatenate(flows), return_counts=True)
    c, *key = np.unravel_index(keys, flow_shape)
    axes = (res["M"].year_list(), regions, SEXES, regions)
    m_by_age = {lo: CensusTable(res["M"], Entries(axes, [ix[c == k] for ix in key],
                                                  movers[c == k]),
                                integer=True, name=f"m{lo}")
                for k, lo in enumerate(FLOW_AGE_CLASSES)}
    bundle["M"] = add_tables(m_by_age.values(), name="M")
    bundle["m_by_age"] = m_by_age
    return bundle
