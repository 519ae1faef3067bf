"""Synthetic multi-resolution census truth.

Generates a mutually consistent bundle of integer tables (population,
births by mother age and by child sex, deaths, external and internal
migration with full origin-destination detail) from a deterministic integer
recursion, so the balance equation holds with zero residual by
construction.  Hazards follow a Gompertz-like curve modulated by the same
child/adult/senior activation split the forecast fitter uses, and fertility
is an exact member of the fitter's Gaussian family, so parameter recovery
on this data is well-posed.

degrade() turns truth tables into the coarse inputs a harmonization
pipeline starts from (coarser regions, wider age classes, dropped sex),
purely by aggregation, so estimates stay comparable against known truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .disagg import huntington_hill_splits
from .errors import DataError
from .fitting import activation, gaussian_rates
from .rng import stream, uniform
from .table import CensusTable, ResolutionSpec, aggregate
from .regions import validate_code

MALE_SHARE = 0.513234
FULL_AGES = tuple(range(101))
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
        if self.base <= 0:
            raise DataError("base magnitude must be positive")
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


def _region_mult(spec: SynthSpec, i: int) -> float:
    return 0.6 + 0.8 * uniform(stream(spec.seed, i + 1, 0), 0)


def _kernel(spec: SynthSpec) -> np.ndarray:
    """Fixed destination attractiveness between region indexes."""
    n = len(spec.regions)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            noise = uniform(stream(spec.seed, i + 1, j + 1), 1)
            w[i, j] = 1.0 / (1.0 + abs(i - j)) + 0.5 * noise
    return w


def _initial_population(spec: SynthSpec) -> np.ndarray:
    """Integer head counts shaped (region, sex, age) for the first census."""
    profile = np.exp(-((_AGES / 62.0) ** 1.8)) + 0.12 * np.exp(
        -(((_AGES - 30.0) / 12.0) ** 2))
    n = len(spec.regions)
    out = np.zeros((n, 2, 101), dtype=np.int64)
    for i in range(n):
        mult = spec.base * _region_mult(spec, i)
        out[i, 0] = np.round(mult * profile * 0.505).astype(np.int64)
        out[i, 1] = np.round(mult * profile * 0.495).astype(np.int64)
    return out


def _immigrants(spec: SynthSpec, year: int) -> np.ndarray:
    shape = np.exp(-(((_AGES - 27.0) / 14.0) ** 2))
    dy = year - spec.years[0]
    n = len(spec.regions)
    out = np.zeros((n, 2, 101), dtype=np.int64)
    for i in range(n):
        level = spec.im_level * spec.base * _region_mult(spec, i) * (1 + 0.01 * dy)
        out[i, 0] = np.round(level * shape * 0.52).astype(np.int64)
        out[i, 1] = np.round(level * shape * 0.48).astype(np.int64)
    return out


def generate_truth(spec: SynthSpec) -> dict:
    """Build the full truth bundle; same spec, bit-identical bundle."""
    y0, y1 = spec.years
    regions = spec.regions
    n_r = len(regions)
    kernel = _kernel(spec)
    q_emig = emigration_probability(spec)
    q_ie = internal_probability(spec)

    pop = {}
    births = {}
    births_by_age = {}
    deaths = {}
    emigrants = {}
    immigrants = {}
    internal_out = {}
    internal_in = {}
    od_flows = {}
    flow_by_class = {lo: {} for lo in FLOW_AGE_CLASSES}
    class_of = np.array([FLOW_AGE_CLASSES[
        np.searchsorted(FLOW_AGE_CLASSES, a, side="right") - 1]
        for a in range(101)])

    n = _initial_population(spec)

    def record(table, year, arr):
        for i, r in enumerate(regions):
            for si, s in enumerate(("m", "f")):
                for a in range(101):
                    v = int(arr[i, si, a])
                    if v:
                        table[(year, r, s, a)] = v

    record(pop, y0, n)
    for y in range(y0, y1):
        q_death = {s: mortality_probability(spec, y, s) for s in ("m", "f")}
        q_birth = fertility_probability(spec, y)
        imm = _immigrants(spec, y)

        d = np.zeros_like(n)
        e = np.zeros_like(n)
        ie = np.zeros_like(n)
        ii = np.zeros_like(n)
        for i in range(n_r):
            for si, s in enumerate(("m", "f")):
                d[i, si] = np.round(q_death[s] * n[i, si]).astype(np.int64)
                e[i, si] = np.round(q_emig * n[i, si]).astype(np.int64)
                ie[i, si] = np.round(q_ie * n[i, si]).astype(np.int64)
        # keep every cell's removals within its head count
        over = d + e + ie - n
        ie -= np.clip(over, 0, ie)
        over = d + e - n
        e -= np.clip(over, 0, e)

        for i in range(n_r):
            weights = [kernel[i, j] for j in range(n_r) if j != i]
            targets = [j for j in range(n_r) if j != i]
            splits = huntington_hill_splits(ie[i], weights)
            for si, s in enumerate(("m", "f")):
                for a in range(101):
                    if not ie[i, si, a]:
                        continue
                    for j, c in zip(targets, splits[si, a].tolist()):
                        if not c:
                            continue
                        ii[j, si, a] += c
                        key = (y, regions[i], s, regions[j])
                        od_flows[key] = od_flows.get(key, 0) + c
                        cls = int(class_of[a])
                        flow_by_class[cls][key] = \
                            flow_by_class[cls].get(key, 0) + c

        b_by_age = np.round(q_birth * n[:, 1, :]).astype(np.int64)
        for i, r in enumerate(regions):
            total = int(b_by_age[i].sum())
            male = int(round(MALE_SHARE * total))
            if male:
                births[(y, r, "m", 0)] = male
            if total - male:
                births[(y, r, "f", 0)] = total - male
            for a in range(101):
                if b_by_age[i, a]:
                    births_by_age[(y, r, "f", a)] = int(b_by_age[i, a])

        record(deaths, y, d)
        record(emigrants, y, e)
        record(immigrants, y, imm)
        record(internal_out, y, ie)
        record(internal_in, y, ii)

        survivors = n - d - e - ie + ii
        nxt = np.zeros_like(n)
        nxt[:, :, 1:100] = survivors[:, :, 0:99]
        nxt[:, :, 100] = survivors[:, :, 99] + survivors[:, :, 100]
        for i, r in enumerate(regions):
            male = births.get((y, r, "m", 0), 0)
            female = births.get((y, r, "f", 0), 0)
            nxt[i, 0, 0] = male
            nxt[i, 1, 0] = female
        nxt += imm
        n = nxt
        record(pop, y + 1, n)

    def full_res(years, sexes=("m", "f")):
        return ResolutionSpec(years, spec.level, sexes=sexes, ages=FULL_AGES,
                              open_age=100)

    span = (y0, y1 - 1)
    od_res = ResolutionSpec(span, spec.level, od=True)
    bundle = {
        "P": CensusTable(full_res((y0, y1)), pop, integer=True, name="P"),
        "B": CensusTable(ResolutionSpec(span, spec.level, ages=(0,),
                                        open_age=None),
                         births, integer=True, name="B"),
        "B_m": CensusTable(full_res(span, sexes=("f",)), births_by_age,
                           integer=True, name="B_m"),
        "D": CensusTable(full_res(span), deaths, integer=True, name="D"),
        "E": CensusTable(full_res(span), emigrants, integer=True, name="E"),
        "I": CensusTable(full_res(span), immigrants, integer=True, name="I"),
        "IE": CensusTable(full_res(span), internal_out, integer=True, name="IE"),
        "II": CensusTable(full_res(span), internal_in, integer=True, name="II"),
        "M": CensusTable(od_res, od_flows, integer=True, name="M"),
        "m_by_age": {lo: CensusTable(od_res, flows, integer=True,
                                     name=f"m{lo}")
                     for lo, flows in flow_by_class.items()},
    }
    return bundle


def _reclass_ages(table: CensusTable, ages: tuple, open_age) -> CensusTable:
    res = table.resolution
    target = replace(res, ages=tuple(ages), open_age=open_age)
    acc = {}
    for (y, r, s, a), v in table.items():
        lo, hi = res.age_bounds(a)
        new_lo = target.age_class_of(lo)
        nlo, nhi = target.age_bounds(new_lo)
        if nhi is not None and (hi is None or hi > nhi):
            raise DataError(
                f"source class {lo}+ straddles target class [{nlo},{nhi})"
                if hi is None else
                f"source class [{lo},{hi}) straddles target class [{nlo},{nhi})")
        key = (y, r, s, new_lo)
        acc[key] = acc.get(key, 0.0) + v
    return CensusTable(target, acc, integer=table.integer, name=table.name)


def degrade(table: CensusTable, target: ResolutionSpec) -> CensusTable:
    """Aggregate a truth table down to a coarser resolution, nothing else."""
    res = table.resolution
    if res.od != target.od:
        raise DataError("cannot degrade across origin-destination structure")
    out = table
    if target.level != res.level:
        out = aggregate(out, coarse_level=target.level)
    if target.sexes != res.sexes:
        if target.sexes == ():
            out = aggregate(out, drop=("sex",))
        else:
            raise DataError(
                f"sex domain {target.sexes} is not a degradation of {res.sexes}")
    if not target.od and (target.ages != res.ages
                          or target.open_age != res.open_age):
        if target.ages == (0,) and target.open_age == 0:
            out = aggregate(out, drop=("age",))
        else:
            out = _reclass_ages(out, target.ages, target.open_age)
    y0, y1 = target.years
    if y0 < res.years[0] or y1 > res.years[1]:
        raise DataError(
            f"target years {target.years} exceed source years {res.years}")
    if (y0, y1) != res.years:
        entries = {k: v for k, v in out.items() if y0 <= k[0] <= y1}
        out = CensusTable(replace(out.resolution, years=(y0, y1)), entries,
                          integer=out.integer, name=out.name)
    if out.resolution != target:
        raise DataError(
            f"cannot degrade {res} to {target}")
    return out
