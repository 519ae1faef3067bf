"""The benchmark's workloads: inputs from a seed, the timed operation, checks.

A workload builds its inputs once into an inputs directory (set-up), then
runs its operation into a fresh output directory per repetition.  Every
input follows from (workload, seed): the seed goes to censim as the
pipeline or scenario seed, and the synthetic population is scaled so that
its first census holds the same number of persons for every seed.  That
keeps the amount of work fixed while the seed changes its shape.
"""

from __future__ import annotations

import csv
import glob
import os

from censim.cli import main as censim_main
from censim.cli import run_pipeline
from censim.configfile import Config
from censim.synthgen import (SynthSpec, degrade, emigration_probability,
                             fertility_probability, generate_truth,
                             internal_probability, mortality_probability)
from censim.table import SEXES, CensusTable, ResolutionSpec, read_csv, write_csv

Y0, T0 = 1999, 2002
LEVEL = "municipalities"
R40 = tuple(f"{d}{m:02d}" for d in (101, 102, 103, 201, 202, 301, 302, 401)
            for m in range(1, 6))
BAND_LIMIT_PCT = 5.0
_PROBE_BASE = 100.0
_CFG = "pipeline.cfg"


def sized_base(regions: tuple, seed: int, persons: int) -> float:
    """The synthgen base that puts `persons` people into the first census."""
    spec = SynthSpec(regions=regions, level=LEVEL, years=(Y0, Y0 + 1),
                     base=_PROBE_BASE, seed=seed)
    first = sum(v for k, v in generate_truth(spec)["P"].items() if k[0] == Y0)
    return _PROBE_BASE * persons / first


def _cli(argv: list) -> None:
    code = censim_main(argv)
    if code != 0:
        raise RuntimeError(f"censim {argv[0]} exited with {code}")


class Workload:
    """Shared set-up and pipeline plumbing; subclasses define the operation.

    `setup_steps` build the inputs from the written config; `timed_steps`
    are the operation split where the trace times it; `run_timed` is the
    operation as a user runs it.
    """

    own_steps: tuple = ()    # set-up steps that are benchmark code

    def __init__(self, name: str, why: str, regions: tuple, persons: int,
                 te: int, y1: int, runs: int, im_mode: str):
        self.name, self.why = name, why
        self.regions, self.persons = regions, persons
        self.te, self.y1 = te, y1
        self.runs, self.im_mode = runs, im_mode

    def describe(self, seed: int) -> dict:
        return {"workload": self.name, "seed": seed, "regions": len(self.regions),
                "persons_first_census": self.persons, "y0": Y0, "t0": T0,
                "te": self.te, "y1": self.y1, "runs": self.runs,
                "im_mode": self.im_mode,
                "steps": [n for n, _ in self.timed_steps()]}

    def configure(self, inputs: str, seed: int) -> None:
        """Write the pipeline config: the set-up every workload shares."""
        base = sized_base(self.regions, seed, self.persons)
        lines = [f"regions={','.join(self.regions)}", f"level={LEVEL}",
                 f"base={base!r}", f"seed={seed}", f"y0={Y0}", f"t0={T0}",
                 f"te={self.te}", f"y1={self.y1}", f"runs={self.runs}",
                 f"im_mode={self.im_mode}"]
        with open(os.path.join(inputs, _CFG), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def config(self, inputs: str) -> Config:
        return Config.from_file(os.path.join(inputs, _CFG))

    def pipeline(self, inputs: str, workdir: str, stages) -> None:
        """One `run_pipeline` call over `workdir` for the given stages."""
        values = dict(self.config(inputs).values, workdir=workdir,
                      stages=",".join(stages))
        run_pipeline(Config(values), workdir)

    def setup_steps(self) -> list:
        """(name, fn(inputs)) run after configure, before the timed part."""
        return []

    def prepare(self, inputs: str, seed: int) -> None:
        self.configure(inputs, seed)
        for _, step in self.setup_steps():
            step(inputs)

    def result_files(self, out: str) -> list:
        found = []
        for pattern in self.results:
            found += sorted(glob.glob(os.path.join(out, pattern)))
        return [os.path.relpath(p, out) for p in found]


def grand_total_band(path: str) -> float:
    """Largest |deviation| of the grand total, in %; fails outside the band."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["group"] == "total"]
    if len(rows) != 1:
        raise AssertionError(f"{path}: expected one grand-total row")
    band = 100 * max(abs(float(rows[0]["e_min"])), abs(float(rows[0]["e_max"])))
    if not band <= BAND_LIMIT_PCT:
        raise AssertionError(f"grand-total deviation {band:.3f}% outside "
                             f"+-{BAND_LIMIT_PCT}%")
    return band


class HarmonizeWorkload(Workload):
    """Timed: the harmonization stages from an empty workdir, one call."""

    stages = ("synth", "degrade", "disagg", "farr", "fit-births", "residual",
              "fuse")
    results = ("est/P_hat.csv", "est/birth_p.csv", "est/immigrants.csv",
               "est/m_age_*.csv")

    def timed_steps(self) -> list:
        return [(s, lambda inputs, out, s=s: self.pipeline(inputs, out, (s,)))
                for s in self.stages]

    def run_timed(self, inputs: str, out: str) -> None:
        self.pipeline(inputs, out, self.stages)

    def check(self, inputs: str, out: str) -> dict:
        """Criterion 08: P_hat re-aggregated equals the coarse source."""
        years = (Y0, self.y1)
        coarse_res = ResolutionSpec(years, "districts", sexes=SEXES,
                                    ages=tuple(range(0, 101, 5)), open_age=100)
        coarse = read_csv(os.path.join(out, "coarse", "P_coarse.csv"),
                          integer=True, resolution=coarse_res)
        fine = read_csv(os.path.join(out, "est", "P_hat.csv"), integer=True,
                        resolution=ResolutionSpec(years, LEVEL, sexes=SEXES,
                                                  ages=tuple(range(101)),
                                                  open_age=100))
        back = degrade(fine, coarse_res)
        if dict(back.items()) != dict(coarse.items()):
            raise AssertionError("est/P_hat.csv does not aggregate back to "
                                 "coarse/P_coarse.csv")
        return {}


class ProjectionWorkload(Workload):
    """Set-up builds a truth bundle and rate files; timed: simulate, validate
    and the life tables of the scenario's first-year death probabilities."""

    results = ("mean.csv", "deviations.csv", "lifetable_*.csv")
    own_steps = ("rates",)

    def _rates(self, inputs: str) -> None:
        cfg = self.config(inputs)
        spec = SynthSpec(regions=self.regions, level=LEVEL,
                         years=(Y0, self.y1), base=cfg.floating("base"),
                         seed=cfg.integer("seed"))
        years = range(T0, self.te)
        res = ResolutionSpec((T0, self.te - 1), LEVEL, sexes=SEXES,
                             ages=tuple(range(101)), open_age=100)
        # synthgen's own event probabilities by sex, the same in every region
        rates = {
            "birth_p": lambda y: {"f": fertility_probability(spec, y)},
            "death_p": lambda y: {s: mortality_probability(spec, y, s)
                                  for s in SEXES},
            "emig_p": lambda y: dict.fromkeys(SEXES, emigration_probability(spec)),
            "ie_p": lambda y: dict.fromkeys(SEXES, internal_probability(spec)),
        }
        rdir = os.path.join(inputs, "rates")
        os.makedirs(rdir, exist_ok=True)
        for name, by_sex in rates.items():
            entries = {(y, r, s, a): v
                       for y in years for s, q in by_sex(y).items()
                       for a, v in enumerate(q.tolist()) if v
                       for r in self.regions}
            write_csv(CensusTable(res, entries, name=name),
                      os.path.join(rdir, f"{name}.csv"))
        # one (year, region, sex) series per sex for `censim lifetable`
        one = ResolutionSpec((T0, T0), LEVEL, sexes=SEXES,
                             ages=tuple(range(101)), open_age=100)
        for s in SEXES:
            q = mortality_probability(spec, T0, s).tolist()
            entries = {(T0, self.regions[0], s, a): v
                       for a, v in enumerate(q) if v}
            write_csv(CensusTable(one, entries, name="q"),
                      os.path.join(rdir, f"q_{s}.csv"))
        lines = [f"t0={T0}", f"te={self.te}", f"runs={self.runs}",
                 f"im_mode={self.im_mode}", f"seed={cfg.integer('seed')}",
                 "population=../truth/P.csv", "immigrants=../truth/I.csv",
                 "od=../truth/M.csv", "birth_p=birth_p.csv",
                 "death_p=death_p.csv", "emig_p=emig_p.csv", "ie_p=ie_p.csv"]
        with open(os.path.join(rdir, "scenario.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def setup_steps(self) -> list:
        return [("synth", lambda inputs: self.pipeline(inputs, inputs,
                                                       ("synth",))),
                ("rates", self._rates)]

    def _simulate(self, inputs: str, out: str) -> None:
        _cli(["simulate",
              "--config", os.path.join(inputs, "rates", "scenario.cfg"),
              "--out-dir", out])

    def _validate(self, inputs: str, out: str) -> None:
        _cli(["validate",
              "--sim", os.path.join(out, "mean.csv"),
              "--ref", os.path.join(inputs, "truth", "P.csv"),
              "--groups", "total,fed,sex,age20",
              "--window", f"{T0}:{self.te}",
              "--out", os.path.join(out, "deviations.csv")])

    def _lifetable(self, inputs: str, out: str) -> None:
        for s in SEXES:
            _cli(["lifetable",
                  "--q", os.path.join(inputs, "rates", f"q_{s}.csv"),
                  "--out", os.path.join(out, f"lifetable_{s}.csv")])

    def timed_steps(self) -> list:
        return [("simulate", self._simulate), ("validate", self._validate),
                ("lifetable", self._lifetable)]

    def run_timed(self, inputs: str, out: str) -> None:
        for _, step in self.timed_steps():
            step(inputs, out)

    def check(self, inputs: str, out: str) -> dict:
        for s in SEXES:
            with open(os.path.join(out, f"lifetable_{s}.csv"), newline="",
                      encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            e0 = float(rows[0]["e"])
            if len(rows) != 101 or not 40.0 < e0 < 100.0:
                raise AssertionError(f"lifetable_{s}.csv: {len(rows)} ages, "
                                     f"e0 = {e0}")
        return {"band_pct": grand_total_band(
            os.path.join(out, "deviations.csv"))}


WORKLOADS = {w.name: w for w in (
    HarmonizeWorkload(
        "harmonize-40",
        "harmonization stages at 40 municipalities: disagg, ipf3, table I/O "
        "and regions work; life tables and the simulator are bypassed",
        R40, persons=225_000, te=2003, y1=2003, runs=3, im_mode="full"),
    ProjectionWorkload(
        "project-40",
        "the projection alone at 40 municipalities: simulate, rng and "
        "validate work, plus two life tables; disagg, ipf and fitting are "
        "bypassed",
        R40, persons=150_000, te=2005, y1=2005, runs=4,
        im_mode="interregional"),
)}
