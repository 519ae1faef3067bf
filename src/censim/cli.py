"""Command line entry point: ``censim <subcommand> ...``.

Each subcommand wraps one library operation and moves census CSVs between
files; ``pipeline`` chains them over a working directory.  Exit codes are
stable: 0 success, 1 data or validation error, 2 usage error.  Logs go to
stderr, data to files only.

The pipeline keeps a ``manifest.csv`` in its working directory listing
every file a stage read or wrote together with a SHA-256 content hash.  A
stage is skipped on rerun when all of its recorded files still match, so
an unchanged pipeline is a no-op and editing an intermediate file reruns
exactly the stages downstream of it.

Each workdir table a stage reads is declared once, in ``_Pipeline.tables``
(the truth bundle's entries come from ``synthgen.bundle_resolutions``),
written through ``_Pipeline.write`` and read through ``_Pipeline.read``; the
simulate stage reads its inputs through the scenario file it writes.  Within
one run a table is handed from writer to reader in memory while its file
keeps the digest it was written with; each subcommand parses its files.
The pipeline writes its birth, death, emigration and internal-emigration
probabilities for the whole country, as estimated; the simulator reads
every region from the tables' ``AT`` rows.

``simulate`` and the simulate stage load a scenario through
``_load_scenario``, which reads every table but the population with
``_scenario_table``: the ``m_index`` class files as ``od`` is, and a
header-only file, its header still checked, as an all-zero table.  The
table files of the stage's scenario, which are also the stage's inputs,
are named once, in ``_scenario_files``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .balance import residual_immigrants
from .configfile import Config
from .disagg import disaggregate_table
from .errors import DataError
from .fileio import atomic_open, read_records
from .fitting import (BirthFitTarget, MortalityFitTarget, average_slice,
                      fit_births, fit_mortality, gaussian_rates,
                      mortality_curves, qref_series)
from .ipf import ipf2, ipf3
from .lifetable import build_life_table, life_expectancy
from .rates import death_table_alpha, farr_probability_model
from .regions import RegionManifest
from .simulate import MALE_SHARE, ScenarioConfig, SimParams, run
from .synthgen import (FLOW_AGE_CLASSES, SynthSpec, bundle_resolutions,
                       generate_truth)
from .table import (FULL_AGES, SEXES, CensusTable, Entries, ResolutionSpec,
                    _format_age, _format_value, _parse_age_token, add_tables,
                    aggregate, cells, degrade, read_csv, write_csv)
from .validate import compare, mc_mean, read_window, write_deviations

log = logging.getLogger("censim")

_AGES5 = tuple(range(0, 101, 5))

_METHOD_NAMES = {"hh": "huntington_hill", "prop": "proportional"}


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_disaggregate(args) -> int:
    method = _METHOD_NAMES.get(args.method)
    if method is None:
        raise DataError(f"unknown method {args.method!r}; expected hh or prop")
    source = read_csv(args.source, integer=method == "huntington_hill")
    dist = read_csv(args.distribution)
    key_dims = tuple(t for t in args.key.split(",") if t)
    src, dst = source.resolution, dist.resolution
    level = dst.level if "region" in key_dims else src.level
    ages, open_age = ((dst.ages, dst.open_age) if "age" in key_dims
                      else (src.ages, src.open_age))
    sexes = src.sexes or (dst.sexes if "sex" in key_dims else ())
    target = ResolutionSpec(src.years, level, sexes=sexes, ages=ages,
                            open_age=open_age)
    out = disaggregate_table(source, dist, key_dims, target, method)
    write_csv(out, args.out)
    log.info("disaggregated %d cells onto %d", len(source), len(out))
    return 0


def cmd_ipf2(args) -> int:
    rows_t = read_csv(args.rows)
    cols_t = read_csv(args.cols)
    rres, cres = rows_t.resolution, cols_t.resolution
    if rres.od or cres.od:
        raise DataError("marginal tables must be plain, not origin-destination")
    for what, res in (("rows", rres), ("cols", cres)):
        if res.ages != (0,):
            raise DataError(f"{what} marginal must be ageless (a single 0 class)")
    if rres.years != cres.years or rres.sexes != cres.sexes \
            or rres.level != cres.level:
        raise DataError("row and column marginals must share years, sexes and level")
    origins, dests = rows_t.codes, cols_t.codes
    if not origins or not dests:
        raise DataError("marginals are empty")
    init_t = None
    if args.init:
        init_t = read_csv(args.init)
        if not init_t.resolution.od:
            raise DataError("the seed table must be origin-destination")

    entries = []
    worst_residual, most_iters, blocks = 0.0, 0, 0
    for y in rres.year_list():
        for s in rres.sex_domain:
            a = rows_t.grid((y,), origins, (s,), (0,)).ravel()
            b = cols_t.grid((y,), dests, (s,), (0,)).ravel()
            if a.sum() == 0 and b.sum() == 0:
                continue
            if init_t is not None:
                m0 = init_t.grid((y,), origins, (s,), dests)[0, :, 0, :]
            else:
                m0 = np.ones((len(origins), len(dests)))
            result = ipf2(a, b, m0, tol=args.tol)
            blocks += 1
            worst_residual = max(worst_residual, result.residual)
            most_iters = max(most_iters, result.iterations)
            if not result.converged:
                log.warning("ipf2 block (%d, %s) stopped at residual %.3g",
                            y, s, result.residual)
            entries.append(cells((y,), origins, (s,), dests,
                                 result.values[None, :, None, :]))
    out_res = ResolutionSpec(rres.years, rres.level, sexes=rres.sexes, od=True)
    write_csv(CensusTable(out_res, Entries.concat(entries), name="M"), args.out)
    log.info("ipf2: %d blocks, worst residual %.3g, max %d iterations",
             blocks, worst_residual, most_iters)
    return 0


def _fuse_blocks(ab: CensusTable, bc: CensusTable, ac: CensusTable, tol: float,
                 zero_diagonal: bool, years: tuple | None = None):
    """Three-marginal fusion per (year, sex): returns {age class: od table}."""
    abr, bcr, acr = ab.resolution, bc.resolution, ac.resolution
    if abr.od or bcr.od or not acr.od:
        raise DataError("need two plain age-class marginals and one od table")
    if abr.ages != bcr.ages or abr.open_age != bcr.open_age:
        raise DataError("the two age-class marginals disagree on age classes")
    if not (abr.sexes == bcr.sexes == acr.sexes):
        raise DataError("fusion inputs disagree on the sex domain")
    if not (abr.level == bcr.level == acr.level):
        raise DataError("fusion inputs disagree on the region level")
    if years is None:
        years = acr.years
    for what, res in (("origin marginal", abr), ("destination marginal", bcr),
                      ("od table", acr)):
        if res.years[0] > years[0] or res.years[1] < years[1]:
            raise DataError(f"{what} does not cover years {years[0]}..{years[1]}")

    # a plain table's codes are its regions; an od table's codes join both
    # region axes, so each axis is read from its key column
    flows = ac._entries()

    def used(k):
        counts = np.bincount(flows.index[k], minlength=len(flows.axes[k]))
        return {flows.axes[k][i] for i in np.flatnonzero(counts).tolist()}

    origins = sorted(set(ab.codes) | used(1))
    dests = sorted(set(bc.codes) | used(3))
    classes = abr.ages
    per_class: dict[int, list] = {lo: [] for lo in classes}
    stats = {"blocks": 0, "unconverged": 0, "iterations": 0, "residual": 0.0,
             "converged": True}
    # the fit starts at one in every class of each flow the od table holds,
    # self-flows excepted under zero_diagonal
    allowed = (np.array(origins)[:, None] != np.array(dests)) | (not zero_diagonal)
    nc = len(classes)
    for y in range(years[0], years[1] + 1):
        for s in abr.sex_domain:
            A = ab.grid((y,), origins, (s,), classes)[0, :, 0, :]
            # classes x destinations, C-ordered like the other marginals
            B = bc.grid((y,), dests, (s,), classes)[0, :, 0, :].T.copy()
            C = ac.grid((y,), origins, (s,), dests)[0, :, 0, :]
            if A.sum() == 0 and B.sum() == 0 and C.sum() == 0:
                continue
            i, k = np.nonzero((C > 0) & allowed)
            result = ipf3(A, B, C, (i.repeat(nc), np.tile(np.arange(nc), i.size),
                                    k.repeat(nc)), tol=tol)
            stats["blocks"] += 1
            stats["iterations"] = max(stats["iterations"], result.iterations)
            stats["residual"] = max(stats["residual"], result.residual)
            stats["converged"] &= result.converged
            stats["unconverged"] += not result.converged
            if not result.converged:
                log.warning("ipf3 block (%d, %s) stopped at residual %.3g",
                            y, s, result.residual)
            key = (np.zeros_like(i), i, np.zeros_like(i), k)
            for j, lo in enumerate(classes):
                per_class[lo].append(Entries(((y,), origins, (s,), dests), key,
                                             result.values[j::nc]))
    od_res = ResolutionSpec(years, abr.level, sexes=abr.sexes, od=True)
    tables = {lo: CensusTable(od_res, Entries.concat(per_class[lo]), name=f"m{lo}")
              for lo in classes}
    return tables, stats


def _write_od_bundle(tables: dict, out_dir: str, open_age) -> list[str]:
    """One od CSV per age class plus an m_index.csv naming them."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    index_rows = []
    for lo in sorted(tables):
        fn = f"m_age_{lo}.csv"
        write_csv(tables[lo], os.path.join(out_dir, fn))
        index_rows.append((_format_age(lo, open_age), fn))
        written.append(fn)
    with atomic_open(os.path.join(out_dir, "m_index.csv"), newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("age", "path"))
        w.writerows(index_rows)
    written.append("m_index.csv")
    return written


def _read_od_bundle(index_path: str, span: tuple, level: str) -> dict:
    """Read the per-age-class flow tables an ``m_index.csv`` points to, each
    as a scenario's ``od`` table is read (see ``_scenario_table``)."""
    base = os.path.dirname(os.path.abspath(index_path))
    out = {}
    for row in read_records(index_path, ("age", "path")):
        try:
            lo, _ = _parse_age_token(row["age"])
        except DataError:
            raise DataError(f"{index_path}: bad age token {row['age']!r}") from None
        if lo in out:
            raise DataError(f"{index_path}: age {row['age']!r} listed twice")
        path = os.path.join(base, row["path"])  # an absolute path stays
        out[lo] = _scenario_table(path, f"m{lo}", span, level, od=True)
    if not out:
        raise DataError(f"{index_path}: empty flow index")
    return out


def cmd_ipf3(args) -> int:
    ab = read_csv(args.ab)
    bc = read_csv(args.bc)
    ac = read_csv(args.ac)
    tables, stats = _fuse_blocks(ab, bc, ac, tol=args.tol,
                                 zero_diagonal=args.zero_diagonal)
    _write_od_bundle(tables, args.out_dir, ab.resolution.open_age)
    log.info("ipf3: %d blocks, %d unconverged, worst residual %.3g, max %d iterations",
             stats["blocks"], stats["unconverged"], stats["residual"], stats["iterations"])
    return 0


def cmd_farr(args) -> int:
    X = read_csv(args.events)
    P = read_csv(args.population)
    Q = read_csv(args.leavers)
    diag: dict = {}
    out = farr_probability_model(X, P, Q, diagnostics=diag)
    write_csv(out, args.out)
    log.info("farr: %d probabilities, %d clipped", len(out),
             diag.get("clipped", 0))
    return 0


def cmd_lifetable(args) -> int:
    q_table = read_csv(args.q)
    res = q_table.resolution
    series = sorted({(k[0], k[1], k[2]) for k in q_table.keys()})
    if len(series) != 1:
        raise DataError(
            f"{args.q}: need exactly one (year, region, sex) series, found "
            f"{len(series)}")
    y, r, s = series[0]
    # single ages from 0 to the last one, as in a scenario: an absent age has q = 0
    q = q_table.grid((y,), (r,), (s,), range(res.ages[-1] + 1))[0, 0, 0]
    table = build_life_table(q, death_table_alpha(args.alpha0))
    columns = (table.q, table.l, table.d, table.L, table.T, table.e)
    with atomic_open(args.out, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("age", "q", "l", "d", "L", "T", "e"))
        for a, row in enumerate(zip(*(col.tolist() for col in columns))):
            w.writerow((_format_age(a, table.a_max),)
                       + tuple(map(_format_value, row)))
    log.info("life table for (%s, %s, %s): e0 = %.2f", y, r, s, table.e[0])
    return 0


_FIT_REPORT = ("year", "region", "objective", "iterations", "evals",
               "converged")


def _read_targets(path: str, fields: tuple) -> list[tuple]:
    """Fit target rows as (year, region, float, ...) in `fields` order."""
    rows = []
    for row in read_records(path, fields, "missing columns {missing}"):
        try:
            rows.append((int(row["year"]), row["region"])
                        + tuple(float(row[c]) for c in fields[2:]))
        except ValueError:
            raise DataError(f"{path}: bad row {row}") from None
    if not rows:
        raise DataError(f"{path}: no target rows")
    return rows


def _check_unique_targets(rows: list) -> None:
    """A second row for a (year, region) would overwrite the first fit."""
    seen = set()
    for y, r, *_ in rows:
        if (y, r) in seen:
            raise DataError(f"repeated fit target for year {y}, region {r}")
        seen.add((y, r))


def _fit_rows(pop: CensusTable, rows: list, out: str, fit, sexes: tuple,
              name: str) -> CensusTable:
    """Fit one curve per sex in `sexes` for each (year, region) target row.

    fit(pop, year, region, target, diagnostics) returns the parameters and
    the curves.  Writes the ``<out>.report.csv`` sidecar and returns the
    table of the curves.
    """
    _check_unique_targets(rows)
    entries: dict[tuple, float] = {}
    report = []
    for y, r, *target in rows:
        diag: dict = {}
        theta, curves = fit(pop, y, r, target, diag)
        for s, q in zip(sexes, curves):
            entries.update(((y, r, s, a), v) for a, v in enumerate(q))
        report.append((y, r, repr(diag["objective"]), diag["iterations"],
                       diag["evals"], str(diag["converged"]).lower())
                      + tuple(repr(float(t)) for t in theta))
        log.info("%s fit %d %s: objective %.3g in %d evals", name, y, r,
                 diag["objective"], diag["evals"])
    root, ext = os.path.splitext(out)
    with atomic_open(f"{root}.report{ext or '.csv'}", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_FIT_REPORT
                   + tuple(f"theta{i}" for i in range(1, len(theta) + 1)))
        w.writerows(report)
    years = [row[0] for row in rows]
    res = ResolutionSpec((min(years), max(years)), pop.resolution.level,
                         sexes=sexes, ages=FULL_AGES, open_age=100)
    return CensusTable(res, entries, name=name)


def _birth_fit(pop: CensusTable, y: int, r: str, target: list,
               diag: dict):
    """A fertility curve from a (births, mac) target."""
    avg = average_slice(pop, y, r, "f")
    theta, _ = fit_births(BirthFitTarget(*target, (avg, avg)), diagnostics=diag)
    return theta, (gaussian_rates(theta),)


def _mortality_fit(prob: CensusTable, qref_years: tuple):
    """The fit of the six death-probability multipliers to a (deaths,
    le_m_0, le_f_0, le_m_65, le_f_65) target; the reference curves are the
    region's mean of `prob` over `qref_years`."""
    qref_cache: dict[str, tuple] = {}

    def fit(pop: CensusTable, y: int, r: str, target: list, diag: dict):
        if r not in qref_cache:
            qref_cache[r] = tuple(qref_series(prob, qref_years, r, s)
                                  for s in SEXES)
            for s, q in zip(SEXES, qref_cache[r]):
                if not q.any():
                    raise DataError(
                        f"{prob.name}: no rows for region {r!r}, sex {s} in "
                        f"reference years {', '.join(map(str, qref_years))}")
        qref = qref_cache[r]
        pop_avg = tuple(average_slice(pop, y, r, s) for s in SEXES)
        theta, _ = fit_mortality(MortalityFitTarget(*target), pop_avg, qref,
                                 diagnostics=diag)
        return theta, mortality_curves(theta, *qref)
    return fit


def cmd_fit_births(args) -> int:
    pop = read_csv(args.population)
    rows = _read_targets(args.targets, ("year", "region", "births", "mac"))
    write_csv(_fit_rows(pop, rows, args.out, _birth_fit, ("f",), "birth_p"),
              args.out)
    return 0


def cmd_fit_mortality(args) -> int:
    pop = read_csv(args.population)
    prob = read_csv(args.probabilities)
    try:
        qref_years = tuple(int(t) for t in args.qref_years.split(","))
    except ValueError:
        raise DataError(f"bad --qref-years {args.qref_years!r}") from None
    rows = _read_targets(args.targets, ("year", "region", "deaths", "le_m_0",
                                        "le_f_0", "le_m_65", "le_f_65"))
    write_csv(_fit_rows(pop, rows, args.out, _mortality_fit(prob, qref_years),
                        SEXES, "death_p"), args.out)
    return 0


def cmd_balance_residual(args) -> int:
    P = read_csv(args.population)
    B = read_csv(args.births)
    D = read_csv(args.deaths)
    E = read_csv(args.emigrants)
    diag: dict = {}
    out = residual_immigrants(P, B, D, E, diagnostics=diag)
    write_csv(out, args.out)
    log.info("residual immigrants: %d cells, %d floored", len(out),
             diag.get("floored", 0))
    return 0


# ---------------------------------------------------------------------------
# scenario simulation


def _scenario_table(path: str, name: str, span: tuple, level: str,
                    od: bool = False, count: bool = True) -> CensusTable:
    """Read a scenario table and re-anchor it onto the simulator's domain.

    A census CSV carries no schema, so a sparse table reads back with only
    the years, ages and sexes that had nonzero cells.  The scenario contract
    is dense single ages 0..100+ and both sexes for a plain table, absent
    cells meaning zero; a count table, od tables included, may also be
    silent over whole years.  A header-only file is an all-zero table on
    the span at the population's level; its header must still be a census
    header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if not any(itertools.islice(csv.reader(fh), 1, None)):
            res = ResolutionSpec(span, level, ages=FULL_AGES, open_age=100, od=od)
            return read_csv(path, resolution=res, name=name)
    t = read_csv(path, name=name)
    res = t.resolution
    if count:
        res = replace(res, years=(min(res.years[0], span[0]),
                                  max(res.years[1], span[1])))
    if not res.od:
        res = replace(res, sexes=SEXES, ages=FULL_AGES, open_age=100)
    return CensusTable(res, t, integer=t.integer, name=name)


def _load_scenario(cfg_path: str) -> tuple[ScenarioConfig, SimParams]:
    cfg = Config.from_file(cfg_path)
    base = os.path.dirname(os.path.abspath(cfg_path))

    def path_of(key: str) -> str:
        return os.path.join(base, cfg.text(key))  # an absolute path stays

    config = ScenarioConfig(
        t0=cfg.integer("t0"), te=cfg.integer("te"),
        scale=cfg.floating("scale", 1.0),
        runs=cfg.integer("runs", 1), im_mode=cfg.text("im_mode", "none"),
        seed=cfg.integer("seed", 0),
        male_share=cfg.floating("male_share", MALE_SHARE))
    population = read_csv(path_of("population"), integer=True, name="P")
    level = population.resolution.level
    span = (config.t0, config.te - 1)

    def table(key: str, name: str, **kind) -> CensusTable:
        return _scenario_table(path_of(key), name, span, level, **kind)

    params = SimParams(
        population=population,
        birth_p=table("birth_p", "birth_p", count=False),
        death_p=table("death_p", "death_p", count=False),
        emig_p=table("emig_p", "emig_p", count=False),
        # no key means a closed scenario: an all-zero immigrant table
        immigrants=(table("immigrants", "I") if cfg.has("immigrants") else
                    CensusTable(ResolutionSpec(span, level, ages=FULL_AGES,
                                               open_age=100), {}, name="I")),
        ie_p=table("ie_p", "ie_p", count=False) if cfg.has("ie_p") else None,
        od=table("od", "M", od=True) if cfg.has("od") else None,
        ii=table("ii", "II") if cfg.has("ii") else None,
        m_by_age=_read_od_bundle(path_of("m_index"), span, level)
        if cfg.has("m_index") else None)
    cfg.reject_unread()
    return config, params


def _run_scenario(cfg_path: str, out_dir: str, write=None) -> list[str]:
    """Simulate a scenario into out_dir; `write(table)`, if given, writes the
    Monte Carlo mean in place of write_csv."""
    config, params = _load_scenario(cfg_path)
    outputs = run(config, params)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for k, output in enumerate(outputs):
        fn = f"census_run{k:02d}.csv"
        write_csv(output.census, os.path.join(out_dir, fn))
        written.append(fn)
    mean = mc_mean([o.census for o in outputs])
    if write is None:
        write_csv(mean, os.path.join(out_dir, "mean.csv"))
    else:
        write(mean)
    written.append("mean.csv")
    log.info("simulated %d runs over %d..%d", config.runs, config.t0, config.te)
    return written


def cmd_simulate(args) -> int:
    _run_scenario(args.config, args.out_dir)
    return 0


def cmd_validate(args) -> int:
    sim = read_csv(args.sim)
    ref = read_csv(args.ref)
    groups = tuple(t for t in args.groups.split(",") if t)
    window = read_window(args.window) if args.window else None
    rows = compare(sim, ref, groups=groups, window=window)
    write_deviations(rows, args.out)
    worst = max((max(abs(r.e_min), abs(r.e_max)) for r in rows), default=0.0)
    log.info("validate: %d rows, worst |e| = %.4f", len(rows), worst)
    return 0


# ---------------------------------------------------------------------------
# synthetic truth


_BUNDLE_TABLES = ("P", "B", "B_m", "D", "E", "I", "IE", "II", "M")


def _write_bundle(bundle: dict, out_dir: str, write=None) -> list[str]:
    """Write the truth bundle into out_dir; `write(key, table)`, if given,
    writes each table of _BUNDLE_TABLES in place of write_csv."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key in _BUNDLE_TABLES:
        fn = f"{key}.csv"
        if write is None:
            write_csv(bundle[key], os.path.join(out_dir, fn))
        else:
            write(key, bundle[key])
        written.append(fn)
    m_by_age = bundle["m_by_age"]
    open_age = max(m_by_age)
    written += _write_od_bundle(m_by_age, out_dir, open_age)
    return written


def _synth_spec_from(cfg: Config) -> SynthSpec:
    extras: dict = {}
    for key in ("fertility0", "fertility_drift", "mortality_mult0",
                "mortality_drift"):
        if cfg.has(key):
            extras[key] = cfg.numbers(key)
    for key in ("emig_level", "ie_level", "im_level"):
        if cfg.has(key):
            extras[key] = cfg.floating(key)
    spec = SynthSpec(regions=cfg.tokens("regions"), level=cfg.text("level"),
                     years=(cfg.integer("y0"), cfg.integer("y1")),
                     base=cfg.floating("base", 2000.0),
                     seed=cfg.integer("seed", 0), **extras)
    cfg.reject_unread()
    return spec


def cmd_synth(args) -> int:
    spec = _synth_spec_from(Config.from_file(args.spec))
    bundle = generate_truth(spec)
    written = _write_bundle(bundle, args.out_dir)
    log.info("synthetic truth: %d files in %s", len(written), args.out_dir)
    return 0


# ---------------------------------------------------------------------------
# pipeline


_DEFAULT_REGIONS = ("10101", "10102", "10103", "10201", "10301",
                    "20101", "20102", "20103", "20201", "20202")


class _Pipeline:
    """Bound configuration plus path helpers for one pipeline run."""

    def __init__(self, cfg: Config, base_dir: str):
        # relative to the config file's directory; an absolute path stays
        self.workdir = os.path.join(base_dir, cfg.text("workdir"))
        self.level = cfg.text("level", "municipalities")
        self.regions = cfg.tokens("regions", _DEFAULT_REGIONS)
        self.y0 = cfg.integer("y0", 1999)
        self.y1 = cfg.integer("y1", 2027)
        self.t0 = cfg.integer("t0", 2002)
        self.te = cfg.integer("te", 2027)
        self.seed = cfg.integer("seed", 42)
        self.runs = cfg.integer("runs", 3)
        self.scale = cfg.floating("scale", 1.0)
        self.im_mode = cfg.text("im_mode", "full")
        if self.im_mode not in ("none", "interregional", "full"):
            raise DataError(
                f"pipeline im_mode must be none, interregional or full, "
                f"got {self.im_mode!r}")
        if not self.y0 <= self.t0 - 3:
            raise DataError("need three count years before t0 for the "
                            "mortality reference (y0 <= t0 - 3)")
        if not self.t0 < self.te <= self.y1:
            raise DataError("need y0 <= t0 < te <= y1")
        # the synth and simulate stages' own checks (regions, base; runs,
        # scale), before any stage runs
        self.synth = SynthSpec(regions=self.regions, level=self.level,
                               years=(self.y0, self.y1),
                               base=cfg.floating("base", 400.0), seed=self.seed)
        ScenarioConfig(t0=self.t0, te=self.te, scale=self.scale, runs=self.runs,
                       im_mode=self.im_mode, seed=self.seed + 1)
        # (resolution, integer) of every workdir table a stage reads
        census, span = (self.y0, self.y1), self.span
        truth = bundle_resolutions(self.level, census)
        fives = ResolutionSpec(census, "districts", sexes=SEXES, ages=_AGES5,
                               open_age=100)
        country = replace(self.full_res(span), level="country")
        flat = ResolutionSpec(span, "country")
        flow_cls = ResolutionSpec(span, self.level, sexes=SEXES,
                                  ages=FLOW_AGE_CLASSES, open_age=100)
        self.tables = {f"truth/{k}": (res, True) for k, res in truth.items()}
        self.tables.update({
            "coarse/P_coarse": (fives, True),
            "coarse/P_base": (self.full_res((self.t0, self.t0)), True),
            "coarse/B_flat": (flat, False),
            "coarse/B_m_country": (replace(country, sexes=("f",)), False),
            "coarse/D_country": (country, False),
            "coarse/E_country": (country, False),
            "coarse/IE_country": (country, False),
            "coarse/D_flat": (flat, False),
            "coarse/E_flat": (flat, False),
            "coarse/I_stats": (replace(fives, years=span), True),
            "coarse/IE_cls": (flow_cls, False),
            "coarse/II_cls": (flow_cls, False),
            "coarse/M": (truth["M"], False),
            "est/P_hat": (self.full_res(census), True),
            "est/P_country": (replace(country, years=census), False),
            "est/q_hat": (country, False),
            "results/mean": (self.full_res((self.t0, self.te)), False)})
        # rel -> (pinned file SHA-256 or None, table); file -> read guard's SHA-256
        self.held, self.digests = {}, {}

    def path(self, rel: str) -> str:
        return os.path.join(self.workdir, rel)

    @property
    def span(self) -> tuple:
        return (self.y0, self.y1 - 1)

    def manifest(self) -> RegionManifest:
        return RegionManifest({self.level: self.regions})

    def full_res(self, years: tuple) -> ResolutionSpec:
        return ResolutionSpec(years, self.level, sexes=SEXES, ages=FULL_AGES,
                              open_age=100)

    def write(self, rel: str, table: CensusTable) -> None:
        """Write the declared table `rel` (without .csv) and hold it for later
        stages, pinned to its out row's digest: the stage must not rewrite it."""
        path = self.path(f"{rel}.csv")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_csv(table, path)
        self.held[rel] = (None, table)

    def read(self, rel: str, name: str | None = None) -> CensusTable:
        """The declared table `rel` (without .csv) on its resolution, from memory
        while its file keeps the digest the table is pinned to (else parsed): the
        CSV holds exact values; a held table on its declared resolution passed
        read_csv's checks, so the constructor shares its arrays."""
        resolution, integer = self.tables[rel]
        path = self.path(f"{rel}.csv")
        digest, table = self.held.get(rel, (None, None))
        if digest is not None:
            found = self.digests[f"{rel}.csv"] = _sha256(path)
            if digest == found:
                return CensusTable(resolution, table, integer=integer,
                                   name=name or path)
        return read_csv(path, integer=integer, resolution=resolution, name=name)


def _stage_synth(ctx: _Pipeline) -> None:
    _write_bundle(generate_truth(ctx.synth), ctx.path("truth"),
                  lambda key, table: ctx.write(f"truth/{key}", table))


# each coarse extract and the truth table it is degraded from, in the order
# the degrade stage writes them
_COARSE = {"P_coarse": "P", "P_base": "P", "B_flat": "B", "B_m_country": "B_m",
           "D_country": "D", "E_country": "E", "IE_country": "IE",
           "D_flat": "D", "E_flat": "E", "I_stats": "I", "IE_cls": "IE",
           "II_cls": "II", "M": "M"}


def _stage_degrade(ctx: _Pipeline) -> None:
    truth = {k: ctx.read(f"truth/{k}", k) for k in _BUNDLE_TABLES}
    for name, source in _COARSE.items():
        ctx.write(f"coarse/{name}",
                  degrade(truth[source], ctx.tables[f"coarse/{name}"][0]))


def _stage_disagg(ctx: _Pipeline) -> None:
    source = ctx.read("coarse/P_coarse", "P")
    dist = ctx.read("coarse/P_base")
    ctx.write("est/P_hat",
              disaggregate_table(source, dist, ("region", "age"),
                                 ctx.tables["est/P_hat"][0], "huntington_hill",
                                 regions=ctx.manifest(), uniform_fallback=True))


def _stage_farr(ctx: _Pipeline) -> None:
    P_c = aggregate(ctx.read("est/P_hat"), coarse_level="country")
    ctx.write("est/P_country", P_c)
    D_c, E_c, IE_c = (ctx.read(f"coarse/{k}_country", k)
                      for k in ("D", "E", "IE"))
    Q = add_tables([D_c, E_c], name="Q")
    ctx.write("est/q_hat", farr_probability_model(D_c, P_c, Q))
    write_csv(farr_probability_model(E_c, P_c, Q), ctx.path("est/emig_p.csv"))
    write_csv(farr_probability_model(IE_c, P_c, Q), ctx.path("est/ie_p.csv"))


def _stage_fit_births(ctx: _Pipeline) -> None:
    P_c = ctx.read("est/P_country")
    B_flat = ctx.read("coarse/B_flat")
    B_m = ctx.read("coarse/B_m_country")
    rows = []
    ages = np.arange(101)
    for y in range(ctx.t0, ctx.te):
        # Python sums, left to right in age order
        births = sum(B_flat.grid((y,), ("AT",), SEXES, (0,)).ravel().tolist())
        by_age = B_m.grid((y,), ("AT",), ("f",), FULL_AGES).ravel()
        weight = sum(by_age.tolist())
        if weight <= 0:
            raise DataError(f"no recorded births in {y}")
        mac = sum((ages * by_age).tolist()) / weight
        rows.append((y, "AT", births, mac))
    out = ctx.path("est/birth_p.csv")
    write_csv(_fit_rows(P_c, rows, out, _birth_fit, ("f",), "birth_p"), out)


def _stage_fit_mortality(ctx: _Pipeline) -> None:
    P_c = ctx.read("est/P_country")
    q_hat = ctx.read("est/q_hat")
    D_flat = ctx.read("coarse/D_flat")
    alpha = death_table_alpha()
    rows = []
    for y in range(ctx.t0, ctx.te):
        # the year's own curves, as the mean over that one year
        q_m, q_f = (qref_series(q_hat, (y,), "AT", s) for s in SEXES)
        deaths = sum(D_flat.grid((y,), ("AT",), SEXES, (0,)).ravel().tolist())
        rows.append((y, "AT", deaths) + tuple(
            life_expectancy(q, a, alpha) for a in (0, 65) for q in (q_m, q_f)))
    qref_years = (ctx.t0 - 3, ctx.t0 - 2, ctx.t0 - 1)
    out = ctx.path("est/death_p.csv")
    write_csv(_fit_rows(P_c, rows, out, _mortality_fit(q_hat, qref_years),
                        SEXES, "death_p"), out)


def _stage_residual(ctx: _Pipeline) -> None:
    P_flat = aggregate(ctx.read("est/P_hat"), drop=("age",),
                       coarse_level="country")
    B_flat, D_flat, E_flat = (ctx.read(f"coarse/{k}_flat", k)
                              for k in ("B", "D", "E"))
    diag: dict = {}
    I_flat = residual_immigrants(P_flat, B_flat, D_flat, E_flat,
                                 diagnostics=diag)
    if diag.get("floored"):
        log.warning("residual immigrants: %d cells floored", diag["floored"])
    I_hat = disaggregate_table(I_flat, ctx.read("coarse/I_stats"),
                               ("year", "region", "age"), ctx.full_res(ctx.span),
                               "huntington_hill", regions=ctx.manifest(),
                               uniform_fallback=True)
    write_csv(I_hat, ctx.path("est/immigrants.csv"))


def _stage_fuse(ctx: _Pipeline) -> None:
    ab = ctx.read("coarse/IE_cls", "IE")
    bc = ctx.read("coarse/II_cls", "II")
    ac = ctx.read("coarse/M", "M")
    tables, stats = _fuse_blocks(ab, bc, ac, tol=1e-4, zero_diagonal=True,
                                 years=(ctx.t0, ctx.te - 1))
    _write_od_bundle(tables, ctx.path("est"), open_age=100)
    log.info("fuse: %d blocks, %d unconverged, worst residual %.3g, max %d iterations",
             stats["blocks"], stats["unconverged"], stats["residual"], stats["iterations"])


def _scenario_files(ctx: _Pipeline) -> dict:
    """The table file each key of the simulate stage's scenario names, by
    workdir path, for the pipeline's im_mode."""
    files = {"population": "est/P_hat.csv", "birth_p": "est/birth_p.csv",
             "death_p": "est/death_p.csv", "emig_p": "est/emig_p.csv",
             "immigrants": "est/immigrants.csv"}
    if ctx.im_mode != "none":
        files["ie_p"] = "est/ie_p.csv"
    if ctx.im_mode == "interregional":
        files["od"] = "coarse/M.csv"
    if ctx.im_mode == "full":
        files["m_index"] = "est/m_index.csv"
    return files


def _stage_simulate(ctx: _Pipeline) -> None:
    lines = [
        f"t0={ctx.t0}", f"te={ctx.te}",
        f"scale={_format_value(ctx.scale)}", f"runs={ctx.runs}",
        f"im_mode={ctx.im_mode}", f"seed={ctx.seed + 1}",
    ] + [f"{key}={os.path.relpath(rel, 'est')}"
         for key, rel in _scenario_files(ctx).items()]
    cfg_path = ctx.path("est/scenario.cfg")
    with atomic_open(cfg_path) as fh:
        fh.write("\n".join(lines) + "\n")
    _run_scenario(cfg_path, ctx.path("results"),
                  lambda mean: ctx.write("results/mean", mean))


def _stage_validate(ctx: _Pipeline) -> None:
    rows = compare(ctx.read("results/mean"), ctx.read("truth/P"),
                   groups=("total", "fed", "sex", "age20"),
                   window=(ctx.t0, ctx.te))
    write_deviations(rows, ctx.path("results/deviations.csv"))
    total = next(r for r in rows if r.group == "total")
    log.info("validate: grand total band [%.4f, %.4f]", total.e_min,
             total.e_max)


def _stage_table(ctx: _Pipeline) -> list[tuple]:
    """(name, inputs, outputs, runner) per stage, paths relative to workdir."""
    bundle = [f"truth/{k}.csv" for k in _BUNDLE_TABLES]
    truth = bundle + [f"truth/m_age_{lo}.csv" for lo in FLOW_AGE_CLASSES]
    truth.append("truth/m_index.csv")
    coarse = [f"coarse/{n}.csv" for n in _COARSE]
    est_m = [f"est/m_age_{lo}.csv" for lo in FLOW_AGE_CLASSES]
    est_m.append("est/m_index.csv")
    census = [f"results/census_run{k:02d}.csv" for k in range(ctx.runs)]
    sim_in = [f for rel in _scenario_files(ctx).values()
              for f in (est_m if rel == "est/m_index.csv" else [rel])]
    return [
        ("synth", [], truth, _stage_synth),
        ("degrade", bundle, coarse, _stage_degrade),
        ("disagg", ["coarse/P_coarse.csv", "coarse/P_base.csv"],
         ["est/P_hat.csv"], _stage_disagg),
        ("farr", ["est/P_hat.csv", "coarse/D_country.csv",
                  "coarse/E_country.csv", "coarse/IE_country.csv"],
         ["est/P_country.csv", "est/q_hat.csv", "est/emig_p.csv",
          "est/ie_p.csv"], _stage_farr),
        ("fit-births", ["est/P_country.csv", "coarse/B_flat.csv",
                        "coarse/B_m_country.csv"],
         ["est/birth_p.csv", "est/birth_p.report.csv"], _stage_fit_births),
        ("fit-mortality", ["est/P_country.csv", "est/q_hat.csv",
                           "coarse/D_flat.csv"],
         ["est/death_p.csv", "est/death_p.report.csv"], _stage_fit_mortality),
        ("residual", ["est/P_hat.csv", "coarse/B_flat.csv", "coarse/D_flat.csv",
                      "coarse/E_flat.csv", "coarse/I_stats.csv"],
         ["est/immigrants.csv"], _stage_residual),
        ("fuse", ["coarse/IE_cls.csv", "coarse/II_cls.csv", "coarse/M.csv"],
         est_m, _stage_fuse),
        ("simulate", sim_in,
         ["est/scenario.cfg"] + census + ["results/mean.csv"],
         _stage_simulate),
        ("validate", ["results/mean.csv", "truth/P.csv"],
         ["results/deviations.csv"], _stage_validate),
    ]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_manifest(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    out: dict[str, list] = {}
    for row in read_records(path, ("stage", "role", "file", "sha256")):
        out.setdefault(row["stage"], []).append(
            (row["role"], row["file"], row["sha256"]))
    return out


def _write_manifest(path: str, manifest: dict, order: list) -> None:
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("stage", "role", "file", "sha256"))
        for stage in order:
            for role, rel, sha in manifest.get(stage, ()):
                w.writerow((stage, role, rel, sha))


def _rows_fresh(rows: list, workdir: str, cfg_sha: str) -> bool:
    for role, rel, sha in rows:
        if role == "cfg":
            if sha != cfg_sha:
                return False
        else:
            path = os.path.join(workdir, rel)
            if not os.path.exists(path) or _sha256(path) != sha:
                return False
    return True


def run_pipeline(cfg: Config, base_dir: str = ".") -> list[tuple]:
    """Run the stage sequence, skipping stages whose manifest still holds."""
    ctx = _Pipeline(cfg, base_dir)
    stages = _stage_table(ctx)
    names = [s[0] for s in stages]
    if cfg.has("stages"):
        wanted = cfg.tokens("stages")
        unknown = set(wanted) - set(names)
        if unknown:
            raise DataError(f"unknown pipeline stages {sorted(unknown)}; "
                            f"known: {names}")
        stages = [s for s in stages if s[0] in set(wanted)]
    cfg.reject_unread()
    os.makedirs(ctx.workdir, exist_ok=True)
    manifest_path = os.path.join(ctx.workdir, "manifest.csv")
    manifest = _read_manifest(manifest_path)
    cfg_sha = hashlib.sha256("\n".join(
        f"{k}={v}" for k, v in sorted(cfg.values.items())).encode()).hexdigest()
    actions = []
    try:
        for i, (name, inputs, outputs, runner) in enumerate(stages):
            rows = manifest.get(name)
            if rows is not None and _rows_fresh(rows, ctx.workdir, cfg_sha):
                log.info("stage %s: skipped (up to date)", name)
                actions.append((name, "skipped"))
            else:
                for rel in inputs:
                    if not os.path.exists(ctx.path(rel)):
                        raise DataError(f"stage {name}: missing input {rel}")
                log.info("stage %s: running", name)
                ctx.digests = {}
                runner(ctx)
                rows = [("cfg", "-", cfg_sha)]
                rows += [("in", rel, ctx.digests.get(rel) or _sha256(ctx.path(rel)))
                         for rel in inputs]
                for rel in outputs:
                    if not os.path.exists(ctx.path(rel)):
                        raise DataError(f"stage {name} produced no {rel}")
                    rows.append(("out", rel, _sha256(ctx.path(rel))))
                manifest[name] = rows
                actions.append((name, "run"))
            # hold only the tables a later stage reads, new ones pinned to out rows
            out = {rel: sha for role, rel, sha in rows if role == "out"}
            later = {rel for stage in stages[i + 1:] for rel in stage[1]}
            ctx.held = {rel: (digest or out.get(f"{rel}.csv"), table)
                        for rel, (digest, table) in ctx.held.items()
                        if f"{rel}.csv" in later}
    finally:
        _write_manifest(manifest_path, manifest, names)
    return actions


def cmd_pipeline(args) -> int:
    cfg = Config.from_file(args.config)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    actions = run_pipeline(cfg, base_dir)
    ran = sum(1 for _, a in actions if a == "run")
    log.info("pipeline: %d stages run, %d skipped", ran, len(actions) - ran)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censim",
        description="Census harmonization and cohort microsimulation.")
    parser.add_argument("--version", action="version",
                        version=f"censim {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser("disaggregate", help="split a coarse table by a "
                                            "finer distribution")
    p.add_argument("--source", required=True)
    p.add_argument("--distribution", required=True)
    p.add_argument("--key", required=True,
                   help="comma list of dimensions the distribution varies "
                        "over (year,region,sex,age)")
    p.add_argument("--method", required=True, choices=("hh", "prop"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("ipf2", help="two-marginal fitting per (year, sex)")
    p.add_argument("--rows", required=True)
    p.add_argument("--cols", required=True)
    p.add_argument("--init", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ipf2)

    p = sub.add_parser("ipf3", help="three-marginal fusion per (year, sex)")
    p.add_argument("--ab", required=True, help="origin x age-class marginal")
    p.add_argument("--bc", required=True, help="destination x age-class "
                                               "marginal")
    p.add_argument("--ac", required=True, help="origin x destination table")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--zero-diagonal", action="store_true",
                   help="start the fit with no self-flows")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ipf3)

    p = sub.add_parser("farr", help="event probabilities from counts")
    p.add_argument("--events", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--leavers", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_farr)

    p = sub.add_parser("lifetable", help="life table from one q series")
    p.add_argument("--q", required=True)
    p.add_argument("--alpha0", type=float, default=0.923,
                   help="infant separation factor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lifetable)

    p = sub.add_parser("fit-births", help="fit fertility curves to targets")
    p.add_argument("--targets", required=True,
                   help="CSV with columns year,region,births,mac")
    p.add_argument("--population", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_births)

    p = sub.add_parser("fit-mortality", help="fit mortality curves to targets")
    p.add_argument("--targets", required=True,
                   help="CSV with columns year,region,deaths,le_m_0,le_f_0,"
                        "le_m_65,le_f_65")
    p.add_argument("--population", required=True)
    p.add_argument("--probabilities", required=True,
                   help="observed death probabilities for the reference curve")
    p.add_argument("--qref-years", required=True,
                   help="comma list of reference years, e.g. 2017,2018,2019")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_mortality)

    p = sub.add_parser("balance", help="demographic balance equation tools")
    bsub = p.add_subparsers(dest="balance_command", metavar="operation",
                            required=True)
    b = bsub.add_parser("residual-immigrants",
                        help="back immigration out of the balance equation")
    b.add_argument("--population", required=True)
    b.add_argument("--births", required=True)
    b.add_argument("--deaths", required=True)
    b.add_argument("--emigrants", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_balance_residual)

    p = sub.add_parser("simulate", help="run the cohort microsimulation")
    p.add_argument("--config", required=True,
                   help="key=value scenario file; table paths are relative "
                        "to it")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="relative deviation bands sim vs "
                                        "reference")
    p.add_argument("--sim", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--groups", default="total",
                   help="comma list from total,fed,sex,age20")
    p.add_argument("--window", default=None,
                   help="year window start:end, end exclusive")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic truth bundle")
    p.add_argument("--spec", required=True, help="key=value generator spec")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run the full harmonization loop")
    p.add_argument("--config", required=True,
                   help="key=value pipeline file; workdir is relative to it")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except DataError as err:
        log.error("%s", err)
        return 1
    except OSError as err:
        log.error("%s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
