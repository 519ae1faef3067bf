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
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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
from .fileio import atomic_open
from .fitting import (BirthFitTarget, MortalityFitTarget, average_slice,
                      fit_births, fit_mortality, gaussian_rates,
                      mortality_curves, qref_series)
from .ipf import ipf2, ipf3
from .lifetable import build_life_table, life_expectancy
from .rates import death_table_alpha, farr_probability_model
from .regions import RegionManifest
from .simulate import MALE_SHARE, ScenarioConfig, SimParams, run
from .synthgen import FLOW_AGE_CLASSES, SynthSpec, degrade, generate_truth
from .table import (SEXES, CensusTable, ResolutionSpec, add_tables, aggregate,
                    read_csv, write_csv)
from .validate import compare, mc_mean, read_window, write_deviations

log = logging.getLogger("censim")

_FULL_AGES = tuple(range(101))
_AGES5 = tuple(range(0, 101, 5))

_METHOD_NAMES = {"hh": "huntington_hill", "prop": "proportional"}


def _value_text(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _age_token(lo: int, open_age) -> str:
    return f"{lo}+" if open_age == lo else str(lo)


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
    origins = sorted({k[1] for k in rows_t.keys()})
    dests = sorted({k[1] for k in cols_t.keys()})
    if not origins or not dests:
        raise DataError("marginals are empty")
    init_t = None
    if args.init:
        init_t = read_csv(args.init)
        if not init_t.resolution.od:
            raise DataError("the seed table must be origin-destination")

    entries: dict[tuple, float] = {}
    worst_residual, most_iters, blocks = 0.0, 0, 0
    for y in rres.year_list():
        for s in rres.sex_domain:
            a = np.array([rows_t[(y, o, s, 0)] for o in origins])
            b = np.array([cols_t[(y, d, s, 0)] for d in dests])
            if a.sum() == 0 and b.sum() == 0:
                continue
            if init_t is not None:
                m0 = np.array([[init_t[(y, o, s, d)] for d in dests]
                               for o in origins])
            else:
                m0 = np.ones((len(origins), len(dests)))
            result = ipf2(a, b, m0, tol=args.tol)
            blocks += 1
            worst_residual = max(worst_residual, result.residual)
            most_iters = max(most_iters, result.iterations)
            if not result.converged:
                log.warning("ipf2 block (%d, %s) stopped at residual %.3g",
                            y, s, result.residual)
            for i, o in enumerate(origins):
                for j, d in enumerate(dests):
                    v = result.values[i, j]
                    if v:
                        entries[(y, o, s, d)] = float(v)
    out_res = ResolutionSpec(rres.years, rres.level, sexes=rres.sexes, od=True)
    write_csv(CensusTable(out_res, entries, name="M"), args.out)
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

    origins = sorted({k[1] for k in ab.keys()} | {k[1] for k in ac.keys()})
    dests = sorted({k[1] for k in bc.keys()} | {k[3] for k in ac.keys()})
    classes = abr.ages
    per_class: dict[int, dict] = {lo: {} for lo in classes}
    stats = {"blocks": 0, "iterations": 0, "residual": 0.0, "converged": True}
    for y in range(years[0], years[1] + 1):
        for s in abr.sex_domain:
            A = np.array([[ab[(y, o, s, c)] for c in classes] for o in origins])
            B = np.array([[bc[(y, d, s, c)] for d in dests] for c in classes])
            C = np.array([[ac[(y, o, s, d)] for d in dests] for o in origins])
            if A.sum() == 0 and B.sum() == 0 and C.sum() == 0:
                continue
            m0 = np.ones((len(origins), len(classes), len(dests)))
            if zero_diagonal:
                for i, o in enumerate(origins):
                    for k, d in enumerate(dests):
                        if o == d:
                            m0[i, :, k] = 0.0
            result = ipf3(A, B, C, m0=m0, tol=tol)
            stats["blocks"] += 1
            stats["iterations"] = max(stats["iterations"], result.iterations)
            stats["residual"] = max(stats["residual"], result.residual)
            stats["converged"] &= result.converged
            if not result.converged:
                log.warning("ipf3 block (%d, %s) stopped at residual %.3g",
                            y, s, result.residual)
            for j, lo in enumerate(classes):
                for i, o in enumerate(origins):
                    for k, d in enumerate(dests):
                        v = result.values[i, j, k]
                        if v:
                            per_class[lo][(y, o, s, d)] = float(v)
    od_res = ResolutionSpec(years, abr.level, sexes=abr.sexes, od=True)
    tables = {lo: CensusTable(od_res, per_class[lo], name=f"m{lo}")
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
        index_rows.append((_age_token(lo, open_age), fn))
        written.append(fn)
    with atomic_open(os.path.join(out_dir, "m_index.csv"), newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("age", "path"))
        w.writerows(index_rows)
    written.append("m_index.csv")
    return written


def _read_od_bundle(index_path: str, span: tuple | None = None,
                    level: str | None = None) -> dict:
    """Read the per-age-class flow tables an ``m_index.csv`` points to.

    With span and level given, header-only class files become empty flow
    tables and year ranges widen to cover the span; a file that lists no
    flows in some year simply has none there.
    """
    base = os.path.dirname(os.path.abspath(index_path))
    out = {}
    with open(index_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"age", "path"} - set(reader.fieldnames):
            raise DataError(f"{index_path}: expected header age,path")
        for row in reader:
            try:
                lo = int(row["age"].rstrip("+"))
            except ValueError:
                raise DataError(f"{index_path}: bad age token {row['age']!r}") from None
            rel = row["path"]
            path = rel if os.path.isabs(rel) else os.path.join(base, rel)
            if span is not None and not _csv_has_rows(path):
                res = ResolutionSpec(span, level, od=True)
                out[lo] = CensusTable(res, {}, integer=True, name=f"m{lo}")
            else:
                t = read_csv(path, name=f"m{lo}")
                if span is not None:
                    t = _widen_years(t, span)
                out[lo] = t
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
    log.info("ipf3: %d blocks, worst residual %.3g, max %d iterations",
             stats["blocks"], stats["residual"], stats["iterations"])
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
    if res.ages != tuple(range(len(res.ages))):
        raise DataError("the probability series must carry single ages from 0")
    y, r, s = series[0]
    q = [q_table[(y, r, s, a)] for a in res.ages]
    table = build_life_table(q, death_table_alpha(args.alpha0))
    with atomic_open(args.out, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("age", "q", "l", "d", "L", "T", "e"))
        for a in range(table.a_max + 1):
            tok = _age_token(a, a if a == table.a_max else None)
            w.writerow((tok,) + tuple(_value_text(col[a]) for col in
                                      (table.q, table.l, table.d, table.L,
                                       table.T, table.e)))
    log.info("life table for (%s, %s, %s): e0 = %.2f", y, r, s, table.e[0])
    return 0


def _read_records(path: str, fields: tuple) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(fields) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no target rows")
    return rows


def _report_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}.report{ext or '.csv'}"


def _write_report(path: str, header: tuple, rows: list) -> None:
    with atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _report_row(y: int, r: str, diag: dict, theta) -> tuple:
    return ((y, r, repr(diag["objective"]), diag["iterations"], diag["evals"],
             str(diag["converged"]).lower())
            + tuple(repr(float(t)) for t in theta))


def cmd_fit_births(args) -> int:
    pop = read_csv(args.population)
    records = _read_records(args.targets, ("year", "region", "births", "mac"))
    entries: dict[tuple, float] = {}
    report = []
    years = []
    for row in records:
        try:
            y, r = int(row["year"]), row["region"]
            births, mac = float(row["births"]), float(row["mac"])
        except (TypeError, ValueError):
            raise DataError(f"{args.targets}: bad row {row}") from None
        avg = average_slice(pop, y, r, "f")
        target = BirthFitTarget(births, mac, (avg, avg))
        diag: dict = {}
        theta, value = fit_births(target, diagnostics=diag)
        rates = gaussian_rates(theta)
        for a in range(101):
            if rates[a]:
                entries[(y, r, "f", a)] = float(rates[a])
        report.append(_report_row(y, r, diag, theta))
        years.append(y)
        log.info("fit-births %d %s: objective %.3g in %d evals", y, r, value,
                 diag["evals"])
    res = ResolutionSpec((min(years), max(years)), pop.resolution.level,
                         sexes=("f",), ages=_FULL_AGES, open_age=100)
    write_csv(CensusTable(res, entries, name="birth_p"), args.out)
    _write_report(_report_path(args.out),
                  ("year", "region", "objective", "iterations", "evals",
                   "converged", "theta1", "theta2", "theta3"), report)
    return 0


def cmd_fit_mortality(args) -> int:
    pop = read_csv(args.population)
    prob = read_csv(args.probabilities)
    try:
        qref_years = tuple(int(t) for t in args.qref_years.split(","))
    except ValueError:
        raise DataError(f"bad --qref-years {args.qref_years!r}") from None
    records = _read_records(args.targets, ("year", "region", "deaths", "le_m_0",
                                           "le_f_0", "le_m_65", "le_f_65"))
    qref_cache: dict[str, tuple] = {}
    entries: dict[tuple, float] = {}
    report = []
    years = []
    for row in records:
        try:
            y, r = int(row["year"]), row["region"]
            deaths = float(row["deaths"])
            le = tuple(float(row[c]) for c in ("le_m_0", "le_f_0", "le_m_65",
                                               "le_f_65"))
        except (TypeError, ValueError):
            raise DataError(f"{args.targets}: bad row {row}") from None
        if r not in qref_cache:
            qref_cache[r] = (qref_series(prob, qref_years, r, "m"),
                             qref_series(prob, qref_years, r, "f"))
        qref = qref_cache[r]
        pop_avg = (average_slice(pop, y, r, "m"), average_slice(pop, y, r, "f"))
        target = MortalityFitTarget(deaths, *le)
        diag: dict = {}
        theta, value = fit_mortality(target, pop_avg, qref, diagnostics=diag)
        q_m, q_f = mortality_curves(theta, qref[0], qref[1])
        for s, q in (("m", q_m), ("f", q_f)):
            for a in range(101):
                if q[a]:
                    entries[(y, r, s, a)] = float(q[a])
        report.append(_report_row(y, r, diag, theta))
        years.append(y)
        log.info("fit-mortality %d %s: objective %.3g in %d evals", y, r,
                 value, diag["evals"])
    res = ResolutionSpec((min(years), max(years)), pop.resolution.level,
                         sexes=SEXES, ages=_FULL_AGES, open_age=100)
    write_csv(CensusTable(res, entries, name="death_p"), args.out)
    _write_report(_report_path(args.out),
                  ("year", "region", "objective", "iterations", "evals",
                   "converged") + tuple(f"theta{i}" for i in range(1, 7)),
                  report)
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


def _csv_has_rows(path: str) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return any(True for row in reader if row)


def _widen_years(t: CensusTable, span: tuple) -> CensusTable:
    """Stretch a count table's year range over the span; absent years are zero."""
    y0, y1 = t.resolution.years
    years = (min(y0, span[0]), max(y1, span[1]))
    if years == t.resolution.years:
        return t
    return CensusTable(replace(t.resolution, years=years), dict(t.items()),
                       integer=t.integer, name=t.name)


def _retype_dense(t: CensusTable, span: tuple, widen_years: bool) -> CensusTable:
    """Re-anchor an inferred plain table onto the dense single-age domain.

    A census CSV carries no schema, so a sparse single-age table reads back
    with only the ages and sexes that happened to have nonzero cells.  The
    scenario contract is dense single ages with absent cells meaning zero;
    count tables may additionally be silent over whole years.
    """
    res = t.resolution
    if res.od:
        return t
    years = res.years
    if widen_years:
        years = (min(years[0], span[0]), max(years[1], span[1]))
    need = replace(res, years=years, sexes=SEXES, ages=_FULL_AGES,
                   open_age=100)
    if need == res:
        return t
    return CensusTable(need, dict(t.items()), integer=t.integer, name=t.name)


def _load_scenario(cfg_path: str) -> tuple[ScenarioConfig, SimParams]:
    cfg = Config.from_file(cfg_path)
    base = os.path.dirname(os.path.abspath(cfg_path))

    def path_of(key: str) -> str:
        p = cfg.text(key)
        return p if os.path.isabs(p) else os.path.join(base, p)

    config = ScenarioConfig(
        t0=cfg.integer("t0"), te=cfg.integer("te"),
        step=cfg.text("step", "year"), scale=cfg.floating("scale", 1.0),
        runs=cfg.integer("runs", 1), im_mode=cfg.text("im_mode", "none"),
        seed=cfg.integer("seed", 0),
        male_share=cfg.floating("male_share", MALE_SHARE))
    population = read_csv(path_of("population"), integer=True, name="P")
    level = population.resolution.level
    span = (config.t0, config.te - 1)

    def person_table(key: str, name: str, widen: bool = False,
                     required: bool = True):
        """Event probabilities or counts; a header-only file means none."""
        if not required and not cfg.has(key):
            return None
        path = path_of(key)
        if not _csv_has_rows(path):
            res = ResolutionSpec(span, level, sexes=SEXES, ages=_FULL_AGES,
                                 open_age=100)
            return CensusTable(res, {}, name=name)
        return _retype_dense(read_csv(path, name=name), span, widen)

    if cfg.has("immigrants"):
        immigrants = person_table("immigrants", "I", widen=True)
    else:
        # no key means a closed scenario: an all-zero immigrant table
        res = ResolutionSpec(span, level, sexes=SEXES, ages=_FULL_AGES,
                             open_age=100)
        immigrants = CensusTable(res, {}, name="I")
    if cfg.has("od"):
        od = _widen_years(read_csv(path_of("od"), name="M"), span)
    else:
        od = None
    params = SimParams(
        population=population,
        birth_p=person_table("birth_p", "birth_p"),
        death_p=person_table("death_p", "death_p"),
        emig_p=person_table("emig_p", "emig_p"),
        immigrants=immigrants,
        ie_p=person_table("ie_p", "ie_p", required=False),
        od=od,
        ii=person_table("ii", "II", widen=True, required=False),
        m_by_age=_read_od_bundle(path_of("m_index"), span, level)
        if cfg.has("m_index") else None)
    return config, params


def _run_scenario(cfg_path: str, out_dir: str) -> list[str]:
    config, params = _load_scenario(cfg_path)
    outputs = run(config, params)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for k, output in enumerate(outputs):
        fn = f"census_run{k:02d}.csv"
        write_csv(output.census, os.path.join(out_dir, fn))
        written.append(fn)
    write_csv(mc_mean(outputs).census, os.path.join(out_dir, "mean.csv"))
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


def _write_bundle(bundle: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key in _BUNDLE_TABLES:
        fn = f"{key}.csv"
        write_csv(bundle[key], os.path.join(out_dir, fn))
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
    return SynthSpec(regions=cfg.tokens("regions"), level=cfg.text("level"),
                     years=(cfg.integer("y0"), cfg.integer("y1")),
                     base=cfg.floating("base", 2000.0),
                     seed=cfg.integer("seed", 0), **extras)


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
        workdir = cfg.text("workdir")
        if not os.path.isabs(workdir):
            workdir = os.path.join(base_dir, workdir)
        self.workdir = workdir
        self.level = cfg.text("level", "municipalities")
        self.regions = cfg.tokens("regions", _DEFAULT_REGIONS)
        self.y0 = cfg.integer("y0", 1999)
        self.y1 = cfg.integer("y1", 2027)
        self.t0 = cfg.integer("t0", 2002)
        self.te = cfg.integer("te", 2027)
        self.base = cfg.floating("base", 400.0)
        self.seed = cfg.integer("seed", 42)
        self.runs = cfg.integer("runs", 3)
        self.scale = cfg.floating("scale", 1.0)
        self.im_mode = cfg.text("im_mode", "full")
        self.step = cfg.text("step", "year")
        if self.im_mode not in ("none", "interregional", "full"):
            raise DataError(
                f"pipeline im_mode must be none, interregional or full, "
                f"got {self.im_mode!r}")
        if not self.y0 <= self.t0 - 3:
            raise DataError("need three count years before t0 for the "
                            "mortality reference (y0 <= t0 - 3)")
        if not self.t0 < self.te <= self.y1:
            raise DataError("need y0 <= t0 < te <= y1")

    def path(self, rel: str) -> str:
        return os.path.join(self.workdir, rel)

    @property
    def span(self) -> tuple:
        return (self.y0, self.y1 - 1)

    @property
    def sim_years(self) -> tuple:
        return (self.t0, self.te - 1)

    def manifest(self) -> RegionManifest:
        return RegionManifest({self.level: self.regions})

    def full_res(self, years: tuple, level: str | None = None,
                 sexes: tuple = SEXES) -> ResolutionSpec:
        return ResolutionSpec(years, level or self.level, sexes=sexes,
                              ages=_FULL_AGES, open_age=100)


def _stage_synth(ctx: _Pipeline) -> None:
    spec = SynthSpec(regions=ctx.regions, level=ctx.level,
                     years=(ctx.y0, ctx.y1), base=ctx.base, seed=ctx.seed)
    _write_bundle(generate_truth(spec), ctx.path("truth"))


def _stage_degrade(ctx: _Pipeline) -> None:
    tdir, cdir = ctx.path("truth"), ctx.path("coarse")
    os.makedirs(cdir, exist_ok=True)
    span = ctx.span

    def load(name, resolution):
        return read_csv(os.path.join(tdir, f"{name}.csv"), integer=True,
                        resolution=resolution, name=name)

    def save(table, name):
        write_csv(table, os.path.join(cdir, f"{name}.csv"))

    full = ctx.full_res(span)
    P = load("P", ctx.full_res((ctx.y0, ctx.y1)))
    B = load("B", ResolutionSpec(span, ctx.level, ages=(0,), open_age=None))
    B_m = load("B_m", replace(full, sexes=("f",)))
    D, E, I = load("D", full), load("E", full), load("I", full)
    IE, II = load("IE", full), load("II", full)
    country_full = ResolutionSpec(span, "country", sexes=SEXES,
                                  ages=_FULL_AGES, open_age=100)
    save(degrade(P, ResolutionSpec((ctx.y0, ctx.y1), "districts", sexes=SEXES,
                                   ages=_AGES5, open_age=100)), "P_coarse")
    save(degrade(P, ResolutionSpec((ctx.t0, ctx.t0), ctx.level, sexes=SEXES,
                                   ages=_FULL_AGES, open_age=100)), "P_base")
    save(degrade(B, ResolutionSpec(span, "country", sexes=SEXES)), "B_flat")
    save(degrade(B_m, replace(country_full, sexes=("f",))), "B_m_country")
    save(degrade(D, country_full), "D_country")
    save(degrade(E, country_full), "E_country")
    save(degrade(IE, country_full), "IE_country")
    save(degrade(D, ResolutionSpec(span, "country", sexes=SEXES)), "D_flat")
    save(degrade(E, ResolutionSpec(span, "country", sexes=SEXES)), "E_flat")
    save(degrade(I, ResolutionSpec(span, "districts", sexes=SEXES,
                                   ages=_AGES5, open_age=100)), "I_stats")
    flow_cls = ResolutionSpec(span, ctx.level, sexes=SEXES,
                              ages=FLOW_AGE_CLASSES, open_age=100)
    save(degrade(IE, flow_cls), "IE_cls")
    save(degrade(II, flow_cls), "II_cls")


def _stage_disagg(ctx: _Pipeline) -> None:
    source = read_csv(ctx.path("coarse/P_coarse.csv"), integer=True, name="P",
                      resolution=ResolutionSpec((ctx.y0, ctx.y1), "districts",
                                                sexes=SEXES, ages=_AGES5,
                                                open_age=100))
    dist = read_csv(ctx.path("coarse/P_base.csv"), integer=True,
                    resolution=ctx.full_res((ctx.t0, ctx.t0)))
    target = ctx.full_res((ctx.y0, ctx.y1))
    os.makedirs(ctx.path("est"), exist_ok=True)
    P_hat = disaggregate_table(source, dist, ("region", "age"), target,
                               "huntington_hill", regions=ctx.manifest(),
                               uniform_fallback=True)
    write_csv(P_hat, ctx.path("est/P_hat.csv"))


def _broadcast(table: CensusTable, regions: tuple, level: str,
               years: tuple) -> CensusTable:
    """Copy a one-region table onto every listed region over a year range."""
    entries = {}
    for (y, _, s, a), v in table.items():
        if years[0] <= y <= years[1]:
            for r in regions:
                entries[(y, r, s, a)] = v
    res = replace(table.resolution, level=level, years=years)
    return CensusTable(res, entries, name=table.name)


def _stage_farr(ctx: _Pipeline) -> None:
    P_hat = read_csv(ctx.path("est/P_hat.csv"), integer=True,
                     resolution=ctx.full_res((ctx.y0, ctx.y1)))
    P_c = aggregate(P_hat, coarse_level="country")
    write_csv(P_c, ctx.path("est/P_country.csv"))
    country_full = ctx.full_res(ctx.span, level="country")
    D_c = read_csv(ctx.path("coarse/D_country.csv"), name="D",
                   resolution=country_full)
    E_c = read_csv(ctx.path("coarse/E_country.csv"), name="E",
                   resolution=country_full)
    IE_c = read_csv(ctx.path("coarse/IE_country.csv"), name="IE",
                    resolution=country_full)
    Q = add_tables([D_c, E_c], name="Q")
    write_csv(farr_probability_model(D_c, P_c, Q), ctx.path("est/q_hat.csv"))
    emig = farr_probability_model(E_c, P_c, Q)
    ie = farr_probability_model(IE_c, P_c, Q)
    write_csv(_broadcast(emig, ctx.regions, ctx.level, ctx.sim_years),
              ctx.path("est/emig_p.csv"))
    write_csv(_broadcast(ie, ctx.regions, ctx.level, ctx.sim_years),
              ctx.path("est/ie_p.csv"))


def _stage_fit_births(ctx: _Pipeline) -> None:
    P_c = read_csv(ctx.path("est/P_country.csv"),
                   resolution=ctx.full_res((ctx.y0, ctx.y1), level="country"))
    B_flat = read_csv(ctx.path("coarse/B_flat.csv"),
                      resolution=ResolutionSpec(ctx.span, "country"))
    B_m = read_csv(ctx.path("coarse/B_m_country.csv"),
                   resolution=ctx.full_res(ctx.span, level="country",
                                           sexes=("f",)))
    entries: dict[tuple, float] = {}
    report = []
    for y in range(ctx.t0, ctx.te):
        births = sum(B_flat[(y, "AT", s, 0)] for s in SEXES)
        weight = sum(B_m[(y, "AT", "f", a)] for a in range(101))
        if weight <= 0:
            raise DataError(f"no recorded births in {y}")
        mac_y = sum(a * B_m[(y, "AT", "f", a)] for a in range(101)) / weight
        avg = average_slice(P_c, y, "AT", "f")
        diag: dict = {}
        theta, _ = fit_births(BirthFitTarget(births, mac_y, (avg, avg)),
                              diagnostics=diag)
        rates = gaussian_rates(theta)
        for r in ctx.regions:
            for a in range(101):
                if rates[a]:
                    entries[(y, r, "f", a)] = float(rates[a])
        report.append(_report_row(y, "AT", diag, theta))
        log.info("fit-births %d: objective %.3g", y, diag["objective"])
    res = ResolutionSpec(ctx.sim_years, ctx.level, sexes=("f",),
                         ages=_FULL_AGES, open_age=100)
    write_csv(CensusTable(res, entries, name="birth_p"),
              ctx.path("est/birth_p.csv"))
    _write_report(ctx.path("est/birth_p.report.csv"),
                  ("year", "region", "objective", "iterations", "evals",
                   "converged", "theta1", "theta2", "theta3"), report)


def _stage_fit_mortality(ctx: _Pipeline) -> None:
    country_full = ctx.full_res(ctx.span, level="country")
    P_c = read_csv(ctx.path("est/P_country.csv"),
                   resolution=ctx.full_res((ctx.y0, ctx.y1), level="country"))
    q_hat = read_csv(ctx.path("est/q_hat.csv"), resolution=country_full)
    D_flat = read_csv(ctx.path("coarse/D_flat.csv"),
                      resolution=ResolutionSpec(ctx.span, "country"))
    alpha = death_table_alpha()
    qref_years = (ctx.t0 - 3, ctx.t0 - 2, ctx.t0 - 1)
    qref = (qref_series(q_hat, qref_years, "AT", "m"),
            qref_series(q_hat, qref_years, "AT", "f"))
    entries: dict[tuple, float] = {}
    report = []
    for y in range(ctx.t0, ctx.te):
        deaths = sum(D_flat[(y, "AT", s, 0)] for s in SEXES)
        qv = {s: np.array([q_hat[(y, "AT", s, a)] for a in range(101)])
              for s in SEXES}
        target = MortalityFitTarget(
            deaths,
            life_expectancy(qv["m"], 0, alpha),
            life_expectancy(qv["f"], 0, alpha),
            life_expectancy(qv["m"], 65, alpha),
            life_expectancy(qv["f"], 65, alpha))
        pop_avg = (average_slice(P_c, y, "AT", "m"),
                   average_slice(P_c, y, "AT", "f"))
        diag: dict = {}
        theta, _ = fit_mortality(target, pop_avg, qref, alpha=alpha,
                                 diagnostics=diag)
        q_m, q_f = mortality_curves(theta, qref[0], qref[1])
        for s, q in (("m", q_m), ("f", q_f)):
            for r in ctx.regions:
                for a in range(101):
                    if q[a]:
                        entries[(y, r, s, a)] = float(q[a])
        report.append(_report_row(y, "AT", diag, theta))
        log.info("fit-mortality %d: objective %.3g", y, diag["objective"])
    res = ResolutionSpec(ctx.sim_years, ctx.level, sexes=SEXES,
                         ages=_FULL_AGES, open_age=100)
    write_csv(CensusTable(res, entries, name="death_p"),
              ctx.path("est/death_p.csv"))
    _write_report(ctx.path("est/death_p.report.csv"),
                  ("year", "region", "objective", "iterations", "evals",
                   "converged") + tuple(f"theta{i}" for i in range(1, 7)),
                  report)


def _stage_residual(ctx: _Pipeline) -> None:
    P_hat = read_csv(ctx.path("est/P_hat.csv"), integer=True,
                     resolution=ctx.full_res((ctx.y0, ctx.y1)))
    P_flat = aggregate(P_hat, drop=("age",), coarse_level="country")
    flat = ResolutionSpec(ctx.span, "country")
    B_flat = read_csv(ctx.path("coarse/B_flat.csv"), name="B", resolution=flat)
    D_flat = read_csv(ctx.path("coarse/D_flat.csv"), name="D", resolution=flat)
    E_flat = read_csv(ctx.path("coarse/E_flat.csv"), name="E", resolution=flat)
    diag: dict = {}
    I_flat = residual_immigrants(P_flat, B_flat, D_flat, E_flat,
                                 diagnostics=diag)
    if diag.get("floored"):
        log.warning("residual immigrants: %d cells floored", diag["floored"])
    I_stats = read_csv(ctx.path("coarse/I_stats.csv"), integer=True,
                       resolution=ResolutionSpec(ctx.span, "districts",
                                                 sexes=SEXES, ages=_AGES5,
                                                 open_age=100))
    target = ctx.full_res(ctx.span)
    I_hat = disaggregate_table(I_flat, I_stats, ("year", "region", "age"),
                               target, "huntington_hill",
                               regions=ctx.manifest(), uniform_fallback=True)
    write_csv(I_hat, ctx.path("est/immigrants.csv"))


def _stage_fuse(ctx: _Pipeline) -> None:
    flow_cls = ResolutionSpec(ctx.span, ctx.level, sexes=SEXES,
                              ages=FLOW_AGE_CLASSES, open_age=100)
    ab = read_csv(ctx.path("coarse/IE_cls.csv"), name="IE",
                  resolution=flow_cls)
    bc = read_csv(ctx.path("coarse/II_cls.csv"), name="II",
                  resolution=flow_cls)
    ac = read_csv(ctx.path("truth/M.csv"), name="M",
                  resolution=ResolutionSpec(ctx.span, ctx.level, od=True))
    tables, stats = _fuse_blocks(ab, bc, ac, tol=1e-4, zero_diagonal=True,
                                 years=ctx.sim_years)
    _write_od_bundle(tables, ctx.path("est"), open_age=100)
    log.info("fuse: %d blocks, worst residual %.3g, max %d iterations",
             stats["blocks"], stats["residual"], stats["iterations"])


def _stage_simulate(ctx: _Pipeline) -> None:
    lines = [
        f"t0={ctx.t0}", f"te={ctx.te}", f"step={ctx.step}",
        f"scale={_value_text(ctx.scale)}", f"runs={ctx.runs}",
        f"im_mode={ctx.im_mode}", f"seed={ctx.seed + 1}",
        "population=P_hat.csv", "birth_p=birth_p.csv", "death_p=death_p.csv",
        "emig_p=emig_p.csv", "immigrants=immigrants.csv",
    ]
    if ctx.im_mode != "none":
        lines.append("ie_p=ie_p.csv")
    if ctx.im_mode == "interregional":
        lines.append(f"od={os.path.join('..', 'truth', 'M.csv')}")
    if ctx.im_mode == "full":
        lines.append("m_index=m_index.csv")
    cfg_path = ctx.path("est/scenario.cfg")
    with atomic_open(cfg_path) as fh:
        fh.write("\n".join(lines) + "\n")
    _run_scenario(cfg_path, ctx.path("results"))


def _stage_validate(ctx: _Pipeline) -> None:
    sim = read_csv(ctx.path("results/mean.csv"),
                   resolution=ctx.full_res((ctx.t0, ctx.te)))
    ref = read_csv(ctx.path("truth/P.csv"), integer=True,
                   resolution=ctx.full_res((ctx.y0, ctx.y1)))
    rows = compare(sim, ref, groups=("total", "fed", "sex", "age20"),
                   window=(ctx.t0, ctx.te))
    write_deviations(rows, ctx.path("results/deviations.csv"))
    total = next(r for r in rows if r.group == "total")
    log.info("validate: grand total band [%.4f, %.4f]", total.e_min,
             total.e_max)


def _stage_table(ctx: _Pipeline) -> list[tuple]:
    """(name, inputs, outputs, runner) per stage, paths relative to workdir."""
    truth = [f"truth/{k}.csv" for k in _BUNDLE_TABLES]
    truth += [f"truth/m_age_{lo}.csv" for lo in FLOW_AGE_CLASSES]
    truth.append("truth/m_index.csv")
    coarse = [f"coarse/{n}.csv" for n in
              ("P_coarse", "P_base", "B_flat", "B_m_country", "D_country",
               "E_country", "IE_country", "D_flat", "E_flat", "I_stats",
               "IE_cls", "II_cls")]
    est_m = [f"est/m_age_{lo}.csv" for lo in FLOW_AGE_CLASSES]
    est_m.append("est/m_index.csv")
    census = [f"results/census_run{k:02d}.csv" for k in range(ctx.runs)]
    sim_in = ["est/P_hat.csv", "est/birth_p.csv", "est/death_p.csv",
              "est/emig_p.csv", "est/immigrants.csv"]
    if ctx.im_mode != "none":
        sim_in.append("est/ie_p.csv")
    if ctx.im_mode == "interregional":
        sim_in.append("truth/M.csv")
    if ctx.im_mode == "full":
        sim_in += est_m
    return [
        ("synth", [], truth, _stage_synth),
        ("degrade", [f"truth/{k}.csv" for k in
                     ("P", "B", "B_m", "D", "E", "I", "IE", "II")],
         coarse, _stage_degrade),
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
        ("fuse", ["coarse/IE_cls.csv", "coarse/II_cls.csv", "truth/M.csv"],
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                {"stage", "role", "file", "sha256"} - set(reader.fieldnames):
            raise DataError(f"{path}: expected header stage,role,file,sha256")
        for row in reader:
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
    os.makedirs(ctx.workdir, exist_ok=True)
    stages = _stage_table(ctx)
    names = [s[0] for s in stages]
    if cfg.has("stages"):
        wanted = cfg.tokens("stages")
        unknown = set(wanted) - set(names)
        if unknown:
            raise DataError(f"unknown pipeline stages {sorted(unknown)}; "
                            f"known: {names}")
        stages = [s for s in stages if s[0] in set(wanted)]
    manifest_path = os.path.join(ctx.workdir, "manifest.csv")
    manifest = _read_manifest(manifest_path)
    cfg_sha = hashlib.sha256("\n".join(
        f"{k}={v}" for k, v in sorted(cfg.values.items())).encode()).hexdigest()
    actions = []
    try:
        for name, inputs, outputs, runner in stages:
            rows = manifest.get(name)
            if rows is not None and _rows_fresh(rows, ctx.workdir, cfg_sha):
                log.info("stage %s: skipped (up to date)", name)
                actions.append((name, "skipped"))
                continue
            for rel in inputs:
                if not os.path.exists(ctx.path(rel)):
                    raise DataError(f"stage {name}: missing input {rel}")
            log.info("stage %s: running", name)
            runner(ctx)
            rows = [("cfg", "-", cfg_sha)]
            rows += [("in", rel, _sha256(ctx.path(rel))) for rel in inputs]
            for rel in outputs:
                if not os.path.exists(ctx.path(rel)):
                    raise DataError(f"stage {name} produced no {rel}")
                rows.append(("out", rel, _sha256(ctx.path(rel))))
            manifest[name] = rows
            actions.append((name, "run"))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censim",
        description="Census harmonization and cohort microsimulation.")
    parser.add_argument("--version", action="version",
                        version=f"censim {__version__}")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="cap worker threads (stages currently run "
                             "sequentially)")
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
                   help="start from a seed with zero self-flows")
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
    if args.threads < 1:
        parser.error(f"--threads must be positive, got {args.threads}")
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
