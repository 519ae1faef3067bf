import csv
import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from censim import cli
from censim.cli import (_Pipeline, _fuse_blocks, _read_od_bundle,
                        _read_targets, _stage_table, main, run_pipeline)
from censim.configfile import Config
from censim.errors import DataError
from censim.fitting import activation, average_slice, gaussian_rates
from censim.lifetable import life_expectancy
from censim.rates import death_table_alpha
from censim.table import (SEXES, CensusTable, ResolutionSpec, aggregate,
                          read_csv, write_csv)
from test_csv_oracle import ref_read_csv

FULL = tuple(range(101))


def res(years, level="federalstates", sexes=SEXES, ages=(0,), open_age=0,
        od=False):
    return ResolutionSpec(years, level, sexes=sexes, ages=ages,
                          open_age=open_age, od=od)


def save(tmp_path, name, table):
    path = tmp_path / name
    write_csv(table, str(path))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "censim 0.1.0" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["farr", "--bogus", "x"])
    assert exc.value.code == 2


def test_threads_must_be_positive(capsys):
    # censim has no --threads: stages and Monte Carlo runs are sequential
    with pytest.raises(SystemExit) as exc:
        main(["--threads=2", "validate", "--sim", "a", "--ref", "b",
              "--out", "c"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path):
    code = main(["farr", "--events", str(tmp_path / "no.csv"),
                 "--population", str(tmp_path / "no.csv"),
                 "--leavers", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 1


def test_disaggregate_hh_conserves(tmp_path):
    source = CensusTable(res((2000, 2001), level="country"), {
        (2000, "AT", "m", 0): 11, (2000, "AT", "f", 0): 7,
        (2001, "AT", "m", 0): 5, (2001, "AT", "f", 0): 9,
    }, integer=True)
    dist = CensusTable(res((2000, 2000), sexes=()), {
        (2000, "AT-1", "-", 0): 3.0, (2000, "AT-2", "-", 0): 1.0,
    })
    out_path = tmp_path / "out.csv"
    code = main(["disaggregate", "--source", save(tmp_path, "s.csv", source),
                 "--distribution", save(tmp_path, "d.csv", dist),
                 "--key", "region", "--method", "hh",
                 "--out", str(out_path)])
    assert code == 0
    out = read_csv(str(out_path), integer=True)
    assert out.resolution.level == "federalstates"
    assert dict(aggregate(out, coarse_level="country").items()) == dict(source.items())
    # 3:1 split of 11 -> 8/3 by the divisor rule
    assert out[(2000, "AT-1", "m", 0)] == 8
    assert out[(2000, "AT-2", "m", 0)] == 3


def test_disaggregate_hh_total_outside_int64_exits_one(tmp_path, caplog):
    source = CensusTable(res((2000, 2000), level="country"),
                         {(2000, "AT", "m", 0): 1e19}, integer=True)
    dist = CensusTable(res((2000, 2000), sexes=()), {(2000, "AT-1", "-", 0): 1.0})
    code = main(["disaggregate", "--source", save(tmp_path, "s.csv", source),
                 "--distribution", save(tmp_path, "d.csv", dist),
                 "--key", "region", "--method", "hh",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "value 1e+19 at (2000, 'AT', 'm', 0) is outside 0..2**48 - 1" in caplog.text


def test_disaggregate_hh_total_of_2_48_exits_one(tmp_path, caplog):
    source = CensusTable(res((2000, 2000), level="country"),
                         {(2000, "AT", "m", 0): 2**48}, integer=True)
    dist = CensusTable(res((2000, 2000), sexes=()), {(2000, "AT-1", "-", 0): 1.0})
    code = main(["disaggregate", "--source", save(tmp_path, "s.csv", source),
                 "--distribution", save(tmp_path, "d.csv", dist),
                 "--key", "region", "--method", "hh",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert ("value 281474976710656.0 at (2000, 'AT', 'm', 0) is outside 0..2**48 - 1"
            in caplog.text)
    assert not (tmp_path / "out.csv").exists()


def test_disaggregate_bad_method_exits_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["disaggregate", "--source", "s", "--distribution", "d",
              "--key", "region", "--method", "nope", "--out", "o"])
    assert exc.value.code == 2


def test_ipf2_cli_matches_marginals(tmp_path):
    regions = ("AT-1", "AT-2", "AT-3")
    rows = CensusTable(res((2000, 2000)), {
        (2000, r, s, 0): v for s in SEXES
        for r, v in zip(regions, (30.0, 20.0, 10.0))})
    cols = CensusTable(res((2000, 2000)), {
        (2000, r, s, 0): v for s in SEXES
        for r, v in zip(regions, (25.0, 25.0, 10.0))})
    seed = CensusTable(res((2000, 2000), od=True), {
        (2000, o, s, d): 1.0 for s in SEXES
        for o in regions for d in regions if o != d})
    out_path = tmp_path / "m.csv"
    code = main(["ipf2", "--rows", save(tmp_path, "a.csv", rows),
                 "--cols", save(tmp_path, "b.csv", cols),
                 "--init", save(tmp_path, "m0.csv", seed),
                 "--tol", "1e-10", "--out", str(out_path)])
    assert code == 0
    m = read_csv(str(out_path))
    assert m.resolution.od
    for s in SEXES:
        for o in regions:
            got = sum(m[(2000, o, s, d)] for d in regions)
            assert got == pytest.approx(rows[(2000, o, s, 0)], abs=1e-8)
        for d in regions:
            got = sum(m[(2000, o, s, d)] for o in regions)
            assert got == pytest.approx(cols[(2000, d, s, 0)], abs=1e-8)
        # structural zeros from the seed stay zero
        assert all(m[(2000, r, s, r)] == 0 for r in regions)


def test_ipf3_cli_writes_class_bundle(tmp_path):
    regions = ("AT-1", "AT-2")
    classes = (0, 50)
    truth = {
        0: {("AT-1", "AT-2"): 12.0, ("AT-2", "AT-1"): 6.0},
        50: {("AT-1", "AT-2"): 4.0, ("AT-2", "AT-1"): 10.0},
    }
    cres = res((2000, 2000), sexes=("m",), ages=classes, open_age=50)
    ab = CensusTable(cres, {
        (2000, o, "m", c): sum(v for (oo, _), v in truth[c].items() if oo == o)
        for c in classes for o in regions})
    bc = CensusTable(cres, {
        (2000, d, "m", c): sum(v for (_, dd), v in truth[c].items() if dd == d)
        for c in classes for d in regions})
    ac = CensusTable(res((2000, 2000), sexes=("m",), od=True), {
        (2000, o, "m", d): sum(truth[c][(o, d)] for c in classes)
        for (o, d) in truth[0]})
    out_dir = tmp_path / "fused"
    code = main(["ipf3", "--ab", save(tmp_path, "ab.csv", ab),
                 "--bc", save(tmp_path, "bc.csv", bc),
                 "--ac", save(tmp_path, "ac.csv", ac),
                 "--zero-diagonal", "--out-dir", str(out_dir)])
    assert code == 0
    index = read_rows(out_dir / "m_index.csv")
    assert [r["age"] for r in index] == ["0", "50+"]
    for row, lo in zip(index, classes):
        table = read_csv(str(out_dir / row["path"]))
        for o in regions:
            got = sum(table[(2000, o, "m", d)] for d in regions)
            assert got == pytest.approx(ab[(2000, o, "m", lo)], abs=1e-3)
    # the two-region case is fully determined, so the truth comes back
    m0 = read_csv(str(out_dir / "m_age_0.csv"))
    assert m0[(2000, "AT-1", "m", "AT-2")] == pytest.approx(12.0, abs=1e-3)


def test_fuse_memory_follows_the_flows_not_the_tensor():
    # 300 origins and destinations, 20 classes and 3 flows per origin: one
    # float64 origin x class x destination tensor would take 14.4 MB
    regions = tuple(f"{(1 + d // 30) * 100 + 1 + d % 30}{m:02d}"
                    for d in range(15) for m in range(1, 21))
    classes = tuple(range(0, 100, 5))
    rng = np.random.default_rng(3)
    flows = {}
    for i, o in enumerate(regions):
        for k in rng.choice(len(regions) - 1, 3, replace=False):
            d = regions[k + (k >= i)]
            for c in classes:
                flows[(o, c, d)] = float(rng.integers(1, 50))
    sums = [{}, {}, {}]
    for (o, c, d), v in flows.items():
        for part, key in zip(sums, ((o, c), (d, c), (o, d))):
            part[key] = part.get(key, 0.0) + v
    cres = res((2000, 2000), level="municipalities", sexes=("m",), ages=classes,
               open_age=95)
    ab, bc = (CensusTable(cres, {(2000, r, "m", c): v for (r, c), v in part.items()})
              for part in sums[:2])
    ac = CensusTable(res((2000, 2000), level="municipalities", sexes=("m",), od=True),
                     {(2000, o, "m", d): v for (o, d), v in sums[2].items()})
    tracemalloc.start()
    try:
        tables, stats = _fuse_blocks(ab, bc, ac, tol=1e-4, zero_diagonal=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["blocks"] == 1 and stats["converged"]
    assert peak < len(regions) * len(classes) * len(regions) * 8
    assert sum(len(t) for t in tables.values()) == len(flows)


def test_farr_cli_stationary_value(tmp_path):
    level = "country"
    P = CensusTable(res((2000, 2002), level=level), {
        (y, "AT", s, 0): 1000.0 for y in (2000, 2001, 2002) for s in SEXES})
    X = CensusTable(res((2000, 2001), level=level), {
        (y, "AT", s, 0): 100.0 for y in (2000, 2001) for s in SEXES})
    out_path = tmp_path / "p.csv"
    code = main(["farr", "--events", save(tmp_path, "x.csv", X),
                 "--population", save(tmp_path, "pp.csv", P),
                 "--leavers", save(tmp_path, "q.csv", X),
                 "--out", str(out_path)])
    assert code == 0
    prob = read_csv(str(out_path))
    assert prob[(2000, "AT", "m", 0)] == pytest.approx(100.0 / 1050.0,
                                                       rel=1e-12)


def test_farr_cli_unexposed_events_exit_one(tmp_path, caplog):
    P = CensusTable(res((2000, 2001), level="country", sexes=("m",)),
                    {(y, "AT", "m", 0): 1000.0 for y in (2000, 2001)})
    X = CensusTable(res((2000, 2001), sexes=("m",)),
                    {(y, "AT-1", "m", 0): 5.0 for y in (2000, 2001)})
    Q = CensusTable(res((2000, 2001), sexes=("m",)),
                    {(y, "AT-2", "m", 0): 1.0 for y in (2000, 2001)})
    code = main(["farr", "--events", save(tmp_path, "x.csv", X),
                 "--population", save(tmp_path, "pp.csv", P),
                 "--leavers", save(tmp_path, "q.csv", Q),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "events at (2000, 'AT-1', 'm', 0) but no exposure" in caplog.text


def test_lifetable_cli_constant_hazard(tmp_path):
    q = 0.1
    series = CensusTable(res((2000, 2000), level="country", sexes=("f",),
                             ages=FULL, open_age=100),
                         {(2000, "AT", "f", a): q for a in FULL})
    out_path = tmp_path / "lt.csv"
    code = main(["lifetable", "--q", save(tmp_path, "q.csv", series),
                 "--alpha0", "0.5", "--out", str(out_path)])
    assert code == 0
    rows = read_rows(out_path)
    assert [r["age"] for r in rows[:2]] == ["0", "1"]
    assert rows[-1]["age"] == "100+"
    assert float(rows[0]["e"]) == pytest.approx((1 - q / 2) / q, rel=1e-12)
    assert float(rows[0]["l"]) == 100000.0


def test_lifetable_cli_rejects_two_series(tmp_path):
    series = CensusTable(res((2000, 2000), level="country", ages=FULL,
                             open_age=100),
                         {(2000, "AT", s, a): 0.1 for s in SEXES for a in FULL})
    code = main(["lifetable", "--q", save(tmp_path, "q.csv", series),
                 "--out", str(tmp_path / "lt.csv")])
    assert code == 1


@pytest.fixture(scope="module")
def fit_births_run(tmp_path_factory):
    """One `censim fit-births` call on a known Gaussian fertility curve."""
    tmp_path = tmp_path_factory.mktemp("fit_births")
    rng = np.random.default_rng(5)
    pop = CensusTable(res((2010, 2011), level="country", ages=FULL,
                          open_age=100),
                      {(y, "AT", s, a): float(v)
                       for y in (2010, 2011) for s in SEXES
                       for a, v in enumerate(rng.integers(800, 1200, 101))})
    theta = (0.06, 29.0, 5.5)
    rates = gaussian_rates(theta)
    p_avg = average_slice(pop, 2010, "AT", "f")
    births = float(rates @ p_avg)
    mac = float((np.arange(101.0) @ rates) / rates.sum())
    targets = tmp_path / "targets.csv"
    targets.write_text(f"year,region,births,mac\n2010,AT,{births!r},{mac!r}\n")
    code = main(["fit-births", "--targets", str(targets),
                 "--population", save(tmp_path, "pop.csv", pop),
                 "--out", str(tmp_path / "rates.csv")])
    assert code == 0
    return tmp_path, p_avg, births


def test_fit_births_cli_recovers_totals(fit_births_run):
    tmp_path, p_avg, births = fit_births_run
    fitted = read_csv(str(tmp_path / "rates.csv"))
    got = sum(fitted[(2010, "AT", "f", a)] * p_avg[a] for a in FULL)
    assert got == pytest.approx(births, rel=1e-3)
    report = read_rows(tmp_path / "rates.report.csv")
    assert report[0]["year"] == "2010"
    assert float(report[0]["objective"]) < 1e-2


@pytest.fixture(scope="module")
def fit_mortality_run(tmp_path_factory):
    """One `censim fit-mortality` call on known multiplier curves."""
    tmp_path = tmp_path_factory.mktemp("fit_mortality")
    ages = np.arange(101.0)
    base = np.minimum(0.9, 1e-4 * np.exp(0.085 * ages))
    years = (2007, 2008, 2009, 2010, 2011)
    prob = CensusTable(res(( years[0], years[-1]), level="country", ages=FULL,
                           open_age=100),
                       {(y, "AT", s, a): float(base[a])
                        for y in years for s in SEXES for a in FULL})
    pop = CensusTable(res((2010, 2011), level="country", ages=FULL,
                          open_age=100),
                      {(y, "AT", s, a): 1000.0
                       for y in (2010, 2011) for s in SEXES for a in FULL})
    theta = (1.05, 0.92, 1.1, 0.97, 1.03, 0.9)
    phi = np.stack(activation(ages))
    q_m = np.clip(np.asarray(theta[:3]) @ phi * base, 0, 1)
    q_f = np.clip(np.asarray(theta[3:]) @ phi * base, 0, 1)
    alpha = death_table_alpha()
    avec = np.array([alpha(i) for i in range(101)])
    deaths = float(sum((1000.0 * (q / (1 - avec * q))).sum()
                       for q in (q_m, q_f)))
    row = (2010, "AT", deaths,
           life_expectancy(q_m, 0, alpha), life_expectancy(q_f, 0, alpha),
           life_expectancy(q_m, 65, alpha), life_expectancy(q_f, 65, alpha))
    targets = tmp_path / "targets.csv"
    targets.write_text(
        "year,region,deaths,le_m_0,le_f_0,le_m_65,le_f_65\n"
        + ",".join(repr(v) if isinstance(v, float) else str(v)
                   for v in row) + "\n")
    code = main(["fit-mortality", "--targets", str(targets),
                 "--population", save(tmp_path, "pop.csv", pop),
                 "--probabilities", save(tmp_path, "prob.csv", prob),
                 "--qref-years", "2007,2008,2009",
                 "--out", str(tmp_path / "q.csv")])
    assert code == 0
    return tmp_path, q_m


def test_fit_mortality_cli_recovers_curves(fit_mortality_run):
    tmp_path, q_m = fit_mortality_run
    fitted = read_csv(str(tmp_path / "q.csv"))
    got = np.array([fitted[(2010, "AT", "m", a)] for a in FULL])
    assert np.abs(got - q_m).max() < 5e-3
    report = read_rows(tmp_path / "q.report.csv")
    assert float(report[0]["objective"]) < 1e-3


def _repeat_target_row(src, tmp_path):
    """A copy of the run's targets file that lists its one row twice."""
    header, row = (src / "targets.csv").read_text().splitlines()
    targets = tmp_path / "targets.csv"
    targets.write_text(f"{header}\n{row}\n{row}\n")
    return str(targets)


def test_fit_births_cli_rejects_repeated_target(fit_births_run, tmp_path):
    src = fit_births_run[0]
    code = main(["fit-births",
                 "--targets", _repeat_target_row(src, tmp_path),
                 "--population", str(src / "pop.csv"),
                 "--out", str(tmp_path / "rates.csv")])
    assert code == 1
    assert not (tmp_path / "rates.csv").exists()


def test_fit_mortality_cli_rejects_repeated_target(fit_mortality_run,
                                                   tmp_path):
    src = fit_mortality_run[0]
    code = main(["fit-mortality",
                 "--targets", _repeat_target_row(src, tmp_path),
                 "--population", str(src / "pop.csv"),
                 "--probabilities", str(src / "prob.csv"),
                 "--qref-years", "2007,2008,2009",
                 "--out", str(tmp_path / "q.csv")])
    assert code == 1
    assert not (tmp_path / "q.csv").exists()


def test_fit_mortality_cli_names_empty_reference_curve(fit_mortality_run,
                                                       tmp_path, caplog):
    # the probabilities hold no rows for AT-1 in the reference years
    src = fit_mortality_run[0]
    header, row = (src / "targets.csv").read_text().splitlines()
    targets = tmp_path / "targets.csv"
    targets.write_text(f"{header}\n{row.replace(',AT,', ',AT-1,')}\n")
    code = main(["fit-mortality", "--targets", str(targets),
                 "--population", str(src / "pop.csv"),
                 "--probabilities", str(src / "prob.csv"),
                 "--qref-years", "2007,2008,2009",
                 "--out", str(tmp_path / "q.csv")])
    assert code == 1
    assert "'AT-1'" in caplog.text
    assert "reference years 2007, 2008, 2009" in caplog.text
    assert not (tmp_path / "q.csv").exists()


def test_balance_cli(tmp_path):
    level = "country"
    P = CensusTable(res((2000, 2001), level=level), {
        (2000, "AT", "m", 0): 100, (2001, "AT", "m", 0): 104,
        (2000, "AT", "f", 0): 100, (2001, "AT", "f", 0): 100,
    }, integer=True)
    B = CensusTable(res((2000, 2000), level=level),
                    {(2000, "AT", "m", 0): 3, (2000, "AT", "f", 0): 2},
                    integer=True)
    D = CensusTable(res((2000, 2000), level=level),
                    {(2000, "AT", "m", 0): 2, (2000, "AT", "f", 0): 1},
                    integer=True)
    E = CensusTable(res((2000, 2000), level=level),
                    {(2000, "AT", "m", 0): 1, (2000, "AT", "f", 0): 4},
                    integer=True)
    out_path = tmp_path / "I.csv"
    code = main(["balance", "residual-immigrants",
                 "--population", save(tmp_path, "P.csv", P),
                 "--births", save(tmp_path, "B.csv", B),
                 "--deaths", save(tmp_path, "D.csv", D),
                 "--emigrants", save(tmp_path, "E.csv", E),
                 "--out", str(out_path)])
    assert code == 0
    I = read_csv(str(out_path), integer=True)
    assert I[(2000, "AT", "m", 0)] == 104 - 100 - 3 + 1 + 2
    assert I[(2000, "AT", "f", 0)] == 100 - 100 - 2 + 4 + 1


def write_scenario(tmp_path, extra=""):
    """A one-region scenario in which everyone dies in its first year."""
    level = "federalstates"
    # explicit zero rows so the reader can infer the full age range
    lines = ["year,region,sex,age,value"]
    for s in SEXES:
        for a in FULL:
            token = "100+" if a == 100 else str(a)
            lines.append(f"2000,AT-1,{s},{token},{40 if a == 30 else 0}")
    (tmp_path / "P.csv").write_text("\n".join(lines) + "\n")
    certain = CensusTable(res((2000, 2002), level=level, ages=FULL,
                              open_age=100),
                          {(y, "AT-1", s, a): 1.0 for y in (2000, 2001, 2002)
                           for s in SEXES for a in FULL})
    # negligible but nonzero so the CSV keeps rows for every cell and the
    # reader can infer the full resolution
    tiny = CensusTable(res((2000, 2002), level=level, ages=FULL, open_age=100),
                       {(y, "AT-1", s, a): 1e-12 for y in (2000, 2001, 2002)
                        for s in SEXES for a in FULL})
    write_csv(certain, str(tmp_path / "death.csv"))
    write_csv(tiny, str(tmp_path / "emig.csv"))
    write_csv(tiny, str(tmp_path / "birth.csv"))
    (tmp_path / "scenario.cfg").write_text(
        "t0=2000\nte=2003\nruns=2\nseed=9\n"
        "population=P.csv\nbirth_p=birth.csv\ndeath_p=death.csv\n"
        "emig_p=emig.csv\n" + extra)
    return tmp_path / "scenario.cfg"


def test_simulate_cli_runs_scenario(tmp_path):
    out_dir = tmp_path / "results"
    code = main(["simulate", "--config", str(write_scenario(tmp_path)),
                 "--out-dir", str(out_dir)])
    assert code == 0
    run0 = read_csv(str(out_dir / "census_run00.csv"), integer=True)
    run1 = read_csv(str(out_dir / "census_run01.csv"), integer=True)
    mean = read_csv(str(out_dir / "mean.csv"))
    assert run0 == run1  # everyone dies in year one
    assert sum(v for (y, *_), v in run0.items() if y == 2000) == 80
    assert sum(v for (y, *_), v in run0.items() if y > 2000) == 0
    assert mean[(2000, "AT-1", "m", 30)] == 40.0


def test_simulate_cli_reads_country_level_death_probabilities(tmp_path):
    """A scenario may name a death table above the population's level: each
    region reads its ancestor's row, as if the table were copied onto it."""
    cfg = write_scenario(tmp_path)
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "states")]) == 0
    country = CensusTable(res((2000, 2002), level="country", ages=FULL,
                              open_age=100),
                          {(y, "AT", s, a): 1.0 for y in (2000, 2001, 2002)
                           for s in SEXES for a in FULL})
    write_csv(country, str(tmp_path / "death.csv"))
    assert main(["simulate", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "country")]) == 0
    for fn in ("census_run00.csv", "census_run01.csv", "mean.csv"):
        assert ((tmp_path / "country" / fn).read_bytes()
                == (tmp_path / "states" / fn).read_bytes())
    run0 = read_csv(str(tmp_path / "country" / "census_run00.csv"))
    assert run0.total() == 80  # everyone dies in year one


def test_simulate_cli_misspelt_key_exits_one(tmp_path, caplog):
    out_dir = tmp_path / "results"
    code = main(["simulate", "--config",
                 str(write_scenario(tmp_path, "im-mode=none\n")),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert "unknown keys ['im-mode']" in caplog.text
    assert not out_dir.exists()


def test_validate_cli(tmp_path):
    level = "country"
    sim = CensusTable(res((2000, 2001), level=level, sexes=()),
                      {(2000, "AT", "-", 0): 110.0, (2001, "AT", "-", 0): 90.0})
    ref = CensusTable(res((2000, 2001), level=level, sexes=()),
                      {(2000, "AT", "-", 0): 100.0,
                       (2001, "AT", "-", 0): 100.0})
    out_path = tmp_path / "dev.csv"
    code = main(["validate", "--sim", save(tmp_path, "sim.csv", sim),
                 "--ref", save(tmp_path, "ref.csv", ref),
                 "--groups", "total", "--window", "2000:2002",
                 "--out", str(out_path)])
    assert code == 0
    rows = read_rows(out_path)
    assert rows[0]["group"] == "total"
    assert float(rows[0]["e_min"]) == pytest.approx(-0.1)
    assert float(rows[0]["e_max"]) == pytest.approx(0.1)
    assert rows[0]["pct_max"] == "10.00"


def test_validate_bad_window_exits_one(tmp_path):
    path = save(tmp_path, "t.csv",
                CensusTable(res((2000, 2000), level="country", sexes=()),
                            {(2000, "AT", "-", 0): 1.0}))
    code = main(["validate", "--sim", path, "--ref", path,
                 "--window", "oops", "--out", str(tmp_path / "d.csv")])
    assert code == 1


def test_synth_cli_writes_bundle(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("regions=AT-1,AT-2\nlevel=federalstates\n"
                    "y0=2000\ny1=2003\nbase=150\nseed=4\n")
    out_dir = tmp_path / "data"
    code = main(["synth", "--spec", str(spec), "--out-dir", str(out_dir)])
    assert code == 0
    P = read_csv(str(out_dir / "P.csv"), integer=True)
    assert P.resolution.years == (2000, 2003)
    assert P.total() > 0
    index = read_rows(out_dir / "m_index.csv")
    assert [r["age"] for r in index] == ["0", "20", "40", "60", "80", "100+"]
    for row in index:
        assert (out_dir / row["path"]).exists()


def test_synth_cli_bad_spec_exits_one(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("regions=AT-1\nlevel=federalstates\ny0=2000\ny1=2003\n")
    code = main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")])
    assert code == 1


def test_synth_cli_misspelt_key_exits_one(tmp_path, caplog):
    spec = tmp_path / "spec.cfg"
    spec.write_text("regions=AT-1,AT-2\nlevel=federalstates\n"
                    "y0=2000\ny1=2003\nim_levl=0.5\n")
    code = main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")])
    assert code == 1
    assert "unknown keys ['im_levl']" in caplog.text


def test_synth_cli_short_parameter_exits_one(tmp_path, caplog):
    spec = tmp_path / "spec.cfg"
    spec.write_text("regions=AT-1,AT-2\nlevel=federalstates\n"
                    "y0=2000\ny1=2003\nmortality_mult0=1.0,1.0\n")
    code = main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")])
    assert code == 1
    assert "mortality_mult0 must hold three finite numbers" in caplog.text
    assert "Traceback" not in caplog.text


PIPELINE_CFG = """
workdir = work
level = municipalities
regions = 10101,10102,20101,20102
y0 = 2000
y1 = 2008
t0 = 2004
te = 2007
base = 60
seed = 7
runs = 2
im_mode = full
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    cfg = root / "pipeline.cfg"
    cfg.write_text(PIPELINE_CFG)
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 0
    return root


def test_pipeline_produces_all_outputs(pipeline_dir):
    work = pipeline_dir / "work"
    for rel in ("truth/P.csv", "coarse/P_coarse.csv", "est/P_hat.csv",
                "est/q_hat.csv", "est/birth_p.csv", "est/death_p.csv",
                "est/immigrants.csv", "est/m_index.csv", "est/scenario.cfg",
                "results/census_run00.csv", "results/census_run01.csv",
                "results/mean.csv", "results/deviations.csv",
                "manifest.csv"):
        assert (work / rel).exists(), rel


# SHA-256 of every fitted parameter table and fit report, from the pipeline
# stages and from the two fit subcommands, and of every other file the
# pipeline writes (truth, coarse inputs, estimates, fused flows, scenario,
# simulated censuses and deviations): refactors must leave these files byte
# for byte unchanged.
OUTPUT_SHA256 = {
    "pipeline/est/birth_p.csv":
        "7dd07c4265406dbad9da0fd8762914d248e7e7abbf4b9a34bddd439b4a23a395",
    "pipeline/est/birth_p.report.csv":
        "16b5fa9a9fc4ede7672215c49c844a0e32cdaf2461a4f46430d8b06d33c693d8",
    "pipeline/est/death_p.csv":
        "1f10f9ac8cab9d632e17179ed378f95dcf9bc42708d284bc0344ecb2751d7219",
    "pipeline/est/death_p.report.csv":
        "178f31239172866d6090a48ff00608f839d90a021ebfbaf70b2ef58f47b21712",
    "pipeline/est/emig_p.csv":
        "5395eda8f5b0139e0d9c2162440755afef2a4d64acc17178543e545c1a122a69",
    "pipeline/est/ie_p.csv":
        "a838e00a71a9cc66cd0a71ad5850281e694a556c401a7dfd0cf651ed4c6a42a4",
    "pipeline/coarse/B_flat.csv":
        "e33bfd71f66a82e32e975cb6ea5d11d1044e8029009d6517f60f4293e80e00be",
    "pipeline/coarse/B_m_country.csv":
        "8e5c5bf257c0ae740c92674686c94d5042b53aeb2b42b5f4126ac489ed02f129",
    "pipeline/coarse/D_country.csv":
        "14b6eed049acd4be41f3244367544cf80a93bcdc101856b5daaa146daa43a3f5",
    "pipeline/coarse/D_flat.csv":
        "33a046d30a8cc1131e3f61f71d7c688a1ec8aeec08fd0d17c486983563aae684",
    "pipeline/coarse/E_country.csv":
        "c8716a04c4975e08f80f898fba82201d476e49d9789867dfa76de8ed8d0be8b6",
    "pipeline/coarse/E_flat.csv":
        "e53ba49748b40eeb74b235635977b7301201778c3c057ff220e13fb061aab979",
    "pipeline/coarse/IE_cls.csv":
        "105eedd8f0c123010080c683a25fa5293547e5ebae821e11ab4f5cc6431b654e",
    "pipeline/coarse/IE_country.csv":
        "571ce1710c3369477bcd1ef4c0416844d3b55bf99753c046385f7b79e96a6f90",
    "pipeline/coarse/II_cls.csv":
        "bcb624a7f138f1a1c0592cf7af120e710cb9f5e4dffa3bd6a3c31ee08ab75a95",
    "pipeline/coarse/I_stats.csv":
        "d0facca3c50755b0f8e05d89aa36e50e8d416967408c09dd3dc581cd0bba4e3c",
    "pipeline/coarse/M.csv":
        "1282ffcba46508857b04e9b3c5e84eca33c21c4bf5d1348ddc6ecf417f55735e",
    "pipeline/coarse/P_base.csv":
        "a3bfe513702b33c745123cab17d3380fdccf063a7dc9ef09aaa4eacd520afc12",
    "pipeline/coarse/P_coarse.csv":
        "046b5d59c52c9178a0794200b7d4d4d63438617495e26a9a2ee643f5f71846d3",
    "pipeline/est/P_country.csv":
        "ac68c3a328cbd364e29d776d9811ec232be302b40ac6200a31b81311538385ab",
    "pipeline/est/q_hat.csv":
        "933ce245c8a38a456f57396ddfc1f1311fc86a92e24135c7e78e6d2515b7f39a",
    "pipeline/est/immigrants.csv":
        "d0facca3c50755b0f8e05d89aa36e50e8d416967408c09dd3dc581cd0bba4e3c",
    "pipeline/truth/B.csv":
        "407aabfa70407baa0fe972b8d6c261c6f08d48374fc8402c77c9110a89665220",
    "pipeline/truth/B_m.csv":
        "c956b4fa1673e23021be957641d5eef0989a0a812a1be47510bd4d980836bff0",
    "pipeline/truth/D.csv":
        "51685f6aaf4271a2291e59e41ab861ccf34aff8d29e22a0a01f8ced9fb74eee4",
    "pipeline/truth/E.csv":
        "4a6591a04e0d641cccabc72e33422e1004b76e2d930ac7eb0aaa016bbcaa4c53",
    "pipeline/truth/I.csv":
        "d0facca3c50755b0f8e05d89aa36e50e8d416967408c09dd3dc581cd0bba4e3c",
    "pipeline/truth/IE.csv":
        "52bb438707eab77f346decbe14c56ddbd224d4716369ec8c8537581dc4306b24",
    "pipeline/truth/II.csv":
        "c560337ba9c9ad8dd6e97cf52d73a075f0637290b700b5f3cc6dcd1442fecf89",
    "pipeline/truth/M.csv":
        "1282ffcba46508857b04e9b3c5e84eca33c21c4bf5d1348ddc6ecf417f55735e",
    "pipeline/truth/P.csv":
        "8e4ba6dc9cc96b8a44c4258dd92144d38f44d7aea6f5146ade9aac75b6bdbe9f",
    "pipeline/truth/m_age_0.csv":
        "e40dd0e8ee06fba891f1a8bc6304f936305ac4f84fb1ed830115190ba62a098b",
    "pipeline/truth/m_age_100.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/truth/m_age_20.csv":
        "690b6548f4ae1ecf9ca88d2fb4af5e53b0c689baf60dc385a65a9fe5950652bc",
    "pipeline/truth/m_age_40.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/truth/m_age_60.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/truth/m_age_80.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/truth/m_index.csv":
        "1f58c1a9af2689d4be11bd0d7fb5f8038fd82738b0f8e6e52d125b8f1ac5095a",
    "pipeline/est/P_hat.csv":
        "517f9442c249784c2de94156f0eead2c38ac79b2001778d3a32c813b38629675",
    "pipeline/est/m_age_0.csv":
        "e53989848087e450566cde7599a1e54fa72816331495db7963f4f625050b4ad2",
    "pipeline/est/m_age_100.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/est/m_age_20.csv":
        "a0ded51174d2d247101ed9b6932e8d7aec109d1f39b1504ac56989fc30d51dd1",
    "pipeline/est/m_age_40.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/est/m_age_60.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/est/m_age_80.csv":
        "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "pipeline/est/m_index.csv":
        "1f58c1a9af2689d4be11bd0d7fb5f8038fd82738b0f8e6e52d125b8f1ac5095a",
    "pipeline/est/scenario.cfg":
        "070064efeccf99e4def59b0f8138e5bbd3650f71eec824ec13ae35a3a6df69d4",
    "pipeline/results/census_run00.csv":
        "7ba49f1f9ccba9fd9b86b7af3103ba8d42d9d5fddb008e67ef96c91698c47ca3",
    "pipeline/results/census_run01.csv":
        "c2da29bfd85ea0c5d0a53019dddd63f1778eb058b827b282bfc9cfdb9f68d32a",
    "pipeline/results/mean.csv":
        "6144d60ae53bb5ba0dd11567dac714269094bcc1be9e0115aeb7907787e7221b",
    "pipeline/results/deviations.csv":
        "227b5e52184f8488edf1f817870428cd317dd8c9e220d60a508d74eb15f45d27",
    "fit-births/rates.csv":
        "0227bd7edc47fc0a4137ec29e81821b9d13faf9febf4c91ed010810a4ec00707",
    "fit-births/rates.report.csv":
        "937b9dc18bd1e5b787c08c69db058da9c7742946db0c5bb8b4f580cb273ee327",
    "fit-mortality/q.csv":
        "ab98262d80494ebcee8e52fdbfe34074d33589ffded40b2afa1eaf0e1f6402cc",
    "fit-mortality/q.report.csv":
        "d131cdf8c42332af77a91fee7773dd896cc1ae0afb2939df0095f4519dfc85c2",
}


def test_fit_outputs_match_pinned_digests(pipeline_dir, fit_births_run,
                                          fit_mortality_run):
    dirs = {"pipeline": pipeline_dir / "work", "fit-births": fit_births_run[0],
            "fit-mortality": fit_mortality_run[0]}
    got = {}
    for key in OUTPUT_SHA256:
        where, rel = key.split("/", 1)
        got[key] = hashlib.sha256((dirs[where] / rel).read_bytes()).hexdigest()
    assert got == OUTPUT_SHA256


def test_pipeline_rate_tables_stay_national(pipeline_dir):
    """The pipeline estimates its probabilities for the whole country and
    writes them so; the simulator projects each region onto them."""
    for name in ("birth_p", "death_p", "emig_p", "ie_p"):
        t = read_csv(str(pipeline_dir / "work" / "est" / f"{name}.csv"))
        assert (t.resolution.level, t.codes) == ("country", ("AT",)), name


@pytest.fixture(scope="module")
def residual_dir(tmp_path_factory):
    """The test pipeline at a base large enough for immigrants to appear."""
    root = tmp_path_factory.mktemp("residual")
    cfg = root / "pipeline.cfg"
    cfg.write_text(PIPELINE_CFG.replace("base = 60", "base = 400")
                   + "stages = synth,degrade,disagg,farr,residual\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    return root / "work"


def test_residual_split_matches_balance(residual_dir):
    path = residual_dir / "est" / "immigrants.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "6f9c7c35b604a4c48640ed59f8ff79b19d343fbbb3b30c1c1729e83393362ff7"
    I_hat = read_csv(str(path), integer=True)
    assert len(I_hat) == 720
    assert len(read_csv(str(residual_dir / "coarse" / "I_stats.csv"))) == 168
    P = aggregate(read_csv(str(residual_dir / "est" / "P_hat.csv")),
                  drop=("region", "age"))
    B, D, E = (read_csv(str(residual_dir / "coarse" / f"{n}_flat.csv"))
               for n in "BDE")
    totals = aggregate(I_hat, drop=("region", "age"))
    for y in range(2000, 2008):
        for s in SEXES:
            key = (y, "AT", s, 0)
            residual = (P[(y + 1, "AT", s, 0)] - P[key] - B[key] + E[key]
                        + D[key])
            assert totals[key] == max(0, round(residual))


def test_pipeline_estimate_matches_base_year(pipeline_dir):
    work = pipeline_dir / "work"
    truth = read_csv(str(work / "truth/P.csv"), integer=True)
    est = read_csv(str(work / "est/P_hat.csv"), integer=True)
    base_year = {k: v for k, v in truth.items() if k[0] == 2004}
    assert {k: v for k, v in est.items() if k[0] == 2004} == base_year


def test_pipeline_deviations_are_finite_and_small(pipeline_dir):
    rows = read_rows(pipeline_dir / "work" / "results" / "deviations.csv")
    total = [r for r in rows if r["group"] == "total"]
    assert len(total) == 1
    band = max(abs(float(total[0]["e_min"])), abs(float(total[0]["e_max"])))
    assert band < 0.25  # loose cap for a deliberately tiny population
    groups = {r["group"] for r in rows}
    assert groups == {"total", "fed", "sex", "age20"}


def test_pipeline_manifest_hashes_every_file(pipeline_dir):
    work = pipeline_dir / "work"
    rows = read_rows(work / "manifest.csv")
    assert {r["stage"] for r in rows} == {
        "synth", "degrade", "disagg", "farr", "fit-births", "fit-mortality",
        "residual", "fuse", "simulate", "validate"}
    for row in rows:
        if row["role"] in ("in", "out"):
            assert (work / row["file"]).exists(), row["file"]
            assert len(row["sha256"]) == 64


def test_pipeline_rerun_skips_everything(pipeline_dir):
    cfg = Config.from_file(pipeline_dir / "pipeline.cfg")
    actions = run_pipeline(cfg, str(pipeline_dir))
    assert all(act == "skipped" for _, act in actions)
    assert len(actions) == 10


def test_pipeline_reruns_only_stale_stages(pipeline_dir):
    work = pipeline_dir / "work"
    (work / "est" / "immigrants.csv").unlink()
    cfg = Config.from_file(pipeline_dir / "pipeline.cfg")
    actions = dict(run_pipeline(cfg, str(pipeline_dir)))
    assert actions["residual"] == "run"
    # deterministic rewrite leaves the hash unchanged downstream
    assert actions["simulate"] == "skipped"
    assert actions["synth"] == "skipped"


@pytest.mark.parametrize("im_mode", ["none", "interregional", "full"])
def test_pipeline_reconstructs_without_truth(tmp_path, im_mode):
    ctx = _Pipeline(Config({"workdir": "w", "im_mode": im_mode}),
                    str(tmp_path))
    for name, inputs, _, _ in _stage_table(ctx):
        if name not in ("degrade", "validate"):
            assert not [f for f in inputs if f.startswith("truth/")], name


def test_each_stage_reads_only_its_declared_inputs(tmp_path, monkeypatch):
    # manifest.csv hashes a stage's declared inputs, so a table read beyond
    # them would not make the stage stale when it changes
    reads = []
    read_csv = cli.read_csv

    def recording_read_csv(path, *args, **kwargs):
        reads.append(os.path.normpath(path))
        return read_csv(path, *args, **kwargs)

    monkeypatch.setattr(cli, "read_csv", recording_read_csv)
    work = tmp_path / "work"
    (tmp_path / "pipeline.cfg").write_text(PIPELINE_CFG)
    values = Config.from_file(tmp_path / "pipeline.cfg").values
    # the interregional run reruns only the simulation, which reads the
    # coarse od table through the scenario file as ../coarse/M.csv
    for im_mode, names in (("full", None), ("interregional", ("simulate",))):
        ctx = _Pipeline(Config(dict(values, im_mode=im_mode)), str(tmp_path))
        for name, inputs, _, _ in _stage_table(ctx):
            if names is not None and name not in names:
                continue
            reads.clear()
            cfg = Config(dict(values, im_mode=im_mode, stages=name))
            assert run_pipeline(cfg, str(tmp_path)) == [(name, "run")]
            read = {os.path.relpath(p, work) for p in reads}
            assert read <= set(inputs), (im_mode, name, read - set(inputs))
            assert bool(read) == (name != "synth"), (im_mode, name)
    assert "coarse/M.csv" in read


def _spied_run(root, cfg_text):
    """Run the pipeline in one process; record each `_Pipeline.read` (stage,
    table, name, whether it came from memory, result) and the table held for
    it (None if none), the tables held when each stage starts and when it
    returns, and the hashes per file."""
    (root / "pipeline.cfg").write_text(cfg_text)
    rec = {"reads": [], "held": [], "start": {}, "ran": {}, "disk": [],
           "hashes": {}}
    stage_table, read, parse = cli._stage_table, _Pipeline.read, cli.read_csv
    sha256 = cli._sha256

    def spied_table(ctx):
        rec["ctx"] = ctx

        def spied(name, runner):
            def run(ctx):
                rec["start"][name] = set(ctx.held)
                rec["stage"] = name
                runner(ctx)
                rec["ran"][name] = set(ctx.held)
            return run
        return [(n, i, o, spied(n, r)) for n, i, o, r in stage_table(ctx)]

    def spied_read(ctx, rel, name=None):
        parsed = len(rec["disk"])
        rec["held"].append(ctx.held.get(rel, (None, None))[1])
        table = read(ctx, rel, name)
        rec["reads"].append((rec["stage"], rel, name,
                             len(rec["disk"]) == parsed, table))
        return table

    def spied_read_csv(path, *args, **kwargs):
        rec["disk"].append(path)
        return parse(path, *args, **kwargs)

    def spied_sha256(path):
        rel = os.path.relpath(path, rec["ctx"].workdir)
        rec["hashes"][rel] = rec["hashes"].get(rel, 0) + 1
        return sha256(path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_stage_table", spied_table)
        mp.setattr(cli, "_sha256", spied_sha256)
        mp.setattr(_Pipeline, "read", spied_read)
        mp.setattr(cli, "read_csv", spied_read_csv)
        run_pipeline(Config.from_file(root / "pipeline.cfg"), str(root))
    return rec


@pytest.fixture(scope="module")
def handoff_run(tmp_path_factory):
    return _spied_run(tmp_path_factory.mktemp("handoff"), PIPELINE_CFG)


def test_tables_handed_over_in_memory_equal_the_parsed_files(handoff_run):
    ctx = handoff_run["ctx"]
    from_memory = set()
    for (stage, rel, name, memory, got), held in zip(handoff_run["reads"],
                                                     handoff_run["held"]):
        resolution, integer = ctx.tables[rel]
        want = read_csv(ctx.path(f"{rel}.csv"), integer=integer,
                        resolution=resolution, name=name)
        assert got == want, (stage, rel)
        assert (got.name, got.integer) == (want.name, want.integer), rel
        if memory:
            from_memory.add(rel)
            # handed over without a rebuild: the held table's own arrays
            assert got._key is held._key and got.values is held.values, rel
    # every table comes from memory: od, integer, non-integral and
    # header-only tables among them
    assert from_memory == {rel for _, rel, _, _, _ in handoff_run["reads"]}
    assert {"coarse/M", "truth/P", "est/q_hat", "truth/I",
            "coarse/I_stats"} <= from_memory
    tables = {rel: got for _, rel, _, _, got in handoff_run["reads"]}
    assert len(tables["truth/I"]) == len(tables["coarse/I_stats"]) == 0
    q = tables["est/q_hat"].values
    assert (q != np.floor(q)).any()


def test_every_pipeline_read_is_a_declared_input(handoff_run):
    # manifest freshness and the release of held tables both go by the
    # declared inputs, so a stage must read nothing beyond them
    inputs = {name: set(i) for name, i, _, _ in _stage_table(handoff_run["ctx"])}
    for stage, rel, _, _, _ in handoff_run["reads"]:
        assert f"{rel}.csv" in inputs[stage], (stage, rel)
    assert {stage for stage, *_ in handoff_run["reads"]} == \
        set(inputs) - {"synth", "simulate"}


def test_held_tables_are_released_after_their_last_reader(handoff_run):
    stages = _stage_table(handoff_run["ctx"])
    written = set()
    for k, (name, _, _, _) in enumerate(stages):
        later = {rel for stage in stages[k:] for rel in stage[1]}
        assert handoff_run["start"][name] == {
            rel for rel in written if f"{rel}.csv" in later}, name
        written |= handoff_run["ran"][name]
    start = handoff_run["start"]
    assert "coarse/M" in start["fuse"] and "coarse/M" not in start["simulate"]
    assert "est/q_hat" in start["fit-mortality"]
    assert "est/q_hat" not in start["residual"]
    assert "truth/P" in start["validate"]
    assert handoff_run["ctx"].held == {}


def test_each_file_is_hashed_once_per_manifest_row(handoff_run):
    # the writing stage's out row hashes a file; a reading stage hashes it
    # in its read guard, and its in row reuses that digest, so a table
    # handed over to one later stage is hashed twice
    stages = _stage_table(handoff_run["ctx"])
    rows = {}
    for _, inputs, outputs, _ in stages:
        for rel in inputs + outputs:
            rows[rel] = rows.get(rel, 0) + 1
    assert handoff_run["hashes"] == rows
    handed = {f"{rel}.csv" for _, rel, _, memory, _ in handoff_run["reads"] if memory}
    assert {"coarse/M.csv", "est/q_hat.csv", "coarse/I_stats.csv"} <= {
        rel for rel in handed if handoff_run["hashes"][rel] == 2}


def test_read_csv_matches_the_reference_on_every_pipeline_table(pipeline_dir):
    def both(path, **kwargs):
        out = []
        for read in (read_csv, ref_read_csv):
            try:
                t = read(path, **kwargs)
            except DataError as exc:
                out.append(str(exc))
            else:
                out.append((t, t.name, t.integer))
        return out

    tables = [p for p in sorted((pipeline_dir / "work").rglob("*.csv"))
              if p.read_text().split("\n")[0] in ("year,region,sex,age,value",
                                                  "year,region,sex,region2,value")]
    assert len(tables) > 40
    for path in tables:
        floats, integers = both(str(path)), both(str(path), integer=True)
        assert floats[0] == floats[1] and integers[0] == integers[1], path
        # only a header-only table, which needs a resolution, fails as floats
        assert isinstance(floats[0], tuple) != (len(path.read_bytes().splitlines()) == 1)


def test_a_synth_run_holds_nothing_afterwards(tmp_path):
    rec = _spied_run(tmp_path, PIPELINE_CFG + "stages = synth\n")
    assert rec["ran"]["synth"] == {f"truth/{k}" for k in cli._BUNDLE_TABLES}
    assert rec["ctx"].held == {}


def _pin(ctx, rel):
    # as run_pipeline pins a written table to its stage's out-row digest
    ctx.held[rel] = (cli._sha256(ctx.path(f"{rel}.csv")), ctx.held[rel][1])


def test_a_file_rewritten_after_write_is_read_from_disk(tmp_path, monkeypatch):
    parsed = []
    parse = cli.read_csv
    monkeypatch.setattr(cli, "read_csv",
                        lambda path, **kw: parsed.append(path) or parse(path, **kw))
    ctx = _Pipeline(Config({"workdir": "w"}), str(tmp_path))
    resolution, _ = ctx.tables["coarse/D_country"]
    key = (2002, "AT", "m", 30)
    ctx.write("coarse/D_country", CensusTable(resolution, {key: 5.5}))
    _pin(ctx, "coarse/D_country")
    assert ctx.read("coarse/D_country")[key] == 5.5
    assert parsed == []
    # the same bytes again keep the handover; other bytes are parsed
    write_csv(CensusTable(resolution, {key: 5.5}), ctx.path("coarse/D_country.csv"))
    assert ctx.read("coarse/D_country")[key] == 5.5
    assert parsed == []
    write_csv(CensusTable(resolution, {key: 6.5}), ctx.path("coarse/D_country.csv"))
    assert ctx.read("coarse/D_country", "D")[key] == 6.5
    assert parsed == [ctx.path("coarse/D_country.csv")]


def test_an_unpinned_table_is_read_from_disk(tmp_path, monkeypatch):
    # a table is served from memory only once pinned to a digest: a file
    # rewritten between write and its first read is parsed, as is an
    # unchanged one
    parsed = []
    parse = cli.read_csv
    monkeypatch.setattr(cli, "read_csv",
                        lambda path, **kw: parsed.append(path) or parse(path, **kw))
    ctx = _Pipeline(Config({"workdir": "w"}), str(tmp_path))
    resolution, _ = ctx.tables["coarse/D_country"]
    key = (2002, "AT", "m", 30)
    ctx.write("coarse/D_country", CensusTable(resolution, {key: 5.5}))
    write_csv(CensusTable(resolution, {key: 6.5}), ctx.path("coarse/D_country.csv"))
    assert ctx.read("coarse/D_country")[key] == 6.5
    ctx.write("coarse/E_country", CensusTable(resolution, {key: 7.5}))
    assert ctx.read("coarse/E_country")[key] == 7.5
    assert parsed == [ctx.path("coarse/D_country.csv"), ctx.path("coarse/E_country.csv")]
    assert ctx.held["coarse/D_country"][0] is None


def test_pipeline_empty_stage_list(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nstages=\n")
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 0
    rows = read_rows(tmp_path / "w" / "manifest.csv")
    assert rows == []


def test_pipeline_unknown_stage_exits_one(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nstages=synth,warp\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1


def test_pipeline_misspelt_key_exits_one(tmp_path, caplog):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nim-mode=none\nsead=4\nstages=\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert "unknown keys ['im-mode', 'sead']" in caplog.text
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("line, message", [
    ("runs=0", "need at least one run"),
    ("runs=-2", "need at least one run"),
    ("scale=0", "scale must lie in (0,1], got 0.0"),
    ("scale=1.5", "scale must lie in (0,1], got 1.5"),
    ("base=nan", "base magnitude must be finite and positive, got nan"),
    ("base=inf", "base magnitude must be finite and positive, got inf"),
    ("base=-1", "base magnitude must be finite and positive, got -1.0"),
])
def test_pipeline_bad_scenario_exits_one(tmp_path, caplog, line, message):
    # the scenario and the synthetic truth's spec are checked when the
    # config loads, before any stage runs
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"workdir=w\n{line}\nstages=synth\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert message in caplog.text
    assert not (tmp_path / "w").exists()


def test_od_index_repeated_age_is_an_error(tmp_path):
    for fn in ("a.csv", "b.csv"):
        (tmp_path / fn).write_text("year,origin,sex,destination,value\n")
    index = tmp_path / "m_index.csv"
    index.write_text("age,path\n0,a.csv\n0,b.csv\n")
    with pytest.raises(DataError, match=r"m_index\.csv: age '0' listed twice"):
        _read_od_bundle(str(index), (2000, 2001), "federalstates")


@pytest.mark.parametrize("token", ["0++", "-0", " 20 ", "+0"])
def test_od_index_bad_age_token_is_an_error(tmp_path, token):
    # the census reader's own rule for age tokens, without the int() leniency
    (tmp_path / "a.csv").write_text("year,origin,sex,destination,value\n")
    index = tmp_path / "m_index.csv"
    index.write_text(f"age,path\n{token},a.csv\n")
    with pytest.raises(DataError, match=r"m_index\.csv: bad age token "
                                        + re.escape(repr(token))):
        _read_od_bundle(str(index), (2000, 2001), "federalstates")


@pytest.mark.parametrize("row", ["0", "0,"])
def test_od_index_row_without_a_path_is_an_error(tmp_path, row):
    index = tmp_path / "m_index.csv"
    index.write_text(f"age,path\n{row}\n")
    with pytest.raises(DataError, match=r"m_index\.csv:2: no value for 'path'"):
        _read_od_bundle(str(index), (2000, 2001), "federalstates")


@pytest.mark.parametrize("row, field", [
    ("2010,AT,500.0", "mac"), ("2010,,500.0,29.0", "region"),
    ("2010,AT,,29.0", "births")])
def test_fit_target_row_without_a_value_is_an_error(tmp_path, row, field):
    targets = tmp_path / "targets.csv"
    targets.write_text(f"year,region,births,mac\n2010,AT,1.0,30.0\n{row}\n")
    with pytest.raises(DataError,
                       match=rf"targets\.csv:3: no value for '{field}'"):
        _read_targets(str(targets), ("year", "region", "births", "mac"))


def test_pipeline_manifest_row_without_a_file_exits_one(tmp_path, caplog):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nstages=synth\n")
    (tmp_path / "w").mkdir()
    (tmp_path / "w" / "manifest.csv").write_text(
        "stage,role,file,sha256\nsynth,out\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert "manifest.csv:2: no value for 'file'" in caplog.text


@pytest.mark.parametrize("header, read, message", [
    ("age,file", lambda p: _read_od_bundle(p, (2000, 2001), "country"),
     "expected header age,path"),
    ("year,births", lambda p: _read_targets(p, ("year", "region", "births",
                                                "mac")),
     "missing columns ['mac', 'region']"),
    ("stage,role,file", cli._read_manifest,
     "expected header stage,role,file,sha256"),
])
def test_keyed_csv_header_messages(tmp_path, header, read, message):
    path = tmp_path / "keyed.csv"
    path.write_text(f"{header}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
        read(str(path))


def test_pipeline_stage_subset_runs_in_order(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nregions=10101,10102\ny0=2000\ny1=2005\n"
                   "t0=2003\nte=2005\nbase=40\nstages=synth,degrade\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert (tmp_path / "w" / "coarse" / "P_coarse.csv").exists()
    assert not (tmp_path / "w" / "est").exists()


def test_pipeline_subset_missing_input_exits_one(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("workdir=w\nstages=disagg\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
