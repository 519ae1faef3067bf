"""Acceptance suite: one test per shipped guarantee, tolerances as stated.

Each test is a single pass/fail line under ``pytest -v``.  Runtime caps are
asserted inside the tests that carry one.
"""

import csv
import math
import time

import numpy as np

from censim.balance import residual_immigrants
from censim.cli import run_pipeline
from censim.configfile import Config
from censim.disagg import (disaggregate_table, huntington_hill,
                           proportional_disaggregate)
from censim.fitting import (BirthFitTarget, MortalityFitTarget, activation,
                            fit_births, fit_mortality, gaussian_rates,
                            mortality_curves)
from censim.ipf import ipf2, ipf3
from censim.lifetable import build_life_table, life_expectancy
from censim.rates import death_table_alpha, farr_probability, invert_farr
from censim.regions import RegionManifest
from censim.simulate import ScenarioConfig, SimParams, run
from censim.synthgen import SynthSpec, generate_truth
from censim.table import SEXES, CensusTable, ResolutionSpec, aggregate, degrade
from censim.validate import error_band

FULL = tuple(range(101))
AGES5 = tuple(range(0, 101, 5))
AGE_INDEX = np.arange(101, dtype=float)


def test_criterion_01_apportionment_exactness():
    """1000 randomized cases: integral, sums exact; k-multiple law, < 5 s."""
    rng = np.random.default_rng(19)
    start = time.perf_counter()
    for _ in range(700):
        n = int(rng.integers(1, 41))
        p = rng.uniform(0.0, 10.0, n)
        if p.sum() == 0.0:
            p[0] = 1.0
        x = int(rng.integers(0, 1001))
        seats = huntington_hill(x, p)
        assert all(isinstance(s, int) for s in seats)
        assert sum(seats) == x
    for _ in range(30):
        n = int(rng.integers(1, 31))
        p = rng.integers(0, 51, n)
        if p.sum() == 0:
            p[0] = 3
        weights = [int(w) for w in p]
        total = sum(weights)
        for k in range(1, 11):
            assert huntington_hill(k * total, weights) == \
                [k * w for w in weights]
    assert time.perf_counter() - start < 5.0


def test_criterion_02_matrix_raking_2d():
    """200 random feasible instances up to 50x50 at tol 1e-10, < 30 s."""
    rng = np.random.default_rng(20)
    tol = 1e-10
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        true = rng.uniform(0.1, 2.0, (m, n))
        mask = rng.random((m, n)) < 0.15
        true[mask] = 0.0
        a = true.sum(axis=1)
        b = true.sum(axis=0)
        m0 = np.where(mask, 0.0, rng.uniform(0.5, 1.5, (m, n)))
        result = ipf2(a, b, m0, tol=tol)
        assert result.converged and result.residual < tol
        assert (result.values[mask] == 0.0).all()
        assert np.abs(result.values.sum(axis=1) - a).max() <= tol
        assert np.abs(result.values.sum(axis=0) - b).max() <= tol
        history = [ipf2(a, b, m0, tol=0.0, max_iter=k).residual
                   for k in range(6)]
        assert all(nxt <= prev for prev, nxt in zip(history, history[1:]))
    assert time.perf_counter() - start < 30.0


def test_criterion_03_tensor_raking_3d():
    """Random feasible instances up to 50x20x50: residual < 1e-4 in < 200
    iterations from the uniform init, < 60 s."""
    rng = np.random.default_rng(21)
    start = time.perf_counter()
    for case in range(12):
        if case == 0:
            m, n, r = 50, 20, 50
        else:
            m = int(rng.integers(2, 51))
            n = int(rng.integers(2, 21))
            r = int(rng.integers(2, 51))
        true = rng.uniform(0.2, 3.0, (m, n, r))
        A = true.sum(axis=2)
        B = true.sum(axis=0)
        C = true.sum(axis=1)
        result = ipf3(A, B, C, tol=1e-4)
        assert result.converged
        assert result.residual < 1e-4
        assert result.iterations < 200
    assert time.perf_counter() - start < 60.0


def test_criterion_04_event_probability_round_trip():
    """10^4 random (q, P, alpha), q in [0, 0.9]: inverse then forward
    reproduces q within 1e-12 relative."""
    rng = np.random.default_rng(22)
    qs = rng.uniform(0.0, 0.9, 10_000)
    qs[:2] = (0.0, 0.9)
    for q in qs:
        P = float(rng.uniform(1.0, 1e6))
        alpha = float(rng.uniform(0.0, 1.0))
        count = invert_farr(q, P, alpha)
        back = farr_probability(count / P, alpha)
        assert abs(back - q) <= 1e-12 * max(q, 1e-300)


def test_criterion_05_life_table_identities():
    """Constant hazard e=(1-q/2)/q within 1e-12; analytic open-class
    person-years vs brute force within 1e-9; radix invariance 1e-12."""
    half = death_table_alpha(alpha0=0.5)
    for q in (0.01, 0.1, 0.5):
        lt = build_life_table([q] * 101, half)
        expected = (1.0 - q / 2.0) / q
        assert abs(lt.e[0] - expected) <= 1e-12 * expected

    q_curve = np.minimum(0.9, 1e-4 * np.exp(0.085 * AGE_INDEX))
    lt = build_life_table(q_curve, death_table_alpha())
    q_top = q_curve[100]
    l_top = lt.l[100]
    brute = lt.L[100]
    survivors = l_top
    for _ in range(4000):
        survivors *= 1.0 - q_top
        brute += survivors * (1.0 - q_top / 2.0)
        if survivors < 1e-18 * lt.l0:
            break
    assert abs(lt.T[100] - brute) <= 1e-9 * max(1.0, brute)

    small = build_life_table(q_curve, death_table_alpha(), l0=1.0)
    big = build_life_table(q_curve, death_table_alpha(), l0=100000.0)
    assert np.abs(np.asarray(small.e) - np.asarray(big.e)).max() <= 1e-12 * \
        max(big.e)


def test_criterion_06_mortality_weight_partition():
    """The three age-group weights sum to one, |sum - 1| < 1e-12, ages 0-100."""
    for a in range(101):
        w = activation(a)
        assert len(w) == 3
        assert abs(sum(w) - 1.0) < 1e-12


def test_criterion_07_forecast_fit_recovery():
    """Targets from known parameters: births within 0.1% and MAC within
    0.01 y; mortality objective < 1e-3 and four LE targets within 0.05 y;
    each fit < 10 s."""
    rng = np.random.default_rng(23)

    theta_b = (0.06, 29.0, 5.5)
    p0 = rng.uniform(800.0, 1200.0, 101)
    p1 = rng.uniform(800.0, 1200.0, 101)
    p_avg = (p0 + p1) / 2.0
    rates_true = gaussian_rates(theta_b)
    births_true = float(rates_true @ p_avg)
    mac_true = float((AGE_INDEX @ rates_true) / rates_true.sum())
    start = time.perf_counter()
    theta_hat, _ = fit_births(BirthFitTarget(births_true, mac_true, (p0, p1)))
    assert time.perf_counter() - start < 10.0
    rates_hat = gaussian_rates(theta_hat)
    births_hat = float(rates_hat @ p_avg)
    mac_hat = float((AGE_INDEX @ rates_hat) / rates_hat.sum())
    assert abs(births_hat - births_true) <= 1e-3 * births_true
    assert abs(mac_hat - mac_true) <= 0.01

    alpha = death_table_alpha()
    alpha_vec = np.array([alpha(a) for a in range(101)])
    qref_m = np.minimum(0.9, 1.0e-4 * np.exp(0.088 * AGE_INDEX))
    qref_f = np.minimum(0.9, 0.7e-4 * np.exp(0.089 * AGE_INDEX))
    theta_d = (1.1, 0.9, 1.3, 0.8, 1.2, 1.0)
    q_m, q_f = mortality_curves(theta_d, qref_m, qref_f)
    pop_m = rng.uniform(40_000.0, 60_000.0, 101)
    pop_f = rng.uniform(40_000.0, 60_000.0, 101)
    deaths_true = float(pop_m @ (q_m / (1.0 - alpha_vec * q_m))
                        + pop_f @ (q_f / (1.0 - alpha_vec * q_f)))
    target = MortalityFitTarget(
        deaths_true,
        life_expectancy(q_m, 0, alpha), life_expectancy(q_f, 0, alpha),
        life_expectancy(q_m, 65, alpha), life_expectancy(q_f, 65, alpha))
    diag = {}
    start = time.perf_counter()
    theta_hat, objective = fit_mortality(target, (pop_m, pop_f),
                                         (qref_m, qref_f), alpha=alpha,
                                         diagnostics=diag)
    assert time.perf_counter() - start < 10.0
    assert objective < 1e-3
    qm_hat, qf_hat = mortality_curves(theta_hat, qref_m, qref_f)
    assert abs(life_expectancy(qm_hat, 0, alpha) - target.le_m_0) <= 0.05
    assert abs(life_expectancy(qf_hat, 0, alpha) - target.le_f_0) <= 0.05
    assert abs(life_expectancy(qm_hat, 65, alpha) - target.le_m_65) <= 0.05
    assert abs(life_expectancy(qf_hat, 65, alpha) - target.le_f_65) <= 0.05


def test_criterion_08_disaggregation_conservation():
    """Both pipeline disaggregation stages conserve: re-aggregation equals
    the coarse source exactly (integer splits) or within 1e-9 relative
    (proportional); with the truth's own distribution, k-multiple cells
    reproduce the truth exactly."""
    regions = ("10101", "10102", "20101", "20102")
    spec = SynthSpec(regions=regions, level="municipalities",
                     years=(2000, 2006), base=300.0, seed=3)
    truth = generate_truth(spec)
    manifest = RegionManifest({"municipalities": regions})
    P = truth["P"]
    span = (2000, 2005)

    # census stage: districts/5-year classes split back to municipal single
    # ages against the base-year census
    coarse_res = ResolutionSpec((2000, 2006), "districts", sexes=SEXES,
                                ages=AGES5, open_age=100)
    P_coarse = degrade(P, coarse_res)
    P_base = degrade(P, ResolutionSpec((2000, 2000), "municipalities",
                                       sexes=SEXES, ages=FULL, open_age=100))
    P_hat = disaggregate_table(P_coarse, P_base, ("region", "age"),
                               P.resolution, "huntington_hill",
                               regions=manifest, uniform_fallback=True)
    assert degrade(P_hat, coarse_res) == P_coarse
    P_prop = disaggregate_table(P_coarse, P_base, ("region", "age"),
                                P.resolution, "proportional",
                                regions=manifest, uniform_fallback=True)
    back = degrade(P_prop, coarse_res)
    for key, v in P_coarse.items():
        assert abs(back[key] - v) <= 1e-9 * v

    # with the truth itself as distribution every coarse cell is an exact
    # k-multiple of its fiber weights
    recovered = disaggregate_table(P_coarse, P, ("year", "region", "age"),
                                   P.resolution, "huntington_hill",
                                   regions=manifest)
    assert recovered == P
    tripled = CensusTable(P_coarse.resolution,
                          {k: 3 * v for k, v in P_coarse.items()},
                          integer=True, name="P")
    recovered3 = disaggregate_table(tripled, P, ("year", "region", "age"),
                                    P.resolution, "huntington_hill",
                                    regions=manifest)
    assert dict(recovered3.items()) == {k: 3 * v for k, v in P.items()}

    # immigration stage: country residual split over the district statistics
    flat = ResolutionSpec(span, "country")
    P_flat = aggregate(P, drop=("age",), coarse_level="country")
    B_flat = degrade(truth["B"], flat)
    D_flat = degrade(truth["D"], flat)
    E_flat = degrade(truth["E"], flat)
    I_flat = residual_immigrants(P_flat, B_flat, D_flat, E_flat)
    I_stats = degrade(truth["I"], ResolutionSpec(span, "districts",
                                                 sexes=SEXES, ages=AGES5,
                                                 open_age=100))
    target = ResolutionSpec(span, "municipalities", sexes=SEXES, ages=FULL,
                            open_age=100)
    I_hat = disaggregate_table(I_flat, I_stats, ("year", "region", "age"),
                               target, "huntington_hill", regions=manifest,
                               uniform_fallback=True)
    assert aggregate(I_hat, drop=("age",), coarse_level="country") == I_flat
    I_prop = disaggregate_table(I_flat, I_stats, ("year", "region", "age"),
                                target, "proportional", regions=manifest,
                                uniform_fallback=True)
    back = aggregate(I_prop, drop=("age",), coarse_level="country")
    for key, v in I_flat.items():
        assert abs(back[key] - v) <= 1e-9 * v


def _by_year_region_sex(table):
    out = {}
    for (y, r, s, _), v in table.items():
        key = (y, r, s)
        out[key] = out.get(key, 0.0) + v
    return out


def _balance_residuals(out):
    pop = _by_year_region_sex(out.census)
    flows = {name: _by_year_region_sex(getattr(out, name))
             for name in ("births", "deaths", "emigrants", "immigrants",
                          "internal_out", "internal_in")}
    y0, y1 = out.census.resolution.years
    keys = {(y, k[1], k[2]) for y in range(y0, y1)
            for f in (pop, *flows.values()) for k in f}
    residuals = {}
    for (y, r, s) in keys:
        key = (y, r, s)
        delta = (flows["births"].get(key, 0.0)
                 + flows["immigrants"].get(key, 0.0)
                 + flows["internal_in"].get(key, 0.0)
                 - flows["deaths"].get(key, 0.0)
                 - flows["emigrants"].get(key, 0.0)
                 - flows["internal_out"].get(key, 0.0))
        residuals[key] = pop.get((y + 1, r, s), 0.0) - pop.get(key, 0.0) - delta
    return residuals


def test_criterion_09_simulator_balance():
    """Every run closes the regional balance exactly per (year, region,
    sex); at 10^6 persons with death probability 0.1 the 27-run mean death
    count sits within 3*sqrt(P*0.1*0.9) of 10^5."""
    level = "federalstates"
    years = (2000, 2002)

    def dense(entries, sexes=SEXES, integer=False, name="t"):
        res = ResolutionSpec(years, level, sexes=sexes, ages=FULL,
                             open_age=100)
        return CensusTable(res, entries, integer=integer, name=name)

    regions = ("AT-1", "AT-2")
    pop = CensusTable(
        ResolutionSpec((2000, 2000), level, sexes=SEXES, ages=FULL,
                       open_age=100),
        {(2000, r, s, a): 2000 for r in regions for s in SEXES
         for a in (20, 35, 60)},
        integer=True, name="P")
    yrs = range(2000, 2003)
    params = SimParams(
        population=pop,
        birth_p=dense({(y, r, "f", a): 0.08 for y in yrs for r in regions
                       for a in range(20, 41)}, name="birth_p"),
        death_p=dense({(y, r, s, a): 0.1 for y in yrs for r in regions
                       for s in SEXES for a in FULL}, name="death_p"),
        emig_p=dense({(y, r, s, a): 0.03 for y in yrs for r in regions
                      for s in SEXES for a in FULL}, name="emig_p"),
        immigrants=dense({(y, r, s, a): 4 for y in yrs for r in regions
                          for s in SEXES for a in (0, 30, 70)},
                         integer=True, name="I"),
        ie_p=dense({(y, r, s, a): 0.1 for y in yrs for r in regions
                    for s in SEXES for a in FULL}, name="ie_p"),
        ii=dense({(y, r, s, a): 3 for y in yrs for r in regions
                  for s in SEXES for a in FULL},
                 integer=True, name="II"))
    outputs = run(ScenarioConfig(t0=2000, te=2003, runs=3,
                                 im_mode="biregional", seed=5), params)
    for output in outputs:
        for key, residual in _balance_residuals(output).items():
            assert residual == 0, f"nonzero balance residual at {key}"

    # binomial anchor: one year, one region, a million persons
    big_years = (2000, 2000)
    big_res = ResolutionSpec(big_years, "country", sexes=SEXES, ages=FULL,
                             open_age=100)
    big = SimParams(
        population=CensusTable(big_res,
                               {(2000, "AT", s, 30): 500_000 for s in SEXES},
                               integer=True, name="P"),
        birth_p=CensusTable(big_res, {}, name="birth_p"),
        death_p=CensusTable(big_res,
                            {(2000, "AT", s, 30): 0.1 for s in SEXES},
                            name="death_p"),
        emig_p=CensusTable(big_res, {}, name="emig_p"),
        immigrants=CensusTable(big_res, {}, integer=True, name="I"))
    outputs = run(ScenarioConfig(t0=2000, te=2001, runs=27, seed=7), big)
    for output in outputs:
        for key, residual in _balance_residuals(output).items():
            assert residual == 0, f"nonzero balance residual at {key}"
    mean_deaths = math.fsum(o.deaths.total() for o in outputs) / len(outputs)
    bound = 3.0 * math.sqrt(1_000_000 * 0.1 * 0.9)
    assert abs(mean_deaths - 100_000.0) <= bound


def test_criterion_10_deviation_band_hand_values():
    """error_band reproduces hand-computed extremes exactly, including the
    max(1, X) clamp for small references."""
    e_min, e_max = error_band([110.0, 90.0, 5.0], [100.0, 100.0, 0.5])
    assert e_min == (90.0 - 100.0) / 100.0
    assert e_max == (5.0 - 0.5) / 1.0
    assert e_max == 4.5
    e_min, e_max = error_band([3.0], [0.0])
    assert e_min == 3.0 and e_max == 3.0
    e_min, e_max = error_band([120.0, 80.0], [100.0, 100.0])
    assert (e_min, e_max) == (-0.2, 0.2)


def test_criterion_11_end_to_end_pipeline(tmp_path):
    """The default pipeline completes in under five minutes and the
    simulated mean stays within 5% of the synthetic truth's grand total
    over the 25-year window.

    Magnitude and expected deviation at the default configuration
    (10 municipalities, base 400, about 2.1e5 persons, 25 simulated years,
    3 runs): Monte Carlo noise on the ~1% annual flows is about
    sqrt(2.1e5 * 0.012) ~ 50 persons per year and accumulates like a random
    walk to ~50 * sqrt(25) / sqrt(3 runs) ~ 150 persons ~ 0.07%; birth and
    death schedules are fitted against exact national counts (residual
    well under 0.1% per year); immigration is recovered exactly by the
    national balance; the event-probability smoothing perturbs emigration
    by a few percent of a ~1.2% flow, bounding the systematic drift by
    roughly 0.03% per year, ~0.8% over the window.  The total expected
    band is well under 2%, so 5% is a conservative gate.
    """
    cfg = Config({"workdir": str(tmp_path / "work")}, source="acceptance")
    start = time.perf_counter()
    statuses = run_pipeline(cfg, base_dir=str(tmp_path))
    elapsed = time.perf_counter() - start
    assert [status for _, status in statuses] == ["run"] * 10
    with open(tmp_path / "work" / "results" / "deviations.csv",
              newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    total = next(r for r in rows if r["group"] == "total")
    e_min, e_max = float(total["e_min"]), float(total["e_max"])
    assert -0.05 < e_min <= e_max < 0.05, (e_min, e_max)
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
