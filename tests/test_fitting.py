import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from censim import fitting
from censim.errors import DataError
from censim.fitting import (
    AGE_COUNT,
    BirthFitTarget,
    MortalityFitTarget,
    activation,
    average_slice,
    birth_objective,
    fd_gradient,
    fit_births,
    fit_mortality,
    gaussian_rates,
    minimize,
    mortality_curves,
    mortality_objective,
    qref_series,
)
from censim.lifetable import _separation, build_life_table
from censim.rates import death_table_alpha
from censim.table import CensusTable, ResolutionSpec

AGES = np.arange(AGE_COUNT, dtype=float)


def test_gaussian_rates_peak_and_decay():
    b = gaussian_rates((2.0, 30.0, 5.0))
    assert b[31] == 2.0
    assert b[36] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)
    assert np.all(gaussian_rates((0.0, 30.0, 5.0)) == 0.0)
    with pytest.raises(DataError):
        gaussian_rates((1.0, 30.0, 0.0))


@given(st.integers(16, 48), st.integers(1, 20), st.integers(1, 30))
def test_gaussian_rates_symmetry(center, width, k):
    lo, hi = center + 1 - k, center + 1 + k
    if not (0 <= lo and hi <= 100):
        return
    b = gaussian_rates((1.0, float(center), float(width)))
    assert b[lo] == pytest.approx(b[hi], rel=1e-13)


def _flat_target(births=500.0, target_mac=30.0, pop=1000.0):
    slice_ = np.full(AGE_COUNT, pop)
    return BirthFitTarget(births, target_mac, (slice_, slice_))


def test_birth_objective_recomputation():
    target = _flat_target()
    theta = (0.04, 27.0, 6.0)
    b = gaussian_rates(theta)
    f1 = float(b @ np.full(AGE_COUNT, 1000.0))
    f2 = float((AGES @ b) / b.sum())
    expected = abs(f1 - 500.0) / 100.0 + abs(f2 - 30.0)
    assert birth_objective(theta, target) == pytest.approx(expected, rel=1e-13)


def test_birth_objective_exact_fit_is_zero():
    theta = (0.05, 29.0, 5.0)
    b = gaussian_rates(theta)
    pop = np.full(AGE_COUNT, 800.0)
    target = BirthFitTarget(float(b @ pop), float((AGES @ b) / b.sum()),
                            (pop, pop))
    assert birth_objective(theta, target) == 0.0
    doubled = birth_objective((0.10, 29.0, 5.0), target)
    assert doubled == pytest.approx(target.total_births / 100.0, rel=1e-12)


def test_birth_objective_zero_mass_penalty():
    assert birth_objective((0.0, 30.0, 5.0), _flat_target()) == 1e6


def test_birth_target_validation():
    pop = np.full(AGE_COUNT, 1.0)
    with pytest.raises(DataError):
        BirthFitTarget(-1.0, 30.0, (pop, pop))
    with pytest.raises(DataError):
        BirthFitTarget(10.0, 8.0, (pop, pop))
    with pytest.raises(DataError):
        BirthFitTarget(10.0, 30.0, (pop[:5], pop))


def test_activation_midpoints_and_partition():
    phi1, phi2, phi3 = activation(16)
    assert phi1 == pytest.approx(0.5, rel=1e-12)
    _, _, p3 = activation(65)
    assert p3 == pytest.approx(0.5, rel=1e-12)
    f1, f2, f3 = activation(AGES)
    assert np.abs(f1 + f2 + f3 - 1.0).max() < 1e-12
    assert f1[0] > 0.9 and f2[40] > 0.9 and f3[100] > 0.9


def _qref_pair():
    base = np.minimum(0.0005 * np.exp(0.075 * AGES), 0.9)
    qref_m = base.copy()
    qref_m[0] = 0.004
    qref_f = 0.85 * qref_m
    return qref_m, qref_f


def test_mortality_curves_identity_and_scaling():
    qref_m, qref_f = _qref_pair()
    q_m, q_f = mortality_curves(np.ones(6), qref_m, qref_f)
    assert np.allclose(q_m, qref_m, rtol=1e-12)
    assert np.allclose(q_f, qref_f, rtol=1e-12)
    q_m2, q_f2 = mortality_curves((2, 2, 2, 1, 1, 1), qref_m, qref_f)
    assert np.allclose(q_m2, np.minimum(2 * qref_m, 1.0), rtol=1e-12)
    assert np.allclose(q_f2, qref_f, rtol=1e-12)
    zero_m, zero_f = mortality_curves(np.zeros(6), qref_m, qref_f)
    assert not zero_m.any() and not zero_f.any()


def _mortality_setup(theta_true):
    qref = _qref_pair()
    pop = (np.full(AGE_COUNT, 60000.0), np.full(AGE_COUNT, 62000.0))
    alpha = death_table_alpha()
    q_m, q_f = mortality_curves(theta_true, *qref)
    a_vec = np.array([alpha(i) for i in range(AGE_COUNT)])
    deaths = float(pop[0] @ (q_m / (1 - a_vec * q_m))
                   + pop[1] @ (q_f / (1 - a_vec * q_f)))
    e_m = build_life_table(q_m, alpha).e
    e_f = build_life_table(q_f, alpha).e
    target = MortalityFitTarget(deaths, e_m[0], e_f[0], e_m[65], e_f[65])
    return target, pop, qref, alpha


def test_mortality_objective_zero_at_truth():
    theta = np.array([1.3, 0.85, 1.1, 0.9, 1.2, 0.95])
    target, pop, qref, alpha = _mortality_setup(theta)
    a = _separation(alpha, AGE_COUNT)
    assert mortality_objective(theta, target, pop, qref, a) == pytest.approx(0.0, abs=1e-12)


def test_mortality_objective_sex_separability():
    theta = np.array([1.3, 0.85, 1.1, 0.9, 1.2, 0.95])
    target, pop, qref, alpha = _mortality_setup(theta)
    bumped = theta.copy()
    bumped[0] *= 1.5
    q_m, q_f = mortality_curves(bumped, *qref)
    _, q_f_base = mortality_curves(theta, *qref)
    assert np.allclose(q_f, q_f_base)
    assert mortality_objective(bumped, target, pop, qref,
                               _separation(alpha, AGE_COUNT)) > 0


def test_mortality_objective_recomputation():
    theta = np.array([1.1, 1.0, 0.9, 1.05, 0.95, 1.0])
    target, pop, qref, alpha = _mortality_setup(np.ones(6))
    q_m, q_f = mortality_curves(theta, *qref)
    a_vec = np.array([alpha(i) for i in range(AGE_COUNT)])
    f1 = float(pop[0] @ (q_m / (1 - a_vec * q_m))
               + pop[1] @ (q_f / (1 - a_vec * q_f)))
    e_m = build_life_table(q_m, alpha).e
    e_f = build_life_table(q_f, alpha).e
    expected = (abs(f1 - target.total_deaths) / 2000.0
                + abs(e_m[0] - target.le_m_0) + abs(e_f[0] - target.le_f_0)
                + abs(e_m[65] - target.le_m_65) + abs(e_f[65] - target.le_f_65))
    got = mortality_objective(theta, target, pop, qref,
                              _separation(alpha, AGE_COUNT))
    assert got == pytest.approx(expected, rel=1e-12)


def test_minimize_quadratic():
    x, fx = minimize(lambda z: (z[0] - 3.0) ** 2, [0.0], [(-10.0, 10.0)])
    assert x[0] == pytest.approx(3.0, abs=1e-6)
    assert fx < 1e-10


def test_minimize_respects_bounds():
    diag = {}
    x, fx = minimize(lambda z: (z[0] - 3.0) ** 2 + (z[1] + 1.0) ** 2,
                     [0.0, 0.0], [(-1.0, 1.0), (0.0, 2.0)], diagnostics=diag)
    assert x[0] == pytest.approx(1.0, abs=1e-8)
    assert x[1] == pytest.approx(0.0, abs=1e-8)
    assert diag["evals"] > 0


def test_minimize_never_worse_than_start():
    def bumpy(z):
        return math.sin(z[0] * 5) + 0.1 * z[0] ** 2

    x, fx = minimize(bumpy, [2.0], [(-4.0, 4.0)])
    assert fx <= bumpy(np.array([2.0])) + 1e-15


def test_minimize_rejects_bad_start():
    with pytest.raises(DataError):
        minimize(lambda z: z[0] ** 2, [5.0], [(-1.0, 1.0)])
    with pytest.raises(DataError):
        minimize(lambda z: math.nan, [0.0], [(-1.0, 1.0)])


def test_minimize_backtracks_over_non_finite():
    def partial(z):
        if z[0] > 2.0:
            return math.inf
        return (z[0] - 1.5) ** 2

    x, fx = minimize(partial, [0.0], [(-10.0, 10.0)])
    assert x[0] == pytest.approx(1.5, abs=1e-5)


@settings(deadline=None, max_examples=20)
@given(st.floats(0.01, 0.5), st.floats(20, 40), st.floats(2, 15))
def test_fd_gradient_matches_plain_central_difference(a, c, w):
    target = _flat_target()
    x = np.array([a, c, w])
    lb = np.array([0.0, 15.0, 1.0])
    ub = np.array([1.0, 49.0, 20.0])
    obj = lambda z: birth_objective(z, target)
    g = fd_gradient(obj, x, lb, ub, obj(x))
    for j in range(3):
        h = 1e-6
        zp, zm = x.copy(), x.copy()
        zp[j] += h
        zm[j] -= h
        plain = (obj(zp) - obj(zm)) / (2 * h)
        if abs(plain) > 1e-7:
            assert g[j] == pytest.approx(plain, rel=1e-4, abs=1e-8)


def test_birth_fit_recovers_targets():
    theta_true = (0.06, 28.0, 4.5)
    pop = 35000.0 - 150.0 * AGES
    b = gaussian_rates(theta_true)
    births = float(b @ pop)
    target_mac = float((AGES @ b) / b.sum())
    target = BirthFitTarget(births, target_mac, (pop, pop))
    diag = {}
    theta, value = fit_births(target, diagnostics=diag)
    fitted = gaussian_rates(theta)
    f1 = float(fitted @ pop)
    f2 = float((AGES @ fitted) / fitted.sum())
    assert abs(f1 - births) / births < 1e-3
    assert abs(f2 - target_mac) < 0.01
    assert value <= birth_objective((0.05, 28.0, 5.0), target)


@pytest.mark.parametrize("theta_true", [
    (1.3, 0.85, 1.1, 0.9, 1.2, 0.95),
    (0.5, 2.0, 0.9, 2.1, 0.55, 1.4),
])
def test_mortality_fit_recovers_targets(theta_true):
    target, pop, qref, alpha = _mortality_setup(np.array(theta_true))
    diag = {}
    theta, value = fit_mortality(target, pop, qref, alpha=alpha, diagnostics=diag)
    assert value < 1e-3
    q_m, q_f = mortality_curves(theta, *qref)
    e_m = build_life_table(q_m, alpha).e
    e_f = build_life_table(q_f, alpha).e
    assert abs(e_m[0] - target.le_m_0) < 0.05
    assert abs(e_f[0] - target.le_f_0) < 0.05
    assert abs(e_m[65] - target.le_m_65) < 0.05
    assert abs(e_f[65] - target.le_f_65) < 0.05


def _warm_start_case(deaths_scale=1.0):
    """The criterion-07 curves with a smooth population; the deaths target
    is scaled by deaths_scale."""
    alpha = death_table_alpha()
    a = _separation(alpha, AGE_COUNT)
    qref = (np.minimum(0.9, 1.0e-4 * np.exp(0.088 * AGES)),
            np.minimum(0.9, 0.7e-4 * np.exp(0.089 * AGES)))
    q_m, q_f = mortality_curves((1.1, 0.9, 1.3, 0.8, 1.2, 1.0), *qref)
    pop = (50000.0 - 150.0 * AGES, 52000.0 - 140.0 * AGES)
    deaths = float(pop[0] @ (q_m / (1.0 - np.multiply(a, q_m)))
                   + pop[1] @ (q_f / (1.0 - np.multiply(a, q_f))))
    e_m = build_life_table(q_m, alpha).e
    e_f = build_life_table(q_f, alpha).e
    target = MortalityFitTarget(deaths * deaths_scale, e_m[0], e_f[0],
                                e_m[65], e_f[65])
    return target, pop, qref, a


# the warm starts as float.hex: a change to the life-table arithmetic or to
# the solves that moves any bit of a start shows here
@pytest.mark.parametrize("deaths_scale, skew_search, want", [
    (1.0, 1, ["0x1.ec755200a2eeep-1", "0x1.cfb634be44b7dp-1",
              "0x1.4c9f9cee06a3bp+0", "0x1.41ca899daed9ep+0",
              "0x1.2f01cf3e10556p+0", "0x1.0058175e53359p+0"]),
    # ten times the deaths is out of reach along the family: the start
    # keeps the closer end of the skew bracket without searching it
    (10.0, 0, ["0x1.4000000000000p+2", "0x1.7b5b10877fd17p-1",
               "0x1.51c221b0d3f28p+0", "0x1.4000000000000p+2",
               "0x1.0ce0053f5b2ecp+0", "0x1.0327ced0cfb28p+0"]),
])
def test_warm_start_is_pinned(monkeypatch, deaths_scale, skew_search, want):
    target, pop, qref, a = _warm_start_case(deaths_scale)
    skews = []

    def spy(curves, pop_avg, a):
        skews.append(curves)
        return deaths(curves, pop_avg, a)

    deaths = fitting._deaths
    monkeypatch.setattr(fitting, "_deaths", spy)
    theta0 = fitting._anchored_mortality_start(target, pop, qref, a, 0.2, 5.0)
    assert [float(t).hex() for t in theta0] == want
    # one death count per skew tried: the two bracket ends, then the search
    assert (len(skews) > 2) == bool(skew_search)


def _pipeline_like_case():
    """A national row shaped like the pipeline's: about 1e5 persons per sex,
    reference curves read off Poisson death counts, so that young ages
    carry zero probabilities, and an integer death count."""
    rng = np.random.default_rng(2002)
    a = _separation(death_table_alpha(), AGE_COUNT)
    pop = (100.0 + 1700.0 * np.exp(-(AGES / 75.0) ** 4),
           100.0 + 1700.0 * np.exp(-(AGES / 80.0) ** 4))
    q_true = (np.minimum(0.9, 4e-3 * (AGES == 0) + 6e-5 * np.exp(0.095 * AGES)),
              np.minimum(0.9, 3e-3 * (AGES == 0) + 3e-5 * np.exp(0.097 * AGES)))
    qref = tuple(sum(np.minimum(1.0, rng.poisson(p * q) / p) for _ in range(3)) / 3
                 for q, p in zip(q_true, pop))
    year = mortality_curves((1.0, 0.97, 0.98, 0.99, 0.96, 0.97), *qref)
    (m0, m65), (f0, f65) = (fitting._e0_e65(q, a) for q in year)
    target = MortalityFitTarget(float(round(fitting._deaths(year, pop, a))),
                                m0, f0, m65, f65)
    return target, pop, qref, a


@pytest.mark.parametrize("case", [_warm_start_case, _pipeline_like_case],
                         ids=["criterion-07", "pipeline-like"])
def test_mortality_fit_builds_few_life_tables(monkeypatch, case):
    """Each _e0_e65 call is one life table; nested bisections in the warm
    start made about 22,000 per fit."""
    target, pop, qref, _ = case()
    tables = []
    e0_e65 = fitting._e0_e65
    monkeypatch.setattr(fitting, "_e0_e65",
                        lambda q, a: tables.append(1) or e0_e65(q, a))
    _, value = fit_mortality(target, pop, qref)
    assert len(tables) < 2000
    assert value < 1e-9


def test_warm_start_without_an_open_class_falls_back_to_ones(monkeypatch):
    target, pop, (qref_m, qref_f), a = _warm_start_case()
    qref_m = qref_m.copy()
    qref_m[-1] = 0.0
    qref = (qref_m, qref_f)
    with pytest.raises(DataError, match="open age class must be positive"):
        fitting._anchored_mortality_start(target, pop, qref, a, 0.2, 5.0)
    # no multiplier revives the open class, so the polish cannot start
    with pytest.raises(DataError, match="not finite at the initial point"):
        fit_mortality(target, pop, qref)
    starts = []
    monkeypatch.setattr(fitting, "minimize",
                        lambda f, x0, bounds, diagnostics: starts.append(x0))
    fit_mortality(target, pop, qref)
    assert [t.tobytes() for t in starts] == [np.ones(6).tobytes()]


@pytest.mark.parametrize("case", [_warm_start_case, _pipeline_like_case],
                         ids=["criterion-07", "pipeline-like"])
def test_solved_start_below_tolerance_skips_the_polish(monkeypatch, case):
    """A start that meets the targets comes back as it is, after the one
    evaluation that shows it; the polish returns the same point and value
    after 73 evaluations, as its line searches fail at the kink."""
    target, pop, qref, a = case()
    start = np.clip(fitting._anchored_mortality_start(target, pop, qref, a,
                                                      0.2, 5.0), 0.2, 5.0)
    polished = fitting.minimize(
        lambda th: mortality_objective(th, target, pop, qref, a), start,
        fitting.MORTALITY_BOUNDS)
    calls = []
    monkeypatch.setattr(fitting, "minimize", lambda *args, **kw: calls.append(1))
    diag = {}
    theta, value = fit_mortality(target, pop, qref, diagnostics=diag)
    assert calls == [] and value < fitting.TOL
    assert theta.tobytes() == polished[0].tobytes()
    assert value == polished[1] == diag["objective"]
    assert (diag["iterations"], diag["evals"], diag["converged"]) == (0, 1, True)


@pytest.mark.parametrize("solved, value", [(True, math.inf), (False, 0.0)],
                         ids=["infinite-start", "ones-fallback"])
def test_polish_runs_from_an_infinite_start_and_from_the_ones(
        monkeypatch, solved, value):
    """Only a solved start scoring below TOL skips the polish; the ones after
    a failed start are polished whatever they score."""
    target, pop, qref, _ = _warm_start_case()
    start = np.full(6, 1.5) if solved else np.ones(6)

    def anchored(*args):
        if not solved:
            raise DataError("no start")
        return start

    monkeypatch.setattr(fitting, "_anchored_mortality_start", anchored)
    monkeypatch.setattr(fitting, "mortality_objective",
                        lambda *a, **kw: value)
    starts = []
    monkeypatch.setattr(fitting, "minimize",
                        lambda f, x0, bounds, diagnostics: starts.append(x0))
    fit_mortality(target, pop, qref)
    assert [t.tobytes() for t in starts] == [start.tobytes()]


def test_warm_start_bisects_towards_an_infinite_count(monkeypatch):
    # alpha(0) = 1 and an infant probability clipped at 1 make the count
    # infinite at the upper skew end, where interpolation gives no point
    target, pop, (qref_m, qref_f), a = _warm_start_case(3.0)
    qref_m = qref_m.copy()
    qref_m[0] = 0.25
    counts = []
    deaths = fitting._deaths
    monkeypatch.setattr(fitting, "_deaths",
                        lambda *args: counts.append(deaths(*args)) or counts[-1])
    theta0 = fitting._anchored_mortality_start(
        target, pop, (qref_m, qref_f), [1.0] + a[1:], 0.2, 5.0)
    assert counts[0] < target.total_deaths and counts[1] == math.inf
    assert len(counts) > 2
    assert ((theta0 >= 0.2) & (theta0 <= 5.0)).all()


def test_slice_helpers():
    res = ResolutionSpec((2000, 2001), "country", ages=tuple(range(101)),
                         open_age=100)
    entries = {}
    for y in (2000, 2001):
        for a in range(101):
            entries[(y, "AT", "f", a)] = 100.0 + a + (y - 2000) * 10
            entries[(y, "AT", "m", a)] = 50.0
    P = CensusTable(res, entries, name="P")
    sl = average_slice(P, 2000, "AT", "f")
    assert sl[0] == pytest.approx(105.0)
    assert sl[100] == pytest.approx(205.0)
    # final year pairs with itself
    last = average_slice(P, 2001, "AT", "f")
    assert last[0] == pytest.approx(110.0)
    with pytest.raises(DataError):
        average_slice(P, 1999, "AT", "f")

    qres = ResolutionSpec((2000, 2002), "country", ages=tuple(range(101)),
                          open_age=100)
    qentries = {(y, "AT", "m", a): 0.001 * (y - 1999)
                for y in range(2000, 2003) for a in range(101)}
    q = CensusTable(qres, qentries, name="q")
    ref = qref_series(q, [2000, 2002], "AT", "m")
    assert np.allclose(ref, 0.002)
    with pytest.raises(DataError):
        qref_series(q, [1999], "AT", "m")
    with pytest.raises(DataError):
        qref_series(q, [], "AT", "m")
