"""Differential test: the mortality warm start's direct solves against the
nested bisections they replace, each polished by the same minimizer."""

import math

import numpy as np

from censim import fitting
from censim.fitting import (
    AGE_COUNT,
    MortalityFitTarget,
    fit_mortality,
    mortality_curves,
)
from censim.lifetable import _separation
from censim.rates import death_table_alpha

AGES = np.arange(AGE_COUNT, dtype=float)


def _bisect(moves_lo, lo, hi, steps):
    for _ in range(steps):
        mid = (lo + hi) / 2
        if moves_lo(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def reference_start(target, pop_avg, qref, a, lo, hi):
    """The bisection warm start: five alternation rounds of two 30-step
    bisections per sex inside a 35-step bisection of the shared skew."""
    def anchor_sex(skew, le0_t, le65_t, qr):
        def e0_e65(th3):
            return fitting._e0_e65(fitting._curve(th3, qr), a)

        th3 = [1.0, 1.0, 1.0]
        for _ in range(5):
            th3[2] = _bisect(lambda m: e0_e65([th3[0], th3[1], m])[1] > le65_t,
                             lo, hi, 30)
            c = _bisect(lambda m: e0_e65([min(max(skew * m, lo), hi), m,
                                          th3[2]])[0] > le0_t, lo, hi, 30)
            th3 = [min(max(skew * c, lo), hi), c, th3[2]]
        return th3

    def family(skew):
        return np.array(
            anchor_sex(skew, target.le_m_0, target.le_m_65, qref[0])
            + anchor_sex(skew, target.le_f_0, target.le_f_65, qref[1]))

    def excess(skew):
        curves = mortality_curves(family(skew), *qref)
        return fitting._deaths(curves, pop_avg, a) - target.total_deaths

    s_lo, s_hi = math.log(lo / hi), math.log(hi / lo)
    c_lo = excess(math.exp(s_lo))
    c_hi = excess(math.exp(s_hi))
    if (c_lo > 0) == (c_hi > 0):
        return family(math.exp(s_lo if abs(c_lo) < abs(c_hi) else s_hi))
    skew = _bisect(lambda m: (excess(math.exp(m)) > 0) == (c_lo > 0),
                   s_lo, s_hi, 35)
    return family(math.exp(skew))


def random_case(rng):
    """Criterion-07-style targets from a random theta, reference curves and
    population; the death count is scaled past reach in some draws."""
    alpha = death_table_alpha()
    a = _separation(alpha, AGE_COUNT)
    qref = tuple(np.minimum(0.9, rng.uniform(0.5e-4, 2e-4)
                            * np.exp(rng.uniform(0.08, 0.095) * AGES))
                 for _ in range(2))
    theta = rng.uniform(0.5, 2.0, 6)
    q_m, q_f = mortality_curves(theta, *qref)
    pop = tuple(rng.uniform(40_000.0, 60_000.0, AGE_COUNT) for _ in range(2))
    deaths = fitting._deaths((q_m, q_f), pop, a)
    scale = rng.choice([1.0, 1.0, 1.0, 0.3, 3.0])
    e_m = fitting._e0_e65(q_m, a)
    e_f = fitting._e0_e65(q_f, a)
    target = MortalityFitTarget(deaths * scale, e_m[0], e_f[0], e_m[1], e_f[1])
    return target, pop, qref, alpha


def polished(start, target, pop, qref, alpha, monkeypatch):
    monkeypatch.setattr(fitting, "_anchored_mortality_start", start)
    return fit_mortality(target, pop, qref, alpha=alpha)[1]


def test_solved_start_polishes_no_worse_than_the_bisections(monkeypatch):
    """Where the bisection start polishes to an objective below 1e-3, the
    solved start does too, and ends no higher; targets that both miss are
    not compared (on the first 78 draws of this seed the solved start ends
    higher on 12, each with a bisection objective of 10 or more)."""
    solved = fitting._anchored_mortality_start
    rng = np.random.default_rng(7)
    reached = missed = 0
    for _ in range(12):
        target, pop, qref, alpha = random_case(rng)
        ref = polished(reference_start, target, pop, qref, alpha, monkeypatch)
        new = polished(solved, target, pop, qref, alpha, monkeypatch)
        if ref < 1e-3:
            reached += 1
            assert new < 1e-3 and new <= ref, (target, ref, new)
        else:
            missed += 1
    assert reached >= 5 and missed >= 3
