"""Forecast parameter fitting.

Two small constrained problems share one quasi-Newton minimizer: a Gaussian
bell curve for age-specific fertility rates, matched to a total birth count
and a mean childbearing age, and a six-parameter multiplier model for death
probabilities, matched to a death count and four life expectancies from a
start that solves those five equations directly.  Both objectives are sums
of absolute errors, so gradients come from central differences and the
line search is expected to cope with the kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError
from .lifetable import _columns, _require_open_class, _separation
from .rates import death_table_alpha

AGE_COUNT = 101
_AGES = np.arange(AGE_COUNT, dtype=float)

BIRTH_BOUNDS = ((0.0, 1.0), (15.0, 49.0), (1.0, 20.0))
MORTALITY_BOUNDS = ((0.2, 5.0),) * 6
TOL = 1e-9  # stop once the projected gradient is below this everywhere
MAX_EVALS = 5000


@dataclass(frozen=True)
class BirthFitTarget:
    total_births: float
    target_mac: float
    female_pop: tuple  # population slices for the fit year and its successor

    def __post_init__(self):
        if self.total_births < 0:
            raise DataError("total births must be non-negative")
        if not 10 < self.target_mac < 60:
            raise DataError(f"mean childbearing age {self.target_mac} out of range")
        p0, p1 = self.female_pop
        if len(p0) != AGE_COUNT or len(p1) != AGE_COUNT:
            raise DataError("population slices must cover ages 0..100")


@dataclass(frozen=True)
class MortalityFitTarget:
    total_deaths: float
    le_m_0: float
    le_f_0: float
    le_m_65: float
    le_f_65: float

    def __post_init__(self):
        for name in ("le_m_0", "le_f_0", "le_m_65", "le_f_65"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.le_m_65 >= self.le_m_0 or self.le_f_65 >= self.le_f_0:
            raise DataError("remaining life expectancy at 65 must fall below age 0")


def _theta_array(theta, n: int) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (n,):
        raise DataError(f"expected {n} parameters, got shape {arr.shape}")
    return arr


def gaussian_rates(theta) -> np.ndarray:
    """Rate at age i is amplitude * exp(-((i-1) - center)^2 / width^2).

    The shifted index means the curve peaks at age center + 1.
    """
    t = _theta_array(theta, 3)
    if t[2] == 0:
        raise DataError("width must be non-zero")
    return t[0] * np.exp(-(((_AGES - 1.0) - t[1]) / t[2]) ** 2)


def birth_objective(theta, target: BirthFitTarget) -> float:
    b = gaussian_rates(theta)
    p_avg = (np.asarray(target.female_pop[0], float)
             + np.asarray(target.female_pop[1], float)) / 2.0
    f1 = float(b @ p_avg)
    mass = float(b.sum())
    if mass <= 0:
        return 1e6
    f2 = float((_AGES @ b) / mass)
    return abs(f1 - target.total_births) / 100.0 + abs(f2 - target.target_mac)


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-0.5 * x))


def activation(a):
    """Split an age into child, adult and senior weight, summing to one."""
    a = np.asarray(a, dtype=float)
    s16 = _logistic(a - 16.0)
    s65 = _logistic(a - 65.0)
    return 1.0 - s16, s16 - s65, s65


_PHI = np.stack(activation(_AGES))  # 3 x 101, reused by every objective call


def _curve(th3, qref) -> np.ndarray:
    """One sex's death probabilities, clipped to [0,1]."""
    return np.clip((np.asarray(th3) @ _PHI) * qref, 0.0, 1.0)


def mortality_curves(theta, qref_m, qref_f):
    t = _theta_array(theta, 6)
    qref_m = np.asarray(qref_m, dtype=float)
    qref_f = np.asarray(qref_f, dtype=float)
    for name, q in (("qref_m", qref_m), ("qref_f", qref_f)):
        if q.shape != (AGE_COUNT,):
            raise DataError(f"{name} must have {AGE_COUNT} entries")
        if ((q < 0) | (q > 1)).any():
            raise DataError(f"{name} values must lie in [0,1]")
    return _curve(t[:3], qref_m), _curve(t[3:], qref_f)


def _e0_e65(q: np.ndarray, a: list) -> tuple:
    """e(0) and e(65) as build_life_table has them, open-class error too."""
    _require_open_class(q)
    l, _, _, T = _columns(q.tolist(), a, 100000.0)
    return tuple(T[i] / l[i] if l[i] > 0 else 0.0 for i in (0, 65))


def _deaths(curves, pop_avg, a: list) -> float:
    """Expected deaths, male then female; a vanishing 1 - a*q gives a
    non-finite sum, which minimize treats as infeasible."""
    total = 0.0
    with np.errstate(divide="ignore"):
        for q, pop in zip(curves, pop_avg):
            total += float(np.asarray(pop, float) @ (q / (1.0 - np.multiply(a, q))))
    return total


def mortality_objective(theta, target: MortalityFitTarget, pop_avg, qref,
                        a: list) -> float:
    """The fit's error at theta; `a` holds the separation factors alpha(age)."""
    curves = mortality_curves(theta, qref[0], qref[1])
    f1 = _deaths(curves, pop_avg, a)
    try:
        (e_m0, e_m65), (e_f0, e_f65) = (_e0_e65(q, a) for q in curves)
    except DataError:
        return math.inf
    return (abs(f1 - target.total_deaths) / 2000.0
            + abs(e_m0 - target.le_m_0) + abs(e_f0 - target.le_f_0)
            + abs(e_m65 - target.le_m_65) + abs(e_f65 - target.le_f_65))


def fd_gradient(evaluate, x: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                fx: float) -> np.ndarray:
    """Central differences with the stencil clamped into the bounds."""
    g = np.zeros(len(x))
    for j in range(len(x)):
        h = 1e-6 * max(1.0, abs(x[j]))
        hi = min(x[j] + h, ub[j])
        lo = max(x[j] - h, lb[j])
        if hi <= lo:
            continue
        zp = x.copy()
        zp[j] = hi
        fp = evaluate(zp)
        zm = x.copy()
        zm[j] = lo
        fm = evaluate(zm)
        if math.isfinite(fp) and math.isfinite(fm):
            g[j] = (fp - fm) / (hi - lo)
        elif math.isfinite(fp) and hi > x[j]:
            g[j] = (fp - fx) / (hi - x[j])
        elif math.isfinite(fm) and x[j] > lo:
            g[j] = (fx - fm) / (x[j] - lo)
    return g


def minimize(objective, x0, bounds, diagnostics: dict | None = None):
    """Projected BFGS descent; returns the best point seen and its value."""
    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array([b[1] for b in bounds], dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)
    if lb.shape != x.shape or ub.shape != x.shape:
        raise DataError("bounds must match the parameter vector")
    if (lb > ub).any():
        raise DataError("lower bounds exceed upper bounds")
    if ((x < lb) | (x > ub)).any():
        raise DataError("initial point violates the bounds")

    evals = 0
    best_x = x.copy()
    best_f = math.inf

    def f(z):
        nonlocal evals, best_x, best_f
        evals += 1
        v = float(objective(z))
        if not math.isfinite(v):
            return math.inf
        if v < best_f:
            best_f = v
            best_x = z.copy()
        return v

    fx = f(x)
    if not math.isfinite(fx):
        raise DataError("objective is not finite at the initial point")

    eye = np.eye(n)
    H = eye.copy()
    g = fd_gradient(f, x, lb, ub, fx)
    iterations = 0
    reset_used = False
    stale = 0
    converged = False
    while evals < MAX_EVALS:
        pg = g.copy()
        pg[(x <= lb) & (g > 0)] = 0.0
        pg[(x >= ub) & (g < 0)] = 0.0
        if np.abs(pg).max() < TOL:
            converged = True
            break
        p = -H @ g
        if p @ g >= 0:
            H = eye.copy()
            p = -g
        t = 1.0
        accepted = False
        for _ in range(30):
            xn = np.clip(x + t * p, lb, ub)
            step = xn - x
            if not step.any():
                break
            fn = f(xn)
            if fn <= fx + 1e-4 * float(g @ step):
                accepted = True
                break
            t *= 0.5
            if evals >= MAX_EVALS:
                break
        if not accepted:
            if not reset_used:
                # one fresh start as plain steepest descent before giving up
                H = eye.copy()
                reset_used = True
                continue
            break
        gn = fd_gradient(f, xn, lb, ub, fn)
        s = xn - x
        y = gn - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            V = eye - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        if fx - fn < 1e-15 * max(1.0, abs(fx)):
            stale += 1
            if stale >= 3:
                x, fx, g = xn, fn, gn
                break
        else:
            stale = 0
        x, fx, g = xn, fn, gn
        iterations += 1
    if diagnostics is not None:
        diagnostics.update(iterations=iterations, evals=evals,
                           converged=converged, objective=best_f)
    return best_x.copy(), best_f


def fit_births(target: BirthFitTarget, diagnostics: dict | None = None):
    center = min(max(target.target_mac, BIRTH_BOUNDS[1][0]), BIRTH_BOUNDS[1][1])
    width = 5.0
    shape = np.exp(-(((_AGES - 1.0) - center) / width) ** 2)
    p_avg = (np.asarray(target.female_pop[0], float)
             + np.asarray(target.female_pop[1], float)) / 2.0
    scale = float(shape @ p_avg)
    amp = target.total_births / scale if scale > 0 else 0.05
    theta0 = (min(max(amp, 1e-6), BIRTH_BOUNDS[0][1]), center, width)
    return minimize(lambda th: birth_objective(th, target), theta0,
                    BIRTH_BOUNDS, diagnostics=diagnostics)


def _anchored_mortality_start(target: MortalityFitTarget, pop_avg, qref,
                              a: list, lo: float, hi: float) -> np.ndarray:
    """Deterministic warm start that pins the five targets by direct solves.

    Per sex, a damped Newton solve in (log c, log m) puts e(0) and e(65) on
    target, with adult multiplier c, senior multiplier m and child multiplier
    clip(skew * c).  Regula falsi (Illinois) then finds the shared skew that
    meets the death count, monotone along this LE-preserving family.  The
    raw objective has kinked local minima that trap a quasi-Newton descent
    started from all ones, so the descent only polishes from here.
    """
    def anchor_sex(skew, le0_t, le65_t, qr):
        def error(u):
            c, m = np.exp(u)
            th3 = [min(max(skew * c, lo), hi), c, m]
            return th3, np.subtract(_e0_e65(_curve(th3, qr), a),
                                    (le0_t, le65_t))

        u = np.zeros(2)
        th3, r = error(u)
        for _ in range(20):
            if np.abs(r).sum() < 1e-11:
                break
            jac = np.column_stack([(error(u + d)[1] - r) / 1e-6
                                   for d in np.eye(2) * 1e-6])
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            for _ in range(30):  # halve the step until the error falls
                un = np.clip(u + step, math.log(lo), math.log(hi))
                th3n, rn = error(un)
                if np.abs(rn).sum() < np.abs(r).sum():
                    break
                step /= 2
            else:
                break
            u, th3, r = un, th3n, rn
        return th3

    def family(s):
        theta = np.array(
            anchor_sex(math.exp(s), target.le_m_0, target.le_m_65, qref[0])
            + anchor_sex(math.exp(s), target.le_f_0, target.le_f_65, qref[1]))
        curves = mortality_curves(theta, *qref)
        return theta, _deaths(curves, pop_avg, a) - target.total_deaths

    s0, s1 = math.log(lo / hi), math.log(hi / lo)
    (th0, c0), (th1, c1) = family(s0), family(s1)
    if (c0 > 0) == (c1 > 0):
        # count not reachable along the family; keep the closer end
        return th0 if abs(c0) < abs(c1) else th1
    for _ in range(60):
        s = (s0 * c1 - s1 * c0) / (c1 - c0)
        if not min(s0, s1) < s < max(s0, s1):  # a non-finite count at an end
            s = (s0 + s1) / 2
        theta, c = family(s)
        if abs(c) < 1e-12 * target.total_deaths or s in (s0, s1):
            break
        if (c > 0) != (c1 > 0):
            s0, c0 = s1, c1
        else:  # s0 is kept once more: halve its count (Illinois)
            c0 /= 2
        s1, c1 = s, c
    return theta


def fit_mortality(target: MortalityFitTarget, pop_avg, qref, alpha=None,
                  diagnostics: dict | None = None):
    if alpha is None:
        alpha = death_table_alpha()
    a = _separation(alpha, AGE_COUNT)
    lo = max(b[0] for b in MORTALITY_BOUNDS)
    hi = min(b[1] for b in MORTALITY_BOUNDS)
    objective = partial(mortality_objective, target=target, pop_avg=pop_avg,
                        qref=qref, a=a)
    try:  # the six bounds are the same
        theta0 = np.clip(_anchored_mortality_start(target, pop_avg, qref, a,
                                                   lo, hi), lo, hi)
        f0 = objective(theta0)
    except DataError:
        theta0, f0 = np.ones(6), math.inf  # polished whatever it scores
    if f0 < TOL:  # on target, where the polish only fails at the kink
        if diagnostics is not None:
            diagnostics.update(iterations=0, evals=1, converged=True,
                               objective=f0)
        return theta0, f0
    return minimize(objective, theta0, MORTALITY_BOUNDS,
                    diagnostics=diagnostics)


def average_slice(pop, year: int, region: str, sex: str) -> np.ndarray:
    """Two-year mean population by single age, as a 101-entry vector."""
    _require_full_ages(pop)
    y0, y1 = pop.resolution.years
    if not y0 <= year <= y1:
        raise DataError(f"year {year} outside population range {y0}..{y1}")
    now, nxt = pop.grid((year, min(year + 1, y1)), (region,), (sex,),
                        range(AGE_COUNT))[:, 0, 0]
    return (now + nxt) / 2.0


def qref_series(prob, years, region: str, sex: str) -> np.ndarray:
    """Mean of observed death probabilities over the given years."""
    _require_full_ages(prob)
    years = list(years)
    if not years:
        raise DataError("need at least one reference year")
    y0, y1 = prob.resolution.years
    for y in years:
        if not y0 <= y <= y1:
            raise DataError(f"reference year {y} outside table range {y0}..{y1}")
    # summed year by year from 0, as a Python sum over the rows
    rows = prob.grid(years, (region,), (sex,), range(AGE_COUNT))[:, 0, 0]
    return sum(rows) / len(years)


def _require_full_ages(table):
    if table.resolution.ages != tuple(range(AGE_COUNT)):
        raise DataError(f"{table.name or 'table'} must carry single ages 0..100")
