"""Forecast parameter fitting.

Two small constrained problems share one quasi-Newton minimizer: a Gaussian
bell curve for age-specific fertility rates, matched to a total birth count
and a mean childbearing age, and a six-parameter multiplier model for death
probabilities, matched to a death count and four life expectancies.  Both
objectives are sums of absolute errors, so gradients come from central
differences and the line search is expected to cope with the kinks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lifetable import build_life_table
from .rates import death_table_alpha

log = logging.getLogger(__name__)

AGE_COUNT = 101
_AGES = np.arange(AGE_COUNT, dtype=float)

BIRTH_BOUNDS = ((0.0, 1.0), (15.0, 49.0), (1.0, 20.0))
MORTALITY_BOUNDS = ((0.2, 5.0),) * 6


@dataclass(frozen=True)
class BirthTheta:
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise DataError("amplitude must be non-negative")
        if self.width <= 0:
            raise DataError("width must be positive")


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
    if isinstance(theta, BirthTheta):
        theta = (theta.amplitude, theta.center, theta.width)
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


def mortality_curves(theta, qref_m, qref_f, diagnostics: dict | None = None):
    t = _theta_array(theta, 6)
    qref_m = np.asarray(qref_m, dtype=float)
    qref_f = np.asarray(qref_f, dtype=float)
    for name, q in (("qref_m", qref_m), ("qref_f", qref_f)):
        if q.shape != (AGE_COUNT,):
            raise DataError(f"{name} must have {AGE_COUNT} entries")
        if ((q < 0) | (q > 1)).any():
            raise DataError(f"{name} values must lie in [0,1]")
    q_m = (t[:3] @ _PHI) * qref_m
    q_f = (t[3:] @ _PHI) * qref_f
    clipped = int((q_m > 1).sum() + (q_f > 1).sum())
    if diagnostics is not None:
        diagnostics["clipped"] = diagnostics.get("clipped", 0) + clipped
    return np.clip(q_m, 0.0, 1.0), np.clip(q_f, 0.0, 1.0)


def mortality_objective(theta, target: MortalityFitTarget, pop_avg, qref,
                        alpha=None) -> float:
    if alpha is None:
        alpha = death_table_alpha()
    q_m, q_f = mortality_curves(theta, qref[0], qref[1])
    a_vec = np.array([alpha(i) for i in range(AGE_COUNT)])
    f1 = 0.0
    for q, pop in ((q_m, pop_avg[0]), (q_f, pop_avg[1])):
        denom = 1.0 - a_vec * q
        if (denom <= 0).any():
            return math.inf
        f1 += float(np.asarray(pop, float) @ (q / denom))
    try:
        e_m = build_life_table(q_m, alpha).e
        e_f = build_life_table(q_f, alpha).e
    except DataError:
        return math.inf
    return (abs(f1 - target.total_deaths) / 2000.0
            + abs(e_m[0] - target.le_m_0) + abs(e_f[0] - target.le_f_0)
            + abs(e_m[65] - target.le_m_65) + abs(e_f[65] - target.le_f_65))


def fd_gradient(objective, x: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                fx: float, evaluate=None) -> np.ndarray:
    """Central differences with the stencil clamped into the bounds."""
    if evaluate is None:
        evaluate = objective
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


def minimize(objective, x0, bounds, tol: float = 1e-9, max_evals: int = 5000,
             diagnostics: dict | None = None):
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
    g = fd_gradient(objective, x, lb, ub, fx, evaluate=f)
    iterations = 0
    reset_used = False
    stale = 0
    converged = False
    while evals < max_evals:
        pg = g.copy()
        pg[(x <= lb) & (g > 0)] = 0.0
        pg[(x >= ub) & (g < 0)] = 0.0
        if np.abs(pg).max() < tol:
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
            if evals >= max_evals:
                break
        if not accepted:
            if not reset_used:
                # one fresh start as plain steepest descent before giving up
                H = eye.copy()
                reset_used = True
                continue
            break
        gn = fd_gradient(objective, xn, lb, ub, fn, evaluate=f)
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


def fit_births(target: BirthFitTarget, theta0=None, bounds=BIRTH_BOUNDS,
               tol: float = 1e-9, max_evals: int = 5000,
               diagnostics: dict | None = None):
    if theta0 is None:
        center = min(max(target.target_mac, bounds[1][0]), bounds[1][1])
        width = 5.0
        shape = np.exp(-(((_AGES - 1.0) - center) / width) ** 2)
        p_avg = (np.asarray(target.female_pop[0], float)
                 + np.asarray(target.female_pop[1], float)) / 2.0
        scale = float(shape @ p_avg)
        amp = target.total_births / scale if scale > 0 else 0.05
        theta0 = (min(max(amp, 1e-6), bounds[0][1]), center, width)
    return minimize(lambda th: birth_objective(th, target), theta0, bounds,
                    tol=tol, max_evals=max_evals, diagnostics=diagnostics)


def _anchored_mortality_start(target: MortalityFitTarget, pop_avg, qref,
                              alpha, lo: float, hi: float) -> np.ndarray:
    """Deterministic warm start that pins the five targets by bisection.

    Per sex, the senior multiplier is bisected against LE(65) and a joint
    child/adult scale against LE(0); a shared child-vs-adult skew is then
    bisected against the death count, which moves monotonically along the
    LE-preserving family.  The raw objective has kinked local minima that
    trap a quasi-Newton descent started from all ones, so the descent only
    polishes from here.
    """
    a_vec = np.array([alpha(i) for i in range(AGE_COUNT)])

    def sex_q(th3, qr):
        return np.clip((np.asarray(th3) @ _PHI) * qr, 0.0, 1.0)

    def le_pair(th3, qr):
        e = build_life_table(sex_q(th3, qr), alpha).e
        return e[0], e[65]

    def count(th):
        total = 0.0
        for th3, qr, pop in ((th[:3], qref[0], pop_avg[0]),
                             (th[3:], qref[1], pop_avg[1])):
            q = sex_q(th3, qr)
            total += float(np.asarray(pop, float) @ (q / (1.0 - a_vec * q)))
        return total

    def anchor_sex(skew, le0_t, le65_t, qr):
        th3 = [1.0, 1.0, 1.0]
        for _ in range(5):
            a, b = lo, hi
            for _ in range(30):
                mid = (a + b) / 2
                if le_pair([th3[0], th3[1], mid], qr)[1] > le65_t:
                    a = mid
                else:
                    b = mid
            th3[2] = (a + b) / 2
            a, b = lo, hi
            for _ in range(30):
                mid = (a + b) / 2
                cand = [min(max(skew * mid, lo), hi), mid, th3[2]]
                if le_pair(cand, qr)[0] > le0_t:
                    a = mid
                else:
                    b = mid
            c = (a + b) / 2
            th3 = [min(max(skew * c, lo), hi), c, th3[2]]
        return th3

    def family(skew):
        return np.array(
            anchor_sex(skew, target.le_m_0, target.le_m_65, qref[0])
            + anchor_sex(skew, target.le_f_0, target.le_f_65, qref[1]))

    s_lo, s_hi = math.log(lo / hi), math.log(hi / lo)
    c_lo = count(family(math.exp(s_lo))) - target.total_deaths
    c_hi = count(family(math.exp(s_hi))) - target.total_deaths
    if (c_lo > 0) == (c_hi > 0):
        # count not reachable along the family; keep the closer end
        return family(math.exp(s_lo if abs(c_lo) < abs(c_hi) else s_hi))
    sign_lo = c_lo > 0
    for _ in range(35):
        mid = (s_lo + s_hi) / 2
        if (count(family(math.exp(mid))) > target.total_deaths) == sign_lo:
            s_lo = mid
        else:
            s_hi = mid
    return family(math.exp((s_lo + s_hi) / 2))


def fit_mortality(target: MortalityFitTarget, pop_avg, qref, alpha=None,
                  theta0=None, bounds=MORTALITY_BOUNDS, tol: float = 1e-9,
                  max_evals: int = 5000, diagnostics: dict | None = None):
    if alpha is None:
        alpha = death_table_alpha()
    if theta0 is None:
        lo = max(b[0] for b in bounds)
        hi = min(b[1] for b in bounds)
        try:
            theta0 = _anchored_mortality_start(target, pop_avg, qref, alpha,
                                               lo, hi)
        except DataError:
            theta0 = np.ones(6)
        theta0 = np.clip(theta0, [b[0] for b in bounds], [b[1] for b in bounds])
    return minimize(
        lambda th: mortality_objective(th, target, pop_avg, qref, alpha=alpha),
        theta0, bounds, tol=tol, max_evals=max_evals, diagnostics=diagnostics)


def average_slice(pop, year: int, region: str, sex: str) -> np.ndarray:
    """Two-year mean population by single age, as a 101-entry vector."""
    _require_full_ages(pop)
    y0, y1 = pop.resolution.years
    if not y0 <= year <= y1:
        raise DataError(f"year {year} outside population range {y0}..{y1}")
    nxt = min(year + 1, y1)
    out = np.empty(AGE_COUNT)
    for a in range(AGE_COUNT):
        out[a] = (pop[(year, region, sex, a)] + pop[(nxt, region, sex, a)]) / 2.0
    return out


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
    out = np.zeros(AGE_COUNT)
    for a in range(AGE_COUNT):
        out[a] = sum(prob[(y, region, sex, a)] for y in years) / len(years)
    return out


def trailing_years(y0: int, y1: int, n: int = 3, exclude=()) -> list[int]:
    """The n most recent years in [y0, y1] that are not excluded, ascending."""
    picked = [y for y in range(y1, y0 - 1, -1) if y not in set(exclude)][:n]
    if len(picked) < n:
        raise DataError(f"only {len(picked)} usable years in {y0}..{y1}, need {n}")
    return picked[::-1]


def _require_full_ages(table):
    if table.resolution.ages != tuple(range(AGE_COUNT)):
        raise DataError(f"{table.name or 'table'} must carry single ages 0..100")
