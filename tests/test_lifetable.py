import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.fitting import AGE_COUNT, _e0_e65
from censim.lifetable import (LifeTable, _separation, build_life_table,
                              life_expectancy)
from censim.rates import death_table_alpha


def model_alpha(age):
    """The constant alpha = 1/2 of model parametrisation."""
    return 0.5


def test_constant_hazard_half():
    table = build_life_table([0.5] * 101, model_alpha)
    assert np.allclose(table.l, 100000.0 * 0.5 ** np.arange(101), rtol=1e-12)
    # memoryless: the same expectancy at every age
    assert np.allclose(table.e, 1.5, rtol=1e-12)


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5])
def test_constant_hazard_closed_form(q):
    table = build_life_table([q] * 101, model_alpha)
    expected = (1 - q / 2) / q
    assert table.e[0] == pytest.approx(expected, rel=1e-12)
    assert table.e[60] == pytest.approx(expected, rel=1e-12)


def test_certain_death_in_first_year():
    assert life_expectancy([1.0], 0, model_alpha) == pytest.approx(0.5, rel=1e-12)
    assert life_expectancy([1.0], 0, death_table_alpha()) == pytest.approx(
        1 - 0.923, rel=1e-12)


def test_radix_invariance():
    q = [0.002 * (i + 1) for i in range(90)]
    small = build_life_table(q, model_alpha, l0=1.0)
    big = build_life_table(q, model_alpha, l0=100000.0)
    assert np.allclose(small.e, big.e, rtol=1e-12)
    assert np.allclose(small.q, big.q)


def test_open_class_tail_against_brute_force():
    q = [0.001 + 0.003 * i for i in range(100)] + [0.3]
    table = build_life_table(q, model_alpha)
    # extend far enough that the remaining mass is below float resolution
    horizon = 100 + math.ceil(math.log(1e-15) / math.log(1 - 0.3))
    l = 100000.0
    total = 0.0
    for j in range(horizon):
        qj = q[min(j, 100)]
        total += l * (1 - model_alpha(j) * qj)
        l *= 1 - qj
    assert table.T[0] == pytest.approx(total, rel=1e-9)
    assert table.e[0] == pytest.approx(total / 100000.0, rel=1e-9)


def test_deaths_exhaust_radix():
    q = [0.01] * 30 + [0.4] * 371
    table = build_life_table(q, model_alpha)
    assert table.d.sum() == pytest.approx(100000.0, rel=1e-9)


@given(st.integers(0, 49), st.floats(0.01, 0.5))
def test_lower_hazard_never_shortens_life(i, bump):
    q = [0.1] * 50 + [0.6]
    lowered = list(q)
    lowered[i] = q[i] - bump * q[i]
    base = build_life_table(q, model_alpha)
    better = build_life_table(lowered, model_alpha)
    assert better.e[0] >= base.e[0] - 1e-12


def test_zero_terminal_hazard_rejected():
    with pytest.raises(DataError):
        build_life_table([0.1, 0.0], model_alpha)


def test_life_expectancy_checks_survivors():
    q = [1.0, 0.5, 0.5]
    with pytest.raises(DataError):
        life_expectancy(q, 2, model_alpha)
    with pytest.raises(DataError):
        life_expectancy(q, 7, model_alpha)


def reference_life_table(q, alpha, l0: float = 100000.0) -> LifeTable:
    """The life table as a loop over numpy scalars, kept as the oracle for
    the arithmetic on Python floats."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise DataError("q must be a non-empty series")
    if ((q < 0) | (q > 1)).any():
        raise DataError("death probabilities must lie in [0,1]")
    a_max = q.size - 1
    if q[a_max] == 0.0:
        raise DataError("q at the open age class must be positive (the tail diverges)")
    if l0 <= 0:
        raise DataError(f"radix must be positive, got {l0}")

    a = np.array([float(alpha(i)) for i in range(a_max + 1)])
    if ((a < 0) | (a > 1)).any():
        raise DataError("alpha values must lie in [0,1]")

    l = np.empty(a_max + 1)
    d = np.empty(a_max + 1)
    l[0] = l0
    for i in range(a_max):
        d[i] = l[i] * q[i]
        l[i + 1] = l[i] - d[i]
    d[a_max] = l[a_max] * q[a_max]
    L = l - a * d
    T = np.empty(a_max + 1)
    qa = q[a_max]
    T[a_max] = L[a_max] + l[a_max] * (1.0 - qa) * (1.0 - qa / 2.0) / qa
    for i in range(a_max - 1, -1, -1):
        T[i] = T[i + 1] + L[i]
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(l > 0, T / np.where(l > 0, l, 1.0), 0.0)
    return LifeTable(q=q, l=l, d=d, L=L, T=T, e=e, l0=float(l0), a_max=a_max)


def _random_q(rng, n):
    """Probabilities with zero-q prefixes, runs of zero survivors (a q of 1
    mid-series) and q = 1 tails mixed in; the open class stays positive."""
    q = rng.uniform(0.0, 1.0, n) ** rng.uniform(1.0, 12.0)
    if rng.random() < 0.3:
        q[:rng.integers(0, n)] = 0.0
    if rng.random() < 0.3:
        q[rng.integers(0, n)] = 1.0
    if rng.random() < 0.3:
        q[rng.integers(0, n):] = 1.0
    if rng.random() < 0.2:
        q[rng.random(n) < 0.2] = 0.0
    if q[-1] == 0.0:
        q[-1] = rng.uniform(1e-6, 1.0)
    return q


ALPHAS = (model_alpha, death_table_alpha())


@pytest.mark.parametrize("seed", range(8))
def test_life_table_matches_the_numpy_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 121))
        q = _random_q(rng, n)
        alpha = ALPHAS[int(rng.integers(0, 2))]
        l0 = (100000.0, 1.0, float(rng.uniform(0.5, 1e7)))[int(rng.integers(0, 3))]
        want = reference_life_table(q, alpha, l0=l0)
        got = build_life_table(q, alpha, l0=l0)
        for col in ("q", "l", "d", "L", "T", "e"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
        assert (got.l0, got.a_max) == (want.l0, want.a_max)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_fit_expectancies_match_the_table_bit_for_bit(alpha):
    rng = np.random.default_rng(11)
    a = _separation(alpha, AGE_COUNT)
    ages = np.arange(AGE_COUNT, dtype=float)
    curves = [np.minimum(1.0, 1e-4 * np.exp(0.088 * ages))]
    curves += [_random_q(rng, AGE_COUNT) for _ in range(300)]
    for q in curves:
        want = build_life_table(q, alpha).e[[0, 65]]
        assert np.array(_e0_e65(q, a)).tobytes() == want.tobytes()
    q = curves[0].copy()
    q[-1] = 0.0
    for run in (lambda: build_life_table(q, alpha), lambda: _e0_e65(q, a),
                lambda: reference_life_table(q, alpha)):
        with pytest.raises(DataError, match="open age class must be positive"):
            run()
