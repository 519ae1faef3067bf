import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.lifetable import build_life_table, life_expectancy
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
