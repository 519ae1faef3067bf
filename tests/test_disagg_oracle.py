"""Differential tests: the threshold-selection Huntington-Hill kernel against
the award loop it replaced.

The loop below is the reference: each award goes to the largest priority
p/sqrt(w(w+1)) (p itself before a cell's first award), ties to the larger
weight, then the lower index.  The kernel must return the same split bit for
bit, at the default window and with the window forced to zero, which makes
the threshold search probe until at most one award per cell is in doubt.
"""

import math
import random

import numpy as np
import pytest

from censim import disagg
from censim.disagg import _check_weights, huntington_hill, huntington_hill_splits
from censim.errors import DataError
from censim.synthgen import SynthSpec, _kernel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _draw_loop(x: int, p: np.ndarray, w: np.ndarray) -> None:
    # priorities recomputed from integers each award, no error accumulation
    denom = np.sqrt(np.where(w > 0, w * (w + 1.0), 1.0))
    v = np.where(w > 0, p / denom, p)
    for _ in range(x):
        top = np.flatnonzero(v == v.max())
        j = top[0] if top.size == 1 else top[np.argmax(p[top])]
        w[j] += 1
        v[j] = p[j] / math.sqrt(w[j] * (w[j] + 1.0))


def reference_huntington_hill(x: int, p) -> list[int]:
    """The award loop, after the same k*p prefill for integer weights."""
    x = int(x)
    p = np.asarray(_check_weights(p), dtype=float)
    w = np.zeros(len(p), dtype=np.int64)
    if all(v.is_integer() for v in p.tolist()):
        total = int(p.sum())
        k, x = divmod(x, total)
        if k:
            w += k * p.astype(np.int64)
    _draw_loop(x, p, w)
    return [int(v) for v in w]


def _check(monkeypatch, cases):
    expected = [reference_huntington_hill(x, p) for x, p in cases]
    assert [huntington_hill(x, p) for x, p in cases] == expected
    with monkeypatch.context() as m:
        m.setattr(disagg, "_WINDOW", 0)
        assert [huntington_hill(x, p) for x, p in cases] == expected


def _house(rng, top=400):
    # log-uniform over 0..top, so small and large houses are both common
    return int((top + 1) ** rng.random()) - 1


def _nonzero(p):
    if not any(p):
        p[0] = 1
    return p


@pytest.mark.parametrize("kind", ["integer", "3-decimal", "float"])
def test_random_weights_match_the_award_loop(monkeypatch, kind):
    rng = random.Random(f"hh-{kind}")
    draw = {"integer": lambda: rng.randint(0, 60),
            "3-decimal": lambda: round(rng.uniform(0, 10), 3),
            "float": lambda: rng.uniform(0, 100)}[kind]
    cases = []
    for _ in range(7000):
        p = _nonzero([draw() for _ in range(rng.randint(1, 40))])
        cases.append((_house(rng), p))
    _check(monkeypatch, cases)


def test_heavy_ties_match_the_award_loop(monkeypatch):
    rng = random.Random(1234)
    cases = [(_house(rng), [rng.choice((1, 2, 3, 4)) * rng.choice((1, 1, 0.5))
                            for _ in range(rng.randint(1, 40))])
             for _ in range(2000)]
    cases += [(x, [1.0] * n) for n in (1, 7, 40) for x in (0, 1, n - 1, n, 3 * n + 1, 400)]
    # weights equal to the float priority of another weight's award k, so
    # priorities of different weights tie exactly and the weight decides
    echoes = [p / math.sqrt(k * (k + 1.0)) if k else p for p in (1.0, 2.0, 3.0)
              for k in range(5)]
    cases += [(_house(rng), [rng.choice(echoes) for _ in range(rng.randint(1, 40))])
              for _ in range(1000)]
    _check(monkeypatch, cases)


def test_zero_weights_match_the_award_loop(monkeypatch):
    rng = random.Random(77)
    cases = [(_house(rng), _nonzero([rng.choice((0, 0, 0, 1.5, rng.uniform(0, 3)))
                                     for _ in range(rng.randint(1, 40))]))
             for _ in range(2000)]
    _check(monkeypatch, cases)


def test_prefill_remainders_match_the_award_loop(monkeypatch):
    # integer weights with x = k*sum(p) + r, 0 < r < sum(p): the loop runs
    # on from the k*p start state
    rng = random.Random(5)
    cases = []
    for _ in range(2000):
        p = _nonzero([rng.randint(0, 8) for _ in range(rng.randint(1, 40))])
        total = sum(p)
        if total > 1:
            cases.append((rng.randint(0, 6) * total + rng.randint(1, total - 1), p))
    _check(monkeypatch, cases)


def test_extreme_magnitudes_match_the_award_loop(monkeypatch):
    # subnormal weights whose priorities underflow to 0 after an award or
    # two, next to 1e300 weights; once priorities tie at 0 the larger weight
    # keeps winning
    rng = random.Random(9)
    scales = (5e-324, 1e-323, 1e-321, 3e-310, 2.2e-308, 1e-300, 1.0, 1e300, 0.0)
    cases = [(_house(rng), _nonzero([rng.choice(scales) * rng.randint(1, 4)
                                     for _ in range(rng.randint(1, 40))]))
             for _ in range(1500)]
    cases += [(400, [5e-324] * 40), (400, [1e-321, 2e-321, 0.0] * 13),
              (250, [1e300, 5e-324, 0.0, 1e300])]
    _check(monkeypatch, cases)
    assert huntington_hill(5, [0.0, 5e-324, 0.0]) == [0, 5, 0]
    # both cells' priorities round to one ulp after an award; the larger
    # weight wins every tie there, then every tie at 0
    assert huntington_hill(4, [5e-324, 1e-323]) == [0, 4]


def test_large_houses_match_the_award_loop(monkeypatch):
    rng = random.Random(11)
    cases = [(rng.randint(401, 3000), _nonzero([rng.choice((rng.randint(0, 9), rng.uniform(0, 9)))
                                                for _ in range(rng.randint(1, 40))]))
             for _ in range(40)]
    _check(monkeypatch, cases)


def test_splits_are_prefix_counts_of_one_award_sequence():
    rng = random.Random(21)
    for trial in range(300):
        n = rng.randint(1, 40)
        if trial % 3 == 0:
            p = _nonzero([rng.randint(0, 5) for _ in range(n)])   # prefill path
        else:
            p = _nonzero([rng.choice((0.0, rng.uniform(0, 4), 2.5)) for _ in range(n)])
        xs = np.array([rng.randint(0, 90) for _ in range(rng.randint(1, 12))])
        got = huntington_hill_splits(xs.reshape(-1, 1) if trial % 2 else xs, p)
        assert got.reshape(len(xs), n).tolist() == [huntington_hill(int(x), p) for x in xs]
    assert huntington_hill_splits([0, 0], [0.5, 1.5]).tolist() == [[0, 0], [0, 0]]
    with pytest.raises(DataError):
        huntington_hill_splits([2.5], [0.5, 1.5])


def test_synthgen_splits_equal_per_cell_calls():
    spec = SynthSpec(regions=tuple(f"101{m:02d}" for m in range(1, 9)),
                     level="municipalities", years=(2000, 2001), seed=4)
    kernel = _kernel(spec)
    movers = np.random.default_rng(4).integers(0, 40, (2, 101))
    for i in range(len(spec.regions)):
        weights = [kernel[i, j] for j in range(len(spec.regions)) if j != i]
        splits = huntington_hill_splits(movers, weights)
        for si in range(2):
            for a in range(101):
                assert splits[si, a].tolist() == huntington_hill(int(movers[si, a]), weights)
