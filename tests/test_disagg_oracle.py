"""Differential tests: the threshold-selection Huntington-Hill kernel against
the award loop it replaced, and the array disaggregate_table against the
fiber-by-fiber loop it replaced.

The loop below is the reference: each award goes to the largest priority
p/sqrt(w(w+1)) (p itself before a cell's first award), ties to the larger
weight, then the lower index.  The kernel must return the same split bit for
bit, one fiber per call or many fibers in one call.

reference_disaggregate_table is the table path as it was before the fibers
became index arrays, kept verbatim and run on the reference splits above.
The array version must return equal tables and raise equal messages.
"""

import math
import random

import numpy as np
import pytest

from censim.disagg import (_apportion, _starts, _window, disaggregate_table,
                           huntington_hill, huntington_hill_splits)
from censim.errors import DataError
from censim.regions import RegionManifest, coarser_or_equal, parent_region
from censim.synthgen import SynthSpec, _kernel
from censim.table import SEXES, CensusTable, ResolutionSpec


def _draw_loop(x: int, p: np.ndarray, w: np.ndarray) -> None:
    # priorities recomputed from integers each award, no error accumulation
    denom = np.sqrt(np.where(w > 0, w * (w + 1.0), 1.0))
    v = np.where(w > 0, p / denom, p)
    for _ in range(x):
        top = np.flatnonzero(v == v.max())
        j = top[0] if top.size == 1 else top[np.argmax(p[top])]
        w[j] += 1
        v[j] = p[j] / math.sqrt(w[j] * (w[j] + 1.0))


def _check_weights(p) -> list[float]:
    p = [float(v) for v in p]
    if not p:
        raise DataError("empty weight vector")
    for v in p:
        if not math.isfinite(v) or v < 0:
            raise DataError(f"negative or non-finite weight {v}")
    try:
        total = math.fsum(p)
    except OverflowError:
        raise DataError("weights sum overflows a float") from None
    if total <= 0:
        raise DataError("weights sum to zero")
    return p


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


def _check(cases):
    expected = [reference_huntington_hill(x, p) for x, p in cases]
    assert [huntington_hill(x, p) for x, p in cases] == expected


def _house(rng, top=400):
    # log-uniform over 0..top, so small and large houses are both common
    return int((top + 1) ** rng.random()) - 1


def _nonzero(p):
    if not any(p):
        p[0] = 1
    return p


@pytest.mark.parametrize("kind", ["integer", "3-decimal", "float"])
def test_random_weights_match_the_award_loop(kind):
    rng = random.Random(f"hh-{kind}")
    draw = {"integer": lambda: rng.randint(0, 60),
            "3-decimal": lambda: round(rng.uniform(0, 10), 3),
            "float": lambda: rng.uniform(0, 100)}[kind]
    cases = []
    for _ in range(7000):
        p = _nonzero([draw() for _ in range(rng.randint(1, 40))])
        cases.append((_house(rng), p))
    _check(cases)


# weights equal to the float priority of another weight's award k, so
# priorities of different weights tie exactly and the weight decides
ECHOES = [p / math.sqrt(k * (k + 1.0)) if k else p for p in (1.0, 2.0, 3.0)
          for k in range(5)]


def test_heavy_ties_match_the_award_loop():
    rng = random.Random(1234)
    cases = [(_house(rng), [rng.choice((1, 2, 3, 4)) * rng.choice((1, 1, 0.5))
                            for _ in range(rng.randint(1, 40))])
             for _ in range(2000)]
    cases += [(x, [1.0] * n) for n in (1, 7, 40) for x in (0, 1, n - 1, n, 3 * n + 1, 400)]
    cases += [(_house(rng), [rng.choice(ECHOES) for _ in range(rng.randint(1, 40))])
              for _ in range(1000)]
    _check(cases)


def test_zero_weights_match_the_award_loop():
    rng = random.Random(77)
    cases = [(_house(rng), _nonzero([rng.choice((0, 0, 0, 1.5, rng.uniform(0, 3)))
                                     for _ in range(rng.randint(1, 40))]))
             for _ in range(2000)]
    _check(cases)


def test_prefill_remainders_match_the_award_loop():
    # integer weights with x = k*sum(p) + r, 0 < r < sum(p): the loop runs
    # on from the k*p start state
    rng = random.Random(5)
    cases = []
    for _ in range(2000):
        p = _nonzero([rng.randint(0, 8) for _ in range(rng.randint(1, 40))])
        total = sum(p)
        if total > 1:
            cases.append((rng.randint(0, 6) * total + rng.randint(1, total - 1), p))
    _check(cases)


def test_extreme_magnitudes_match_the_award_loop():
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
    _check(cases)
    assert huntington_hill(5, [0.0, 5e-324, 0.0]) == [0, 5, 0]
    # both cells' priorities round to one ulp after an award; the larger
    # weight wins every tie there, then every tie at 0
    assert huntington_hill(4, [5e-324, 1e-323]) == [0, 4]


def test_large_houses_match_the_award_loop():
    rng = random.Random(11)
    cases = [(rng.randint(401, 3000), _nonzero([rng.choice((rng.randint(0, 9), rng.uniform(0, 9)))
                                                for _ in range(rng.randint(1, 40))]))
             for _ in range(40)]
    _check(cases)


def _fiber(rng):
    """One fiber (x, weights) of a kind that a table splits beside others."""
    n = rng.choice((1, 1, rng.randint(2, 6), rng.randint(2, 40)))
    draw = rng.choice((lambda: rng.randint(0, 9), lambda: rng.uniform(0, 5),
                       lambda: rng.choice((0, 0, 2.5, rng.uniform(0, 3))),
                       lambda: rng.choice((1.0, 2.0)),
                       lambda: rng.choice((5e-324, 1e-323, 1e-321, 0.0))))
    x = rng.choice((0, rng.randint(0, 5), _house(rng), rng.randint(401, 1500)))
    return x, _nonzero([draw() for _ in range(n)])


def test_many_fibers_in_one_call_match_the_award_loop():
    # integer and fractional fibers side by side, with x = 0, single cells,
    # zero weights, ties and priorities that underflow to 0: each fiber's
    # split equals its own loop
    rng = random.Random(31)
    calls = []
    for _ in range(250):
        fibers = [_fiber(rng) for _ in range(rng.randint(1, 12))]
        calls.append((np.array([x for x, _ in fibers]),
                      np.concatenate([np.asarray(p, float) for _, p in fibers]),
                      np.repeat(np.arange(len(fibers)), [len(p) for _, p in fibers]),
                      [v for x, p in fibers for v in reference_huntington_hill(x, p)]))
    for x, p, fiber, expected in calls:
        assert _apportion(x, p, fiber).tolist() == expected


def test_window_brackets_each_split_in_three_candidates_per_cell():
    # normal weights, several fibers per call, integer fibers run on from
    # their k*p start: lo..hi holds each fiber's split, and the bracket
    # leaves at most 3n candidates to rank in a fiber of n cells
    rng = random.Random(43)
    for _ in range(400):
        fibers = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 40)
            if rng.random() < 0.5:
                p = _nonzero([rng.randint(0, 8) for _ in range(n)])
                x = rng.randint(0, 6) * sum(p) + rng.randint(0, sum(p))
            else:
                p = _nonzero([rng.choice((0.0, 2.5, rng.uniform(0, 100))) for _ in range(n)])
                x = _house(rng, 3000)
            fibers.append((x, p))
        p = np.concatenate([np.asarray(p, float) for _, p in fibers])
        fiber = np.repeat(np.arange(len(fibers)), [len(p) for _, p in fibers])
        split = np.array([v for x, p in fibers for v in reference_huntington_hill(x, p)])
        # the start counts and the awards after them, as _apportion passes them
        k = np.array([x // sum(p) if all(float(v).is_integer() for v in p) else 0
                      for x, p in fibers])
        w = (k[fiber] * p).astype(np.int64)
        x = np.array([x for x, _ in fibers]) - np.bincount(fiber, w).astype(np.int64)
        start = _starts(fiber, len(fibers))
        lo, hi = _window(x, p, w, fiber, start)
        assert (lo <= split - w).all() and (split - w <= hi).all()
        assert (np.add.reduceat(hi - lo, start) <= 3 * np.diff(np.append(start, len(p)))).all()


def test_splits_are_prefix_counts_of_one_award_sequence():
    rng = random.Random(21)
    for trial in range(600):
        n = rng.randint(1, 40)
        if trial % 3 == 0:
            p = _nonzero([rng.randint(0, 5) for _ in range(n)])   # prefill path
        elif trial % 3 == 1:
            p = _nonzero([rng.choice((0.0, rng.uniform(0, 4), 2.5)) for _ in range(n)])
        else:
            p = [rng.choice(ECHOES) for _ in range(n)] + [0.5]
        top = 3000 if trial % 10 < 2 else 90
        xs = np.array([rng.randint(0, top) for _ in range(rng.randint(1, 12))])
        got = huntington_hill_splits(xs.reshape(-1, 1) if trial % 2 else xs, p)
        assert got.reshape(len(xs), len(p)).tolist() == [huntington_hill(int(x), p) for x in xs]
    # 2-D totals, as synthgen passes them (sex x age): the running counts
    # are indexed back into the totals' shape
    for trial in range(40):
        n = rng.randint(1, 40)
        p = _nonzero([rng.choice((0.0, rng.randint(0, 5), rng.uniform(0, 4)))
                      for _ in range(n)])
        top = 3000 if trial % 4 < 2 else 90
        shape = rng.choice(((2, 101), (3, 4), (1, 7)))
        xs = np.array([rng.randint(0, top) for _ in range(shape[0] * shape[1])])
        got = huntington_hill_splits(xs.reshape(shape), p)
        assert got.shape == shape + (n,)
        assert got.reshape(-1, n).tolist() == [huntington_hill(int(x), p) for x in xs]
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


def reference_proportional(x: float, p) -> list[float]:
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DataError(f"cannot disaggregate {x}")
    p = _check_weights(p)
    total = math.fsum(p)
    return [v * x / total for v in p]


_METHODS = ("proportional", "huntington_hill")


def reference_disaggregate_table(source, distribution, key_dims, target, method,
                                 regions=None, uniform_fallback=False):
    """disaggregate_table as it was, fiber by fiber, splitting with the
    reference functions above."""
    src = source.resolution
    dist = distribution.resolution
    if src.od or dist.od or target.od:
        raise DataError("origin-destination tables cannot be disaggregated")
    if method not in _METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {_METHODS}")
    if target.years != src.years:
        raise DataError("the year range is never disaggregated; target must match source")
    if not coarser_or_equal(src.level, target.level):
        raise DataError(
            f"source level {src.level!r} is not coarser than target {target.level!r}")
    if src.sexes and src.sexes != target.sexes:
        raise DataError("a sexed source fixes the target's sex domain")
    if not coarser_or_equal(dist.level, target.level):
        raise DataError(
            f"distribution level {dist.level!r} does not cover target {target.level!r}")

    key_dims = tuple(key_dims)
    unknown = set(key_dims) - {"year", "region", "sex", "age"}
    if unknown:
        raise DataError(f"unknown key dimensions {sorted(unknown)}")
    single_year = dist.years[0] == dist.years[1]
    if "year" in key_dims:
        if dist.years[0] > src.years[0] or dist.years[1] < src.years[1]:
            raise DataError("distribution does not cover the source years")
    elif not single_year:
        raise DataError("a distribution without a year key must hold a single year")
    if "sex" in key_dims and not dist.sexes:
        raise DataError("key dimension sex needs a sexed distribution")
    if "age" in key_dims and dist.ages == (0,) and dist.open_age == 0:
        raise DataError("key dimension age needs a distribution with an age axis")

    # region fibers: fine codes under each coarse code
    refine_regions = target.level != src.level
    fine_by_coarse: dict[str, tuple[str, ...]] = {}
    if refine_regions:
        if regions is not None and regions.has_level(target.level):
            def fiber_regions(r):
                if r not in fine_by_coarse:
                    fine_by_coarse[r] = regions.descendants(r, src.level, target.level)
                return fine_by_coarse[r]
        elif dist.level == target.level:
            groups: dict[str, list[str]] = {}
            for code in distribution.codes:
                groups.setdefault(parent_region(code, target.level, src.level), []).append(code)
            fine_by_coarse = {r: tuple(sorted(cs)) for r, cs in groups.items()}

            def fiber_regions(r):
                return fine_by_coarse.get(r, ())
        else:
            raise DataError(
                "refining the region axis beyond the distribution's level needs "
                "a region manifest")

    # age fibers and weight projections
    to_source_class = target.classes_onto(src, "target")
    ages_by_coarse: dict[int, list[int]] = {}
    for fine_age, coarse_age in to_source_class.items():
        ages_by_coarse.setdefault(coarse_age, []).append(fine_age)
    to_dist_class = target.classes_onto(dist, "distribution")

    # the distribution read once onto its own grid, as nested lists
    weight = distribution.grid(dist.year_list(), distribution.codes,
                               dist.sex_domain, dist.ages).tolist()
    at_code = {c: i for i, c in enumerate(distribution.codes)}
    at_sex = {s: i for i, s in enumerate(dist.sexes)}
    at_age = {a: i for i, a in enumerate(dist.ages)}
    region_to_dist: dict[str, int | None] = {}

    def dist_weight(y, r, s, a):
        if dist.years[0] <= y <= dist.years[1]:
            py = y
        elif single_year:
            py = dist.years[0]
        else:
            raise DataError(f"distribution covers no year usable for {y}")
        if r not in region_to_dist:
            region_to_dist[r] = at_code.get(parent_region(r, target.level, dist.level))
        pr = region_to_dist[r]
        ps = at_sex.get(s) if dist.sexes else 0
        if pr is None or ps is None:
            return 0.0
        return weight[py - dist.years[0]][pr][ps][at_age[to_dist_class[a]]]

    out: dict[tuple, float] = {}
    hh = method == "huntington_hill"
    for (y, r, s, a), x in source.items():
        if hh and not float(x).is_integer():
            raise DataError(f"{source.name}: non-integer value {x} at {(y, r, s, a)}")
        fiber = [
            (y, fr, fs, fa)
            for fr in (fiber_regions(r) if refine_regions else (r,))
            for fs in (target.sex_domain if not src.sexes else (s,))
            for fa in ages_by_coarse.get(a, ())
        ]
        if not fiber:
            raise DataError(f"{source.name}: no target keys under cell {(y, r, s, a)}")
        weights = [dist_weight(*key) for key in fiber]
        if not any(weights):
            if not uniform_fallback:
                raise DataError(
                    f"{source.name}: all-zero distribution under cell {(y, r, s, a)}")
            weights = [1.0] * len(fiber)
        shares = reference_huntington_hill(int(x), weights) if hh else \
            reference_proportional(x, weights)
        for key, share in zip(fiber, shares):
            if share:
                out[key] = float(share)
    return CensusTable(target, out, integer=hh, name=source.name)


MUNIS = ("10101", "10102", "10103", "10201", "10202", "20101", "20102", "20201")
LEVELS = ("municipalities", "districts", "federalstates")
CODES = {level: sorted({parent_region(c, "municipalities", level) for c in MUNIS})
         for level in LEVELS}


def _table(rng, res, codes, draw, name):
    return CensusTable(res, {(y, r, s, a): draw()
                             for y in res.year_list() for r in codes
                             for s in res.sex_domain for a in res.ages
                             if rng.random() < 0.7}, name=name)


def _some(rng, codes):
    """All of the codes but one or two, now and then."""
    return tuple(rng.sample(codes, max(1, len(codes) - rng.choice((0, 0, 0, 1, 2)))))


def _table_case(rng):
    """Keyword arguments of one random disaggregate_table call; one in twenty
    breaks a rule that the checks before the fibers catch."""
    def rare():
        return rng.random() < 0.05

    method = rng.choice(_METHODS)
    target_level = rng.choice(LEVELS[:2])
    src_level = rng.choice(LEVELS[LEVELS.index(target_level):])
    dist_level = rng.choice(LEVELS[LEVELS.index(target_level):])
    src_sexes = rng.choice((SEXES, ()))
    target_ages = (3, 4, 5, 6) if rare() else tuple(range(7))
    src_ages, src_open = rng.choice((((0, 3, 6), 6), ((0,), 0)))
    dist_ages, dist_open = ((1, 4), 4) if rare() else rng.choice(
        (((0, 2, 5, 6), 6), ((0,), 0), (tuple(range(7)), 6)))
    dist_years, key_dims = rng.choice((((2019, 2019), ["region"]),
                                       ((2019, 2022), ["year", "region"]),
                                       ((2020, 2021), ["year"])))
    if rare():
        dist_years = (2020, 2020) if "year" in key_dims else (2019, 2022)
    if dist_ages != (0,) or rare():
        key_dims.append("age")
    dist_sexes = rng.choice((SEXES, ()))
    if (dist_sexes and rng.random() < 0.5) or rare():
        key_dims.append("sex")
    source = _table(
        rng, ResolutionSpec((2020, 2021), src_level, src_sexes, src_ages, src_open),
        CODES[src_level],
        (lambda: 2.5 if rare() else rng.randint(1, 30))
        if method == "huntington_hill" else (lambda: rng.uniform(0.1, 30)), "P")
    draw = rng.choice((lambda: rng.randint(0, 9), lambda: rng.uniform(0, 5),
                       lambda: 1.0, lambda: rng.choice((0, 0, 0, 3)),
                       lambda: 1e308 if rare() else 1.0))
    dist_codes = _some(rng, CODES[dist_level])
    distribution = _table(
        rng, ResolutionSpec(dist_years, dist_level, dist_sexes, dist_ages, dist_open),
        dist_codes, draw, "dist")
    manifest = None
    if rng.random() < 0.8:
        manifest = RegionManifest({target_level: _some(rng, CODES[target_level])})
    return dict(source=source, distribution=distribution, key_dims=key_dims,
                target=ResolutionSpec((2020, 2021), target_level,
                                      src_sexes or rng.choice((SEXES, ())),
                                      target_ages, 6),
                method=method, regions=manifest,
                uniform_fallback=rng.random() < 0.5)


def _outcome(disaggregate, case):
    try:
        return disaggregate(**case)
    except DataError as err:
        return str(err)


def test_disaggregate_table_matches_the_fiber_loop():
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        case = _table_case(rng)
        expected = _outcome(reference_disaggregate_table, case)
        assert _outcome(disaggregate_table, case) == expected, case
        if isinstance(expected, CensusTable):
            seen.add((case["method"], case["uniform_fallback"], len(expected) > 0))
        else:
            seen.add(expected.split(": ")[-1].split(" ")[0])
    # both methods split cells, with and without the fallback, and each
    # failure of a source cell is reached
    assert {(m, u, True) for m in _METHODS for u in (False, True)} <= seen
    assert {"non-integer", "no", "all-zero", "weights"} <= seen
