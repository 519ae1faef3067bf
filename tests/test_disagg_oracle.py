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

Both references take the kernel's domain, totals and weight sums below
2**48 and positive weights of at least 2**-900, and raise its messages
outside it; every case compares either the split or the message.
"""

import math
import random

import numpy as np
import pytest

import censim.disagg as disagg
from censim.disagg import (_award, _counts_above, _priorities, _window,
                           disaggregate_table, huntington_hill,
                           huntington_hill_sequences)
from censim.errors import DataError
from censim.regions import RegionManifest, coarser_or_equal, parent_region
from censim.synthgen import SynthSpec, _kernel
from censim.table import SEXES, CensusTable, ResolutionSpec

FLOOR = 2.0 ** -900


def _draw_loop(x: int, p: np.ndarray, w: np.ndarray) -> None:
    # priorities recomputed from integers each award, no error accumulation
    denom = np.sqrt(np.where(w > 0, w * (w + 1.0), 1.0))
    v = np.where(w > 0, p / denom, p)
    for _ in range(x):
        top = np.flatnonzero(v == v.max())
        j = top[0] if top.size == 1 else top[np.argmax(p[top])]
        w[j] += 1
        v[j] = p[j] / math.sqrt(w[j] * (w[j] + 1.0))


def _check_weights(p, hh=False) -> list[float]:
    p = [float(v) for v in p]
    if not p:
        raise DataError("empty weight vector")
    for v in p:
        if not math.isfinite(v) or v < 0:
            raise DataError(f"negative or non-finite weight {v}")
    for v in p:
        if hh and 0 < v < FLOOR:
            raise DataError(f"weight {v} lies between 0 and 2**-900")
    try:
        total = math.fsum(p)
    except OverflowError:
        raise DataError("weights sum overflows a float") from None
    if total <= 0:
        raise DataError("weights sum to zero")
    return p


def reference_huntington_hill(x: int, p) -> list[int]:
    """The award loop; integer weights start from k*p awards, k = x //
    sum(p), to keep it short.  That is the loop's own state after k*sum(p)
    awards: with q = k*p, award m has priority p >= 1/k at m = 0, above
    (1 + 1/(2q))/k for 0 < m < q and below (1 - 1/(8q))/k from q on, and
    floats lie within 3 * 2**-53 of these, so q < 2**48 keeps them apart.
    The kernel takes no such start."""
    if not (0 <= x < 2**48 and float(x).is_integer()):
        raise DataError(f"cannot split {x!r}: a total is an integer in 0..2**48 - 1")
    x = int(x)
    p = np.asarray(_check_weights(p, hh=True), dtype=float)
    if math.fsum(p) >= 2**48:
        raise DataError(f"weights sum to {math.fsum(p)}, outside 0..2**48 - 1")
    w = np.zeros(len(p), dtype=np.int64)
    if all(v.is_integer() for v in p.tolist()):
        total = int(p.sum())
        k, x = divmod(x, total)
        w += k * p.astype(np.int64)
    _draw_loop(x, p, w)
    return [int(v) for v in w]


def _outcome(split, *args, **kwargs):
    """The split, or the message of the DataError it raises."""
    try:
        return split(*args, **kwargs)
    except DataError as err:
        return str(err)


def _check(cases):
    expected = [_outcome(reference_huntington_hill, x, p) for x, p in cases]
    assert [_outcome(huntington_hill, x, p) for x, p in cases] == expected
    return expected


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
    # integer weights with x = k*sum(p) + r, 0 < r < sum(p): the reference
    # loop runs on from the k*p start state, the kernel ranks from none
    rng = random.Random(5)
    cases = []
    for _ in range(2000):
        p = _nonzero([rng.randint(0, 8) for _ in range(rng.randint(1, 40))])
        total = sum(p)
        if total > 1:
            cases.append((rng.randint(0, 6) * total + rng.randint(1, total - 1), p))
    _check(cases)


def test_extreme_magnitudes_match_the_award_loop(monkeypatch):
    # weights at the floor 2**-900 and a few times it, next to 1e-250, 1.0
    # and a large weight: every priority stays a normal float.  With 1e300
    # among the scales most weight sums lie past the domain and both sides
    # raise the same error; with 2**40 on top every sum lies inside and
    # both sides split
    rng = random.Random(9)
    outcomes = []
    for top in (1e300, 2.0**40):
        scales = (FLOOR, 1e-250, 1.0, top, 0.0)
        cases = [(_house(rng), _nonzero([rng.choice(scales) * rng.randint(1, 4)
                                         for _ in range(rng.randint(1, 40))]))
                 for _ in range(1500)]
        cases += [(400, [FLOOR] * 40), (400, [FLOOR, 2 * FLOOR, 0.0] * 13),
                  (250, [top, FLOOR, 0.0, top])]
        outcomes.append(_check(cases))
    errors = [sum(isinstance(v, str) for v in out) for out in outcomes]
    assert errors[0] > 500 and errors[1] == 0
    assert all("outside 0..2**48 - 1" in v for v in outcomes[0] if isinstance(v, str))
    assert huntington_hill(5, [0.0, FLOOR, 0.0]) == [0, 5, 0]
    assert huntington_hill(3, [FLOOR, 2 * FLOOR]) == [1, 2]
    # below the floor, subnormal weights among them, each entry point
    # raises before it ranks anything
    monkeypatch.setattr(disagg, "_window", lambda *args: pytest.fail("ranked"))
    res = ResolutionSpec((2020, 2020), "municipalities", (), (0,), 0)
    source = CensusTable(ResolutionSpec((2020, 2020), "districts", (), (0,), 0),
                         {(2020, "101", "-", 0): 5}, integer=True, name="P")
    for tiny in (5e-324, 1e-321, 2.2e-308, 1e-300, math.nextafter(FLOOR, 0)):
        message = f"weight {tiny} lies between 0 and 2\\*\\*-900"
        for p in ([tiny], [1.0, tiny, 0.0], [2.0**40, tiny, tiny]):
            with pytest.raises(DataError, match=message):
                huntington_hill(5, p)
            with pytest.raises(DataError, match=message):
                huntington_hill_sequences([[1.0] * len(p), p], [5, 0])
        dist = CensusTable(res, {(2020, "10101", "-", 0): 1.0, (2020, "10102", "-", 0): tiny})
        with pytest.raises(DataError, match=f"P: weight {tiny} under cell "
                                            f"\\(2020, '101', '-', 0\\) lies between"):
            disaggregate_table(source, dist, (), res, "huntington_hill")
    # the proportional shares have no floor
    assert disaggregate_table(source, dist, (), res, "proportional").total() == 5


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
                       lambda: rng.choice((FLOOR, 2 * FLOOR, 3 * FLOOR, 0.0))))
    x = rng.choice((0, rng.randint(0, 5), _house(rng), rng.randint(401, 1500)))
    return x, _nonzero([draw() for _ in range(n)])


def test_many_fibers_in_one_call_match_the_award_loop():
    # integer and fractional fibers side by side, with x = 0, single cells,
    # zero weights, ties and weights at the floor: each fiber's split equals
    # its own loop
    rng = random.Random(31)
    calls = []
    for _ in range(250):
        fibers = [_fiber(rng) for _ in range(rng.randint(1, 12))]
        calls.append((np.array([x for x, _ in fibers]),
                      np.concatenate([np.asarray(p, float) for _, p in fibers]),
                      np.repeat(np.arange(len(fibers)), [len(p) for _, p in fibers]),
                      [v for x, p in fibers for v in reference_huntington_hill(x, p)]))
    for x, p, fiber, expected in calls:
        assert _award(x, p, fiber).tolist() == expected


def test_window_brackets_each_split_in_three_candidates_per_cell():
    # several fibers per call, integer fibers up to a few times their
    # weight sum, weights at the floor beside large ones: lo..hi holds each
    # fiber's split, and the bracket leaves at most 3n candidates to rank
    # in a fiber of n cells
    rng = random.Random(43)
    for _ in range(400):
        fibers = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 40)
            if rng.random() < 0.5:
                p = _nonzero([rng.randint(0, 8) for _ in range(n)])
                x = rng.randint(0, 6) * sum(p) + rng.randint(0, sum(p))
            else:
                p = _nonzero([rng.choice((0.0, 2.5, FLOOR, rng.uniform(0, 100)))
                              for _ in range(n)])
                x = _house(rng, 3000)
            fibers.append((x, p))
        p = np.concatenate([np.asarray(p, float) for _, p in fibers])
        fiber = np.repeat(np.arange(len(fibers)), [len(p) for _, p in fibers])
        split = np.array([v for x, p in fibers for v in reference_huntington_hill(x, p)])
        lo, hi = _window(np.array([x for x, _ in fibers]), p, fiber)
        assert (lo <= split).all() and (split <= hi).all()
        start = np.searchsorted(fiber, np.arange(len(fibers)))
        assert (np.add.reduceat(hi - lo, start) <= 3 * np.bincount(fiber)).all()


def _bisected_counts_above(t, p, x):
    """Each cell's count of awards 0..x-1 with a priority above t, by
    bisection over the float priorities, which never increase."""
    a = np.zeros(t.shape, dtype=np.int64)
    b = np.broadcast_to(x, t.shape).copy()
    while (a < b).any():
        open_ = a < b
        mid = a + (b - a) // 2
        above = _priorities(p, mid) > t
        a = np.where(open_ & above, mid + 1, a)
        b = np.where(open_ & ~above, mid, b)
    return a


def test_counts_above_equal_the_bisection_on_the_domain():
    # weights from the floor to about 2**47 with sums below 2**48, totals
    # up to 2**48 - 1, and thresholds at a fiber's window ends, at its
    # cells' own float priorities and one ulp to either side of them: the
    # estimate p/t + 1/2 and its two neighbours find every count
    rng = random.Random(47)
    for trial in range(1500):
        n = rng.randint(1, 40)
        big = 47 - math.log2(n)
        draw = rng.choice((lambda: FLOOR * rng.randint(1, 4),
                           lambda: 2.0 ** rng.uniform(-900, big),
                           lambda: float(rng.randint(0, 9)),
                           lambda: rng.choice((0.0, FLOOR, 1.0, 2.0 ** int(big)))))
        p = np.array(_nonzero([draw() for _ in range(n)]), dtype=float)
        x = rng.choice((rng.randint(0, 400), rng.randint(0, 2**48 - 1), 2**48 - 1))
        total = p.sum()
        ts = [total / (x + n), total / max(x - 0.625 * n, 0.5), math.inf]
        for _ in range(3):
            t = _priorities(p[rng.randrange(n):][:1],
                            np.array([rng.choice((0, 1, rng.randint(0, x), x))]))[0]
            if t > 0:
                ts += [t, math.nextafter(t, 0), math.nextafter(t, math.inf)]
        t = np.repeat(np.array(ts)[:, None], n, axis=1)
        xs = np.full(n, x, dtype=np.int64)
        assert (_counts_above(t, p, xs) == _bisected_counts_above(t, p, xs)).all()


def _check_prefixes(xs, p, seq):
    """Every total x in xs splits along p as the cells of seq[:x] count."""
    for x in np.asarray(xs).ravel().tolist():
        assert np.bincount(seq[:x], minlength=len(p)).tolist() == huntington_hill(x, p)


def test_splits_are_prefix_counts_of_one_award_sequence():
    rng = random.Random(21)
    for trial in range(600):
        n = rng.randint(1, 40)
        if trial % 3 == 0:
            p = _nonzero([rng.randint(0, 5) for _ in range(n)])
        elif trial % 3 == 1:
            p = _nonzero([rng.choice((0.0, rng.uniform(0, 4), 2.5)) for _ in range(n)])
        else:
            p = [rng.choice(ECHOES) for _ in range(n)] + [0.5]
        top = 3000 if trial % 10 < 2 else 90
        xs = np.array([rng.randint(0, top) for _ in range(rng.randint(1, 12))])
        seq = huntington_hill_sequences([p], [xs.max()])
        assert len(seq) == xs.max()
        _check_prefixes(xs, p, seq)
    # 2-D totals, as synthgen splits them (origin x cell): each row of the
    # weight matrix ranked to its largest total, all rows in one call
    for trial in range(40):
        n = rng.randint(1, 40)
        top = 3000 if trial % 4 < 2 else 90
        shape = rng.choice(((2, 101), (3, 4), (1, 7)))
        p = [_nonzero([rng.choice((0.0, rng.randint(0, 5), rng.uniform(0, 4)))
                       for _ in range(n)]) for _ in range(shape[0])]
        xs = np.array([rng.randint(0, top) for _ in range(shape[0] * shape[1])]).reshape(shape)
        seq = huntington_hill_sequences(p, xs.max(axis=1))
        ends = np.cumsum(xs.max(axis=1))
        for f, row in enumerate(p):
            _check_prefixes(xs[f], row, seq[ends[f] - xs[f].max():ends[f]])
    assert huntington_hill_sequences([[0.5, 1.5]] * 2, [0, 0]).tolist() == []
    with pytest.raises(DataError, match="integer totals"):
        huntington_hill_sequences([[0.5, 1.5]], [2.5])
    with pytest.raises(DataError, match="one total per weight row"):
        huntington_hill_sequences([[0.5, 1.5]], [[1, 2]])


def test_synthgen_splits_equal_per_cell_calls():
    # synthgen ranks origin i's movers over its whole kernel row, whose zero
    # at i never wins an award, and splits every cell as a prefix of it
    spec = SynthSpec(regions=tuple(f"101{m:02d}" for m in range(1, 9)),
                     level="municipalities", years=(2000, 2001), seed=4)
    kernel = _kernel(spec)
    movers = np.random.default_rng(4).integers(0, 40, (2, 101))
    n_r = len(spec.regions)
    seq = huntington_hill_sequences(kernel, np.full(n_r, movers.max())).reshape(n_r, -1)
    for i in range(n_r):
        weights = [kernel[i, j] for j in range(n_r) if j != i]
        for si in range(2):
            for a in range(101):
                split = np.bincount(seq[i, :movers[si, a]], minlength=n_r)
                assert split[i] == 0
                assert np.delete(split, i).tolist() == \
                    huntington_hill(int(movers[si, a]), weights)


def test_zero_weights_change_no_split():
    # zero weights inserted anywhere get nothing and leave the other cells'
    # awards as they were, for fractional weights and for integer weights,
    # also at multiples of their sum
    rng = random.Random(61)
    for trial in range(400):
        n = rng.randint(1, 30)
        p = ([float(rng.randint(1, 6)) for _ in range(n)] if trial % 2
             else [rng.uniform(0.1, 5) for _ in range(n)])
        padded = list(p)
        for _ in range(rng.randint(1, 10)):
            padded.insert(rng.randint(0, len(padded)), 0.0)
        kept = np.flatnonzero(padded)
        x = _house(rng, 3000) if trial % 3 else rng.randint(0, 4) * int(sum(p))
        split = huntington_hill(x, padded)
        assert [split[j] for j in kept] == huntington_hill(x, p)
        assert sum(split) == x
        xs = [x, rng.randint(0, x + 1), 0]
        seq = huntington_hill_sequences([padded], [max(xs)])
        assert kept[huntington_hill_sequences([p], [max(xs)])].tolist() == seq.tolist()
        assert np.isin(seq, kept).all()
        _check_prefixes(xs, padded, seq)


def _row(rng, n):
    """One weight row: integer, fractional, heavily tied or all equal, with
    zero cells."""
    draw = rng.choice((lambda: rng.randint(0, 9), lambda: rng.uniform(0, 5),
                       lambda: rng.choice(ECHOES), lambda: rng.choice((0.0, 2.0)),
                       lambda: 1.0))
    return _nonzero([draw() for _ in range(n)])


@pytest.mark.parametrize("block", [None, 128, 1])
def test_batched_rows_equal_one_row_calls(monkeypatch, block):
    # 400 rows of 50 cells cross the default block of 2**14 cells; blocks
    # of 128 cells hold two rows each, and blocks of 1 cell one row each
    import censim.disagg as disagg

    if block:
        monkeypatch.setattr(disagg, "_BLOCK_CELLS", block)
    rng = random.Random(f"rows-{block}")
    p = np.array([_row(rng, 50) for _ in range(400)], dtype=float)
    tops = np.array([rng.choice((0, 0, rng.randint(1, 5), _house(rng, 300)))
                     for _ in range(len(p))])
    seq = huntington_hill_sequences(p, tops)
    assert len(seq) == tops.sum()
    ends = np.cumsum(tops)
    for f in range(len(p)):
        one = huntington_hill_sequences(p[f:f + 1], tops[f:f + 1])
        assert seq[ends[f] - tops[f]:ends[f]].tolist() == one.tolist()
    for f in range(0, len(p), 37):
        _check_prefixes(tops[f], p[f].tolist(), seq[ends[f] - tops[f]:ends[f]])
    # a bad row first or last raises the one-row message
    for bad in ([1.0, -2.0] * 25, [0.0] * 50, [2.0**47] * 50, [math.nan] * 50):
        rows = np.vstack([p, [bad]])
        expected = _outcome(huntington_hill, 1, bad)
        assert _outcome(huntington_hill_sequences, rows, np.append(tops, 1)) == expected
        rows[[0, -1]] = rows[[-1, 0]]
        assert _outcome(huntington_hill_sequences, rows, np.append(tops, 1)) == expected


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
        if hh and x >= 2**48:
            raise DataError(f"{source.name}: value {x} at {(y, r, s, a)} is outside "
                            "0..2**48 - 1")
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
        tiny = [v for v in weights if 0 < v < FLOOR] if hh else []
        if tiny:
            raise DataError(f"{source.name}: weight {tiny[0]} under cell {(y, r, s, a)} "
                            "lies between 0 and 2**-900")
        if hh and sum(weights) >= 2**48:
            raise DataError(f"{source.name}: weights under cell {(y, r, s, a)} sum to "
                            f"{sum(weights)}, outside 0..2**48 - 1")
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
                       lambda: rng.choice((1e308, 1e-300)) if rare() else 1.0))
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


def test_disaggregate_table_matches_the_fiber_loop():
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        case = _table_case(rng)
        expected = _outcome(reference_disaggregate_table, **case)
        assert _outcome(disaggregate_table, **case) == expected, case
        if isinstance(expected, CensusTable):
            seen.add((case["method"], case["uniform_fallback"], len(expected) > 0))
        else:
            seen.add(" ".join(expected.split(": ")[-1].split(" ")[:2]))
    # both methods split cells, with and without the fallback, and each
    # failure of a source cell is reached: the rare 1e308 weights overflow
    # a proportional fiber's sum and put a Huntington-Hill one past 2**48,
    # and the rare 1e-300 ones lie below a Huntington-Hill fiber's floor
    assert {(m, u, True) for m in _METHODS for u in (False, True)} <= seen
    assert {"non-integer value", "no target", "all-zero distribution", "weights sum",
            "weights under", "weight 1e-300"} <= seen
