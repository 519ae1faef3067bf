"""One-sided disaggregation: proportional shares and Huntington-Hill seats.

proportional_disaggregate splits a non-negative amount along positive
weights.  huntington_hill does the same in integers.  Award k (0-based) of a
cell with weight p has the float priority p/sqrt(k(k+1)), and p itself for
k = 0.  The split of x hands out the first x awards over all cells in the
order: larger priority first, ties to the larger weight, then to the lower
index, then to the earlier award (exact float comparisons: priorities derive
deterministically from the weights).  A positive weight whose priorities
underflow to 0 still beats a zero weight there, so zero weights never win.

That is exactly the classic draw loop (each award to the current top
priority), because a cell's priorities never increase: w(w+1.0) is exact
below 2**53, and sqrt and division are correctly rounded and monotone.  The
loop merges the cells' sorted priority sequences, so its first x picks are
the x first items of the merged order (Balinski & Young, Fair
Representation, on divisor methods).  The kernel finds them without the
loop.  Award k's divisor lies within [k, k+1], so the last of N awards
over n cells of weight sum P has a priority in [P/(N + n), P/(N - 5n/8)]
(Pukelsheim, Proportional Representation, ch. 4), two thresholds in
closed form.  Each cell's count of awards above a threshold t comes from
the closed form p/t + 1/2, corrected by the float priorities at the
boundary.  The awards above the upper threshold all win; those between
the two, a few per cell, are ranked in the loop's order by one stable
sort, and the first ones still needed win.

The kernel splits many fibers in one call.  A fiber is a run of cells with
its own x, thresholds and counts; all fibers are counted together, and the
sort keys the window's awards on fiber, then priority, then weight,
leaving the candidate order (lower cell, earlier award) to break the rest.
huntington_hill is the call with one fiber.  Totals are integers in
0..2**63 - 1, taken exactly.

For integer weights, k*sum(p) awards are handed out as k*p up front and the
selection starts from that state; in particular x = k*sum(p) returns k*p
exactly.  That state is the award loop's own after k*sum(p) awards: award
m of weight p has priority above 1/k for m < k*p and below it from k*p on.
So the split of x is a prefix of the split of x + 1 for every weight vector:
huntington_hill_splits ranks one award sequence, up to the largest x, with
the same sort and reads each split as a running count of it.

disaggregate_table splits each coarse source cell over its fiber, the finer
keys of the target resolution that aggregate back onto it, weighted by a
distribution table.  The distribution may be coarser than the target along
any dimension; each fine key is projected onto the distribution's
resolution to find its weight (region to the distribution's level, age to
the containing distribution class, sex dropped when the distribution is
sexless, year matched directly or broadcast from a single-year
distribution).  key_dims names the dimensions along which the distribution
follows the source's own indexing rather than refining it.  All fibers of a
table are built at once as index arrays, their weights read with one index
into the distribution's grid, and split in one kernel call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .regions import RegionManifest, coarser_or_equal, parent_region
from .table import NO_SEX, CensusTable, Entries, ResolutionSpec

_METHODS = ("proportional", "huntington_hill")


def _check_weights(p) -> np.ndarray:
    p = np.fromiter(map(float, p), float)
    if not p.size:
        raise DataError("empty weight vector")
    bad = np.flatnonzero(~(np.isfinite(p) & (p >= 0)))
    if bad.size:
        raise DataError(f"negative or non-finite weight {p[bad[0]].item()}")
    try:
        total = math.fsum(p.tolist())
    except OverflowError:
        raise DataError("weights sum overflows a float") from None
    if total <= 0:
        raise DataError("weights sum to zero")
    return p


def proportional_disaggregate(x: float, p) -> list[float]:
    """Split x along p: output j is p_j * x / sum(p)."""
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DataError(f"cannot disaggregate {x}")
    p = _check_weights(p).tolist()
    total = math.fsum(p)
    return [v * x / total for v in p]


def _priorities(p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Priority of award k (0-based) of cells p: p/sqrt(k(k+1)), p at k=0."""
    kf = k.astype(float)
    return p / np.sqrt(np.where(k > 0, kf * (kf + 1.0), 1.0))


def _starts(fiber: np.ndarray, n_fibers: int) -> np.ndarray:
    """Each fiber's first cell; cells come fiber by fiber and no fiber is empty."""
    return np.searchsorted(fiber, np.arange(n_fibers))


def _counts_above(t: np.ndarray, p: np.ndarray, w: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """How many of each cell's next x awards have a priority above t (x
    given per cell, t per cell or as rows of per-cell thresholds)."""
    # about p/t + 1/2 awards of a cell lie above t > 0; test the estimate and
    # its two neighbours, one at a time to keep temporaries small, against
    # the float priorities themselves (the estimate stops at 2**62, so that
    # it and its neighbours fit an int64)
    q = np.divide(p, t, out=np.full(t.shape, np.inf), where=p * 2.0 ** -900 < t)
    est = np.minimum(np.clip(np.floor(q + 0.5) - w, 0, 2.0 ** 62).astype(np.int64), x)
    hits = sum(np.where(k < 0, True, (k < x) & (_priorities(p, w + k) > t))
               for k in (est - 1, est, est + 1))
    a = np.where((t > 0) & (hits > 0), est - 1 + hits, 0)
    b = np.where((t > 0) & (hits < 3), est - 1 + hits, x)
    # bisect where the estimate missed: the answer lies in [a, b]
    while True:
        open_ = a < b
        if not open_.any():
            return a
        mid = a + (b - a) // 2
        above = _priorities(p, w + mid) > t
        a = np.where(open_ & above, mid + 1, a)
        b = np.where(open_ & ~above, mid, b)


def _window(x: np.ndarray, p: np.ndarray, w: np.ndarray, fiber: np.ndarray,
            start: np.ndarray) -> tuple:
    """Per-cell bounds lo <= awards <= hi, from two thresholds per fiber.

    Award k's divisor sqrt(k(k+1)) (1 at k = 0) lies in [k, k+1], and above
    k + 3/8 from k = 1 on, so a cell of weight p has between p/t - 1 and
    p/t + 5/8 awards of priority above t.  A fiber of weight P, n cells and
    N awards, start counts included, thus gives its last award a priority
    in [P/(N + n), P/(N - 5n/8)] (Pukelsheim, Proportional Representation,
    ch. 4; Balinski & Young, Fair Representation).  lo counts the awards
    above the upper end and hi those above the lower end, each end widened
    by (n + 16) * 2**-52 against the rounding of the sum, the divisors and
    the priorities.

    Subnormal priorities can break the bound, but the counts still decide:
    a fiber's awards above t all win if there are at most x of them, and
    all of its winners lie above t if there are at least x.  So lo drops to
    0 where it sums past x, and hi counts the awards above 0 where it sums
    short of x; those still missing have priority 0, and the largest
    weight, first of equals, wins them.
    """
    size = np.bincount(fiber, minlength=len(x))
    total = np.bincount(fiber, p, len(x))
    awards = np.bincount(fiber, w, len(x)) + x
    eps = (size + 16) * 2.0 ** -52
    # the upper end reads inf where N <= 5n/8 or where it overflows
    with np.errstate(over="ignore", divide="ignore"):
        upper = total * (1 + eps) / np.maximum(awards - 0.625 * size, 0)
    lower = total * (1 - eps) / (awards + size)
    lo, hi = _counts_above(np.stack([upper, lower])[:, fiber], p, w, x[fiber])
    # x minus a sum wraps back into range where the sum alone passes 2**63
    lo[(x - np.add.reduceat(lo, start) < 0)[fiber]] = 0
    short = np.flatnonzero((x - np.add.reduceat(hi, start) > 0)[fiber])
    if short.size:
        hi[short] = _counts_above(np.zeros(len(short)), p[short], w[short],
                                  x[fiber[short]])
        gap = np.maximum(x - np.add.reduceat(hi, start), 0)
        tops = np.flatnonzero(p == np.maximum.reduceat(p, start)[fiber])
        hi[tops[np.searchsorted(fiber[tops], np.arange(len(x)))]] += gap
        # a gap left means every award above 0 wins, so hi is the split
        lo = np.where((gap > 0)[fiber], hi, lo)
    return lo, hi


def _ranked(p: np.ndarray, w: np.ndarray, fiber: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """Cells of the candidate awards lo..hi-1 after start counts w, fiber by
    fiber in award order: larger priority first, then the larger weight,
    then the lower cell and the earlier award."""
    length = hi - lo
    cell = np.repeat(np.arange(len(p)), length)
    k = lo[cell] + np.arange(len(cell)) - (np.cumsum(length) - length)[cell]
    # stable: equal keys keep the candidate order
    return cell[np.lexsort((-p[cell], -_priorities(p[cell], w[cell] + k),
                            fiber[cell]))]


def _award(x: np.ndarray, p: np.ndarray, w: np.ndarray,
           fiber: np.ndarray) -> np.ndarray:
    """Awards per cell of each fiber f's x[f] top priorities after start
    counts w."""
    start = _starts(fiber, len(x))
    lo, hi = _window(x, p, w, fiber, start)
    ranked = _ranked(p, w, fiber, lo, hi)
    # fiber f's candidates come in one block; its first x[f] - sum(lo) win
    f = fiber[ranked]
    count = np.add.reduceat(hi - lo, start)
    rank = np.arange(len(ranked)) - (np.cumsum(count) - count)[f]
    won = ranked[rank < (x - np.add.reduceat(lo, start))[f]]
    return lo + np.bincount(won, minlength=len(p))


def _apportion(x: np.ndarray, p: np.ndarray, fiber: np.ndarray) -> np.ndarray:
    """Huntington-Hill split of x[f] over the cells of each fiber f.

    Cells come fiber by fiber, and the callers have checked each fiber's
    weights.  A fiber of integer weights whose sum fits k >= 1 times into x
    gets k*p first.
    """
    start = _starts(fiber, len(x))
    w = np.zeros(len(p), dtype=np.int64)
    whole = np.logical_and.reduceat(p == np.floor(p), start)
    due = whole & (np.bincount(fiber, p, len(x)) <= x)
    if due.any():
        # an integer weight here is at most x, so it fits an int64
        units = np.where(due[fiber], p, 0.0).astype(np.int64)
        total = np.add.reduceat(units, start)
        k = np.where(due, x // np.maximum(total, 1), 0)
        x = x - k * total
        w = k[fiber] * units
    return w + _award(x, p, w, fiber)


def huntington_hill(x: int, p) -> list[int]:
    """Integer split of x along p: the x top Huntington-Hill priorities."""
    if not (0 <= x < 2 ** 63 and float(x).is_integer()):
        raise DataError(f"cannot split {x!r}: a total is an integer in 0..2**63 - 1")
    p = _check_weights(p)
    return _apportion(np.array([int(x)], dtype=np.int64), p,
                      np.zeros(len(p), dtype=np.int64)).tolist()


def huntington_hill_splits(xs, p) -> np.ndarray:
    """huntington_hill(x, p) for every x in the integer array xs, stacked.

    The split of x is the first x awards of one award sequence, so that
    sequence is ranked once, up to max(xs), and each split is a running
    count of it over the distinct totals.
    """
    xs = np.asarray(xs)
    if xs.size and (xs.dtype.kind not in "iu" or xs.min() < 0 or xs.max() >= 2 ** 63):
        raise DataError("splits need integer totals in 0..2**63 - 1")
    totals, row = np.unique(xs.astype(np.int64).ravel(), return_inverse=True)
    p = _check_weights(p)
    n = len(p)
    top = int(totals[-1]) if totals.size else 0
    zeros = np.zeros(n, dtype=np.int64)
    _, hi = _window(np.array([top]), p, zeros, zeros, zeros[:1])
    seq = _ranked(p, zeros, zeros, zeros, hi)[:top]
    # award i first counts toward the smallest total above i
    at = np.repeat(np.arange(len(totals)), np.diff(totals, prepend=0))
    counts = np.bincount(at * n + seq, minlength=len(totals) * n)
    return counts.reshape(-1, n).cumsum(axis=0)[row].reshape(xs.shape + (n,))


def disaggregate_table(source: CensusTable, distribution: CensusTable, key_dims,
                       target: ResolutionSpec, method: str,
                       regions: RegionManifest | None = None,
                       uniform_fallback: bool = False) -> CensusTable:
    """Split each source cell over the target keys aggregating back onto it."""
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

    # region fibers: the fine codes under each source code, in split order
    if target.level == src.level:
        fine = {r: (r,) for r in source.codes}
    elif regions is not None and regions.has_level(target.level):
        fine = {r: regions.descendants(r, src.level, target.level)
                for r in source.codes}
    elif dist.level == target.level:
        groups: dict[str, list[str]] = {}
        for code in distribution.codes:
            groups.setdefault(parent_region(code, target.level, src.level), []).append(code)
        fine = {r: tuple(sorted(groups.get(r, ()))) for r in source.codes}
    else:
        raise DataError(
            "refining the region axis beyond the distribution's level needs "
            "a region manifest")
    to_source_class = target.classes_onto(src, "target")
    to_dist_class = target.classes_onto(dist, "distribution")

    # every fiber as index arrays: source entry i covers its fine regions x
    # sexes x fine ages, in that nesting, each axis in split order
    e = source._entries()
    years, _, sex_axis, _ = e.axes
    yi, ri, si, ai = e.index
    x = e.values
    codes = [c for r in source.codes for c in fine[r]]
    n_codes = np.array([len(fine[r]) for r in source.codes], dtype=np.int64)
    sexes = [sex_axis.index(s) for s in target.sex_domain]
    n_sexes = 1 if src.sexes else len(sexes)
    n_ages = np.bincount([to_source_class[a] for a in target.ages],
                         minlength=src.ages[-1] + 1)
    size = n_codes[ri] * n_sexes * n_ages[ai]
    fib = np.repeat(np.arange(len(x)), size)
    j = np.arange(len(fib)) - (np.cumsum(size) - size)[fib]
    j, age_at = np.divmod(j, n_ages[ai][fib])
    code_at, sex_at = np.divmod(j, n_sexes)
    region = (np.cumsum(n_codes) - n_codes)[ri][fib] + code_at
    sex = si[fib] if src.sexes else np.array(sexes, dtype=np.int64)[sex_at]
    age = np.array(target.ages)[(np.cumsum(n_ages) - n_ages)[ai][fib] + age_at]

    # weights: each fine key projected onto the distribution's grid, where
    # codes and sexes the distribution lacks read 0
    parents = [parent_region(c, target.level, dist.level) for c in codes]
    on_grid = sorted(set(parents))
    code_on = np.searchsorted(on_grid, parents)
    sex_on = (np.arange(len(sex_axis)) if dist.sexes
              else np.full(len(sex_axis), sex_axis.index(NO_SEX)))
    age_on = np.zeros(target.ages[-1] + 1, dtype=np.int64)
    age_on[list(target.ages)] = [dist.ages.index(to_dist_class[a]) for a in target.ages]
    year_on = (yi + (src.years[0] - dist.years[0]) if "year" in key_dims
               else np.zeros_like(yi))
    grid = distribution.grid(dist.year_list(), on_grid, sex_axis, dist.ages)
    weight = grid[year_on[fib], code_on[region], sex_on[sex], age_on[age]]
    positive = np.bincount(fib, weight > 0, len(x)) > 0
    if uniform_fallback:
        weight[~positive[fib]] = 1.0

    # each fiber's weight sum as math.fsum gives it, inf where that
    # overflows: all of them for the proportional shares, else those whose
    # float sum leaves too little headroom to rule an overflow out
    hh = method == "huntington_hill"
    total = np.bincount(fib, weight, len(x))
    bounds = np.cumsum(size).tolist()
    for i in (np.flatnonzero(total >= 1e307) if hh else range(len(x))):
        try:
            total[i] = math.fsum(weight[bounds[i] - size[i]:bounds[i]].tolist())
        except OverflowError:
            total[i] = math.inf

    # the first failing source cell in key order names its first failure
    bad = (hh & (x != np.floor(x)), hh & (x >= 2.0 ** 63), size == 0,
           ~positive & (not uniform_fallback), total == math.inf)
    failing = np.flatnonzero(np.logical_or.reduce(bad))
    if failing.size:
        i = failing[0]
        key = (years[yi[i]], source.codes[ri[i]], sex_axis[si[i]], int(ai[i]))
        if bad[0][i]:
            raise DataError(f"{source.name}: non-integer value {x[i].item()} at {key}")
        if bad[1][i]:
            raise DataError(f"{source.name}: value {x[i].item()} at {key} is outside int64")
        if bad[2][i]:
            raise DataError(f"{source.name}: no target keys under cell {key}")
        if bad[3][i]:
            raise DataError(f"{source.name}: all-zero distribution under cell {key}")
        raise DataError("weights sum overflows a float")

    if hh:
        share = _apportion(x.astype(np.int64), weight, fib).astype(float)
    else:
        # a share past the float range reads inf, which the table rejects
        with np.errstate(over="ignore"):
            share = weight * x[fib] / total[fib]
    kept = np.flatnonzero(share)
    return CensusTable(target, Entries(
        (years, codes, sex_axis, range(target.ages[-1] + 1)),
        (yi[fib[kept]], region[kept], sex[kept], age[kept]),
        share[kept]), integer=hh, name=source.name)
