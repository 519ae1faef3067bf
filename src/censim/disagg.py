"""One-sided disaggregation: proportional shares and Huntington-Hill seats.

proportional_disaggregate splits a non-negative amount along positive
weights.  huntington_hill does the same in integers.  Award k (0-based) of a
cell with weight p has the float priority p/sqrt(k(k+1)), and p itself for
k = 0.  The split of x hands out the first x awards over all cells in the
order: larger priority first, ties to the larger weight, then to the lower
index, then to the earlier award (exact float comparisons: priorities derive
deterministically from the weights).  Zero weights never win.

That is exactly the classic draw loop (each award to the current top
priority), because a cell's priorities never increase: k and k + 1.0 are
exact, and the product, sqrt and division are correctly rounded and
monotone.  The loop merges the cells' sorted priority sequences, so its
first x picks are the x first items of the merged order (Balinski & Young,
Fair Representation, on divisor methods), and the split of x is the first
x awards of one sequence for every weight vector.  The kernel finds them
without the loop.  Award k's divisor lies within [k, k+1], so the last of
x awards over n cells of weight sum P has a priority in
[P/(x + n), P/(x - 5n/8)] (Pukelsheim, Proportional Representation, ch. 4),
two thresholds in closed form.  A cell's count of awards above a threshold
t is the closed form p/t + 1/2 or one of its two neighbours, told apart by
the float priorities.  The awards above the upper threshold all win; those
between the two, a few per cell, are ranked in the loop's order by one
stable sort, and the first ones still needed win.

The kernel splits many fibers in one call.  A fiber is a run of cells with
its own x, thresholds and counts; all fibers are counted together, and the
sort keys the window's awards on fiber, then priority, then weight,
leaving the candidate order (lower cell, earlier award) to break the rest.
huntington_hill is the call with one fiber, and huntington_hill_sequences
ranks the rows of a weight matrix, each up to its own largest x, as fibers
of a few calls; a caller takes each split as a prefix.

The domain: totals and each fiber's weight sum lie in 0..HH_LIMIT - 1 =
2**48 - 1, far above any census count, and every positive weight is at
least HH_FLOOR = 2**-900, far below any census share.  On it every
priority and both thresholds are normal floats of at least 2**-950: a
weight of at least 2**-900 over a divisor below 2**49, or a weight sum over
fewer than 2**49 awards and cells.  Normal floats round within a relative
2**-53 per operation, which the widened thresholds and the three candidates
per count absorb.  Below-normal ones round within an absolute 2**-1074, and a
priority that underflows to 0 ties every other one at 0, so neither the
bounds nor the estimate would hold.  Each entry point rejects values
outside the domain before it ranks anything.

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
HH_LIMIT = 2 ** 48
HH_FLOOR = 2.0 ** -900
_DOMAIN = f"0..2**{HH_LIMIT.bit_length() - 1} - 1"
_FLOOR = f"2**{math.frexp(HH_FLOOR)[1] - 1}"
_BLOCK_CELLS = 1 << 14


def _check_weights(p, hh=False) -> np.ndarray:
    p = np.fromiter(map(float, p), float)
    if not p.size:
        raise DataError("empty weight vector")
    bad = np.flatnonzero(~(np.isfinite(p) & (p >= 0)))
    if bad.size:
        raise DataError(f"negative or non-finite weight {p[bad[0]].item()}")
    tiny = np.flatnonzero(hh & (p > 0) & (p < HH_FLOOR))
    if tiny.size:
        raise DataError(f"weight {p[tiny[0]].item()} lies between 0 and {_FLOOR}")
    try:
        total = math.fsum(p.tolist())
    except OverflowError:
        raise DataError("weights sum overflows a float") from None
    if total <= 0:
        raise DataError("weights sum to zero")
    if hh and total >= HH_LIMIT:
        raise DataError(f"weights sum to {total}, outside {_DOMAIN}")
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


def _counts_above(t: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many of each cell's first x awards have a priority above t (x
    given per cell, t per cell or as rows of per-cell thresholds)."""
    # on the domain the count is the estimate p/t + 1/2 or one of its two
    # neighbours; test the three, one at a time to keep temporaries small,
    # against the float priorities themselves
    est = np.clip(np.floor(p / t + 0.5), 0, x).astype(np.int64)
    return est - 1 + sum(np.where(k < 0, True, (k < x) & (_priorities(p, k) > t))
                         for k in (est - 1, est, est + 1))


def _window(x: np.ndarray, p: np.ndarray, fiber: np.ndarray) -> np.ndarray:
    """Per-cell bounds lo <= awards <= hi, from two thresholds per fiber.

    Award k's divisor sqrt(k(k+1)) (1 at k = 0) lies in [k, k+1], and above
    k + 3/8 from k = 1 on, so a cell of weight p has between p/t - 1 and
    p/t + 5/8 awards of priority above t.  A fiber of weight P, n cells and
    x awards thus gives its last award a priority in [P/(x + n),
    P/(x - 5n/8)] (Pukelsheim, Proportional Representation, ch. 4;
    Balinski & Young, Fair Representation).  lo counts the awards above the
    upper end and hi those above the lower end, each end widened by
    (n + 16) * 2**-52 against the rounding of the sum, the divisors and the
    priorities, all normal floats on the domain.
    """
    size = np.bincount(fiber, minlength=len(x))
    total = np.bincount(fiber, p, len(x))
    eps = (size + 16) * 2.0 ** -52
    # the upper end reads inf where x <= 5n/8
    with np.errstate(divide="ignore"):
        upper = total * (1 + eps) / np.maximum(x - 0.625 * size, 0)
    lower = total * (1 - eps) / (x + size)
    return _counts_above(np.stack([upper, lower])[:, fiber], p, x[fiber])


def _ranked(p: np.ndarray, fiber: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            need: np.ndarray) -> np.ndarray:
    """Cells of the first need[f] of fiber f's candidate awards lo..hi-1,
    fiber by fiber in award order: larger priority first, then the larger
    weight, then the lower cell and the earlier award."""
    length = hi - lo
    cell = np.repeat(np.arange(len(p)), length)
    k = lo[cell] + np.arange(len(cell)) - (np.cumsum(length) - length)[cell]
    # stable: equal keys keep the candidate order
    cell = cell[np.lexsort((-p[cell], -_priorities(p[cell], k), fiber[cell]))]
    # fiber f's candidates come in one block; its first need[f] are kept
    f = fiber[cell]
    count = np.bincount(fiber, length, len(need)).astype(np.int64)
    return cell[np.arange(len(cell)) - (np.cumsum(count) - count)[f] < need[f]]


def _award(x: np.ndarray, p: np.ndarray, fiber: np.ndarray) -> np.ndarray:
    """Awards per cell of each fiber f's x[f] top priorities; cells come
    fiber by fiber, checked against the domain."""
    lo, hi = _window(x, p, fiber)
    need = x - np.add.reduceat(lo, np.searchsorted(fiber, np.arange(len(x))))
    return lo + np.bincount(_ranked(p, fiber, lo, hi, need), minlength=len(p))


def huntington_hill(x: int, p) -> list[int]:
    """Integer split of x along p: the x top Huntington-Hill priorities."""
    if not (0 <= x < HH_LIMIT and float(x).is_integer()):
        raise DataError(f"cannot split {x!r}: a total is an integer in {_DOMAIN}")
    p = _check_weights(p, hh=True)
    return _award(np.array([int(x)], dtype=np.int64), p,
                  np.zeros(len(p), dtype=np.int64)).tolist()


def huntington_hill_sequences(p, tops) -> np.ndarray:
    """Each row f of the weight matrix p ranked as a fiber: the cells of its
    first tops[f] awards in award order, row after row in one array.

    Every row is checked before any is ranked, and the rows are ranked in
    blocks of about _BLOCK_CELLS cells, which bound the temporaries.
    """
    tops = np.asarray(tops)
    if tops.size and (tops.dtype.kind not in "iu" or tops.min() < 0 or tops.max() >= HH_LIMIT):
        raise DataError(f"splits need integer totals in {_DOMAIN}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or tops.shape != p.shape[:1]:
        raise DataError("need one total per weight row")
    tops = tops.astype(np.int64)
    # a row passes the screen only where its check would pass; a row whose
    # float sum lies within rounding of the limit is checked by math.fsum
    with np.errstate(over="ignore", invalid="ignore"):
        total = p.sum(axis=1)
    screened = (np.isfinite(p) & (p >= 0) & ((p == 0) | (p >= HH_FLOOR))).all(axis=1) & (
        (total > 0) & (total < HH_LIMIT * (1 - p.shape[1] * 2.0 ** -52)))
    for row in p[~screened].tolist():
        _check_weights(row, hh=True)
    n = p.shape[1]
    rows = max(1, _BLOCK_CELLS // n)
    seq = np.empty(int(tops.sum()), dtype=np.int64)
    at = 0
    for b in range(0, len(p), rows):
        x, cells = tops[b:b + rows], p[b:b + rows].ravel()
        fiber = np.repeat(np.arange(len(x)), n)
        _, hi = _window(x, cells, fiber)
        kept = _ranked(cells, fiber, np.zeros_like(hi), hi, x) % n
        seq[at:at + len(kept)] = kept
        at += len(kept)
    return seq


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

    # each fiber's weight sum; for the proportional shares as math.fsum
    # gives it, inf where that overflows
    hh = method == "huntington_hill"
    total = np.bincount(fib, weight, len(x))
    if not hh:
        bounds = np.cumsum(size).tolist()
        for i in range(len(x)):
            try:
                total[i] = math.fsum(weight[bounds[i] - size[i]:bounds[i]].tolist())
            except OverflowError:
                total[i] = math.inf

    # the first failing source cell in key order names its first failure
    limit = HH_LIMIT if hh else math.inf
    tiny = hh & (weight > 0) & (weight < HH_FLOOR)
    bad = (hh & (x != np.floor(x)), x >= limit, size == 0,
           ~positive & (not uniform_fallback), np.bincount(fib, tiny, len(x)) > 0,
           total >= limit)
    failing = np.flatnonzero(np.logical_or.reduce(bad))
    if failing.size:
        i = failing[0]
        key = (years[yi[i]], source.codes[ri[i]], sex_axis[si[i]], int(ai[i]))
        if bad[0][i]:
            raise DataError(f"{source.name}: non-integer value {x[i].item()} at {key}")
        if bad[1][i]:
            raise DataError(f"{source.name}: value {x[i].item()} at {key} is outside {_DOMAIN}")
        if bad[2][i]:
            raise DataError(f"{source.name}: no target keys under cell {key}")
        if bad[3][i]:
            raise DataError(f"{source.name}: all-zero distribution under cell {key}")
        if bad[4][i]:
            w = weight[np.flatnonzero(tiny & (fib == i))[0]]
            raise DataError(f"{source.name}: weight {w.item()} under cell {key} "
                            f"lies between 0 and {_FLOOR}")
        if hh:
            raise DataError(f"{source.name}: weights under cell {key} sum to "
                            f"{total[i].item()}, outside {_DOMAIN}")
        raise DataError("weights sum overflows a float")

    if hh:
        share = _award(x.astype(np.int64), weight, fib).astype(float)
    else:
        # a share past the float range reads inf, which the table rejects
        with np.errstate(over="ignore"):
            share = weight * x[fib] / total[fib]
    kept = np.flatnonzero(share)
    return CensusTable(target, Entries(
        (years, codes, sex_axis, range(target.ages[-1] + 1)),
        (yi[fib[kept]], region[kept], sex[kept], age[kept]),
        share[kept]), integer=hh, name=source.name)
