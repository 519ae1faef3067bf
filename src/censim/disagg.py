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
loop: a threshold t estimated from the divisor sum(p)/(awards + x) gives
each cell's count above it from the closed form p/t + 1/2, corrected by the
float priorities at the boundary, and a Newton step on t follows while too
many awards stay in doubt.  Those left, a window of a few thousand (or one
per cell at a tie), are ranked with one partition; a call whose cells' next
x awards already fit in that window ranks them all without a threshold.

For integer weights, k*sum(p) awards are handed out as k*p up front and the
selection starts from that state; in particular x = k*sum(p) returns k*p
exactly.  Without that prefill, the split of x is a prefix of the split of
x + 1, which huntington_hill_splits uses to read many splits off one award
sequence.

disaggregate_table applies either method fiber by fiber: each coarse source
cell is split over the finer keys of the target resolution that aggregate
back onto it, weighted by a distribution table.  The distribution may be
coarser than the target along any dimension; each fine key is projected
onto the distribution's resolution to find its weight (region to the
distribution's level, age to the containing distribution class, sex dropped
when the distribution is sexless, year matched directly or broadcast from a
single-year distribution).  key_dims names the dimensions along which the
distribution follows the source's own indexing rather than refining it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .regions import RegionManifest, coarser_or_equal, parent_region
from .table import CensusTable, ResolutionSpec

_METHODS = ("proportional", "huntington_hill")


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


def proportional_disaggregate(x: float, p) -> list[float]:
    """Split x along p: output j is p_j * x / sum(p)."""
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DataError(f"cannot disaggregate {x}")
    p = _check_weights(p)
    total = math.fsum(p)
    return [v * x / total for v in p]


# Thresholds are probed until the awards left to order fit in a window of
# this size (or of one award per cell, which a tie at one priority can fill).
_WINDOW = 4096
_MAX_PROBES = 16


def _priorities(p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Priority of award k (0-based) of cells p: p/sqrt(k(k+1)), p at k=0."""
    kf = k.astype(float)
    return p / np.sqrt(np.where(k > 0, kf * (kf + 1.0), 1.0))


def _counts_above(t: float, p: np.ndarray, w: np.ndarray, x: int) -> np.ndarray:
    """How many of each cell's next x awards have a priority above t."""
    n = len(p)
    if t > 0:
        # about p/t + 1/2 awards of a cell lie above t; test the estimate
        # and its two neighbours against the float priorities themselves
        q = np.divide(p, t, out=np.full(n, np.inf), where=p * 2.0 ** -900 < t)
        est = np.clip(np.floor(q + 0.5) - w, 0, x).astype(np.int64)
        idx = est[:, None] + np.arange(-1, 2)
        hits = _priorities(p[:, None], w[:, None] + idx) > t
        hits = np.where(idx < 0, True, np.where(idx >= x, False, hits)).sum(1)
        a = np.where(hits == 0, 0, est - 1 + hits)
        b = np.where(hits == 3, x, est - 1 + hits)
    else:
        a = np.zeros(n, dtype=np.int64)
        b = np.full(n, x, dtype=np.int64)
    # bisect where the estimate missed: the answer lies in [a, b]
    while True:
        open_ = a < b
        if not open_.any():
            return a
        mid = (a + b) // 2
        above = _priorities(p, w + mid) > t
        a = np.where(open_ & above, mid + 1, a)
        b = np.where(open_ & ~above, mid, b)


def _take_top(m: int, p: np.ndarray, w: np.ndarray, cell: np.ndarray,
              k: np.ndarray) -> np.ndarray:
    """Per-cell counts of the m first awards among candidates (cell, k).

    Candidates come cell by cell with k rising, their order among equal
    priorities of equal weights.
    """
    n = len(p)
    if m == 0:
        return np.zeros(n, dtype=np.int64)
    pr = _priorities(p[cell], w[cell] + k)
    cut = np.partition(pr, len(pr) - m)[len(pr) - m]     # the m-th largest
    above = pr > cut
    ties = np.flatnonzero(pr == cut)
    need = m - np.count_nonzero(above)
    if len(ties) > need:
        # equal priorities go to the larger weight, then the earlier candidate
        ties = ties[np.argsort(-p[cell[ties]], kind="stable")[:need]]
    return (np.bincount(cell[above], minlength=n)
            + np.bincount(cell[ties], minlength=n))


def _window(x: int, p: np.ndarray, w: np.ndarray) -> tuple:
    """Per-cell bounds lo <= awards <= hi, from thresholds on the priorities.

    The bounds start at 0 and x, which small calls keep.  Each probe t
    counts the awards above t; with s of them, s <= x puts all of them in
    and leaves at most x - s more per cell, s >= x keeps every award at or
    below t out and drops at most s - x of those above it.
    """
    n = len(p)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, x, dtype=np.int64)
    total = float(p.sum())
    t_lo, t_hi = 0.0, float(p.max())
    t = min(total / (int(w.sum()) + x), t_hi)
    for _ in range(_MAX_PROBES):
        if int((hi - lo).sum()) <= max(_WINDOW, n):
            break
        c = _counts_above(t, p, w, x)
        s = int(c.sum())
        if t == 0 and s < x:
            # the rest have priority 0 (underflow): the largest weight, first
            # of equals, wins every one of them
            c[np.argmax(p)] += x - s
            return c, c
        if s <= x:
            lo = np.maximum(lo, c)
            hi = np.minimum(hi, c + (x - s))
            t_hi = t
        if s >= x:
            lo = np.maximum(lo, c - (s - x))
            hi = np.minimum(hi, c)
            t_lo = t
        # Newton step on s(t) ~ total/t, else bisect the bracket
        den = 1.0 + (x - s) * (t / total)
        t_next = t / den if den > 0 else -1.0
        if not t_lo < t_next < t_hi:
            t_next = math.sqrt(t_lo) * math.sqrt(t_hi) if t_lo > 0 else t_hi / 2
        if not t_lo < t_next < t_hi:
            if t_lo > 0 or t == 0:
                break
            t_next = 0.0
        t = t_next
    return lo, hi


def _award(x: int, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Awards per cell of the x top priorities after start counts w."""
    if x == 0:
        return np.zeros(len(p), dtype=np.int64)
    lo, hi = _window(x, p, w)
    length = hi - lo
    cell = np.repeat(np.arange(len(p)), length)
    k = lo[cell] + np.arange(len(cell)) - (np.cumsum(length) - length)[cell]
    return lo + _take_top(x - int(lo.sum()), p, w, cell, k)


def huntington_hill(x: int, p) -> list[int]:
    """Integer split of x along p: the x top Huntington-Hill priorities."""
    xf = float(x)
    if not xf.is_integer() or xf < 0:
        raise DataError(f"cannot split {x!r} into integer parts")
    x = int(xf)
    p = np.asarray(_check_weights(p), dtype=float)
    w = np.zeros(len(p), dtype=np.int64)
    if all(v.is_integer() for v in p.tolist()):
        total = int(p.sum())
        k, x = divmod(x, total)
        if k:
            w += k * p.astype(np.int64)
    w += _award(x, p, w)
    return w.tolist()


def huntington_hill_splits(xs, p) -> np.ndarray:
    """huntington_hill(x, p) for every x in the integer array xs, stacked.

    Without the integer prefill, the split of x is the first x awards of one
    award sequence, so that sequence is ordered once, up to max(xs), and
    each split is a prefix count of it.
    """
    xs = np.asarray(xs)
    if xs.size and (xs.dtype.kind not in "iu" or xs.min() < 0):
        raise DataError("splits need non-negative integer totals")
    xs = xs.astype(np.int64)
    weights = _check_weights(p)
    n = len(weights)
    if all(v.is_integer() for v in weights):
        # the prefill makes these splits no prefixes of one sequence
        flat = [huntington_hill(int(x), weights) for x in xs.ravel()]
        return np.array(flat, dtype=np.int64).reshape(xs.shape + (n,))
    p = np.asarray(weights)
    top = int(xs.max(initial=0))
    counts = _award(top, p, np.zeros(n, dtype=np.int64))
    # the awards cell by cell, and their places in the award sequence
    cell = np.repeat(np.arange(n), counts)
    first = np.cumsum(counts) - counts
    k = np.arange(top) - first[cell]
    seq = np.lexsort((np.arange(top), -p[cell], -_priorities(p[cell], k)))
    place = np.empty(top, dtype=np.int64)
    place[seq] = np.arange(top)
    key = cell * (top + 1) + place
    return np.searchsorted(key, np.arange(n) * (top + 1) + xs[..., None]) - first


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
        shares = huntington_hill(int(x), weights) if hh else \
            proportional_disaggregate(x, weights)
        for key, share in zip(fiber, shares):
            if share:
                out[key] = float(share)
    return CensusTable(target, out, integer=hh, name=source.name)
