"""Two-sided disaggregation: 2D and 3D iterative proportional fitting.

Both solvers repeat proportional scaling sweeps until the residual (the L1
sum of all marginal deviations) drops below the tolerance, stalls, or hits
the iteration cap.  A sweep rescales every fiber to its target marginal;
fibers whose current sum is zero are skipped, which is only legal when the
matching target is zero, so genuinely infeasible zero structures surface as
a residual plateau and a non-converged status rather than an exception.
Entries that start at zero stay exactly zero.

The 3D solver fits a tensor M to three pairwise marginals: A (sum over the
third axis), B (sum over the first), and C (sum over the second), sweeping
them in that order.  M starts at one on a given set of cells, zero
elsewhere, and is only ever held on those cells.  Before the first sweep
the cells that every exact fit leaves empty are peeled off (Bishop,
Fienberg & Holland 1975, ch. 3): a cell is dropped where one of its fibers
has nothing left to hold, and a fiber left with one cell fixes that cell at
what remains, which it takes from the cell's other two fibers.  A fixed
cell still starts at one and is swept like any other.  Sweeps reach such
zeros only in the limit, at a residual that falls like 1/sweeps
(Pukelsheim 2014, Ann. Oper. Res. 215), so the peel changes the number of
sweeps, not the limit.  Where the deductions contradict each other no exact
fit exists, and only the cells that a zero target passes through are
dropped.  Every sweep runs on the cells that remain: each marginal is one
bincount over the cells' fiber ids, and a target that no cell reaches adds
its whole mass to every residual.  A fiber's sum over the third axis
therefore runs in cell order, not numpy's pairwise order; it can differ
from a dense sweep's in the last bits only where the fiber holds three or
more cells.

The defaults mirror the places the solvers are used: tol=1e-10 for matrices
and tol=1e-4 for tensors.  Both solvers reject non-finite input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# stall rule: improvements below this for 3 straight sweeps mean "stuck"
_STALL_EPS = 1e-15
_STALL_SWEEPS = 3


@dataclass(frozen=True)
class IpfResult:
    values: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _check_consistent(name_a: str, ta: float, name_b: str, tb: float) -> None:
    if abs(ta - tb) > 1e-9 * max(1.0, abs(ta), abs(tb)):
        raise DataError(f"marginals disagree: sum({name_a})={ta!r} vs sum({name_b})={tb!r}")


def _finite_non_negative(x: np.ndarray) -> bool:
    return bool(np.isfinite(x).all() and (x >= 0).all())


def _scale_factors(target: np.ndarray, current: np.ndarray) -> np.ndarray:
    # zero fibers are skipped: only legal when the target is zero too, and
    # an infeasible positive target then shows up as a residual plateau
    out = np.ones_like(current)
    np.divide(target, current, out=out, where=current > 0)
    return out


def residual2(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance of X's row and column sums from their targets."""
    X = np.asarray(X, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if X.shape != (a.size, b.size):
        raise DataError(f"shape mismatch: {X.shape} vs targets {a.size}x{b.size}")
    return float(np.abs(X.sum(axis=1) - a).sum() + np.abs(X.sum(axis=0) - b).sum())


def ipf2(a, b, m0, tol: float = 1e-10, max_iter: int = 1000) -> IpfResult:
    """Fit a matrix with m0's zero structure to row sums a and column sums b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    X = np.array(m0, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or X.shape != (a.size, b.size):
        raise DataError(f"shape mismatch: init {X.shape}, targets {a.size} and {b.size}")
    if not all(_finite_non_negative(x) for x in (a, b, X)):
        raise DataError("marginals and the initial matrix must be finite and non-negative")
    _check_consistent("rows", float(a.sum()), "cols", float(b.sum()))
    row_support = X.sum(axis=1) > 0
    col_support = X.sum(axis=0) > 0
    if ((a > 0) & ~row_support).any() or ((b > 0) & ~col_support).any():
        raise DataError("a positive marginal has no positive initial entries")

    res = residual2(X, a, b)
    iterations = 0
    stall = 0
    while res >= tol and iterations < max_iter:
        X *= _scale_factors(a, X.sum(axis=1))[:, None]
        X *= _scale_factors(b, X.sum(axis=0))[None, :]
        iterations += 1
        new_res = residual2(X, a, b)
        if res - new_res < _STALL_EPS:
            stall += 1
            if stall >= _STALL_SWEEPS:
                res = new_res
                break
        else:
            stall = 0
        res = new_res
    return IpfResult(X, iterations, res, res < tol)


def _fibers(ids: np.ndarray, target: np.ndarray):
    """Compact one marginal's fiber ids over the support cells.

    Returns each cell's compact fiber index, the targets of the fibers the
    support reaches and the summed targets of the fibers it does not reach
    (their sums are zero, so each of them adds its whole target to the
    residual, every sweep)."""
    reached, index = np.unique(ids, return_inverse=True)
    flat = target.reshape(-1)
    return index, flat[reached], float(np.delete(flat, reached).sum())


def _support(fibers) -> np.ndarray:
    """Which cells some exact fit may hold positive, as a mask over cells.

    fibers holds each marginal's (targets, each cell's fiber index).  A pass
    drops the free cells of fibers with at most eps left, then, one marginal
    at a time, fixes each fiber's only free cell at what the fiber has left
    and takes that from the cell's three fibers; passes repeat until one
    fixes nothing, and a cell fixed at eps or below is dropped too.  eps is
    the slack _check_consistent allows.  Where the deductions admit no exact
    fit (a fiber left below -eps, or above eps with no free cell) or cannot
    tell a positive target from an empty one (a target at most eps), only
    the cells that a zero target passes through are dropped.
    """
    ids = [f for _, f in fibers]
    nonzero = np.logical_and.reduce([T[f] > 0 for T, f in fibers])
    eps = 1e-9 * max(1.0, float(fibers[0][0].sum()))
    if any(((T > 0) & (T <= eps)).any() for T, _ in fibers):
        return nonzero
    left = [T.copy() for T, _ in fibers]
    free = nonzero.copy()
    value = np.zeros(free.size)
    fixing = True
    while fixing:
        free &= np.logical_and.reduce([r[f] > eps for r, f in zip(left, ids)])
        fixing = False
        for r, f in zip(left, ids):
            one = free & (np.bincount(f[free], minlength=r.size)[f] == 1)
            if not one.any():
                continue
            value[one] = r[f[one]]
            free &= ~one
            for r2, f2 in zip(left, ids):
                r2 -= np.bincount(f2[one], value[one], r2.size)
            if min(x.min() for x in left) < -eps:
                return nonzero
            fixing = True
    if any(((np.bincount(f[free], minlength=r.size) == 0) & (r > eps)).any()
           for r, f in zip(left, ids)):
        return nonzero
    return free | (value > eps)


def ipf3(A, B, C, cells=None, tol: float = 1e-4, max_iter: int = 1000) -> IpfResult:
    """Fit a tensor M with M.sum(2)=A, M.sum(0)=B, M.sum(1)=C.

    A is m x n, B is n x r, C is m x r; the sweeps rescale towards A, B and
    C in that order.  M starts at one on cells, the (i, j, k) index arrays
    of distinct cells, and at zero elsewhere; cells defaults to every cell
    in C order.  values holds M on cells, in their order.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or C.ndim != 2:
        raise DataError("marginals must be matrices")
    m, n = A.shape
    n2, r = B.shape
    m2, r2 = C.shape
    if n2 != n or m2 != m or r2 != r:
        raise DataError(f"marginal shapes disagree: A{A.shape} B{B.shape} C{C.shape}")
    try:
        flat = (np.arange(m * n * r) if cells is None
                else np.ravel_multi_index(cells, (m, n, r)))
    except (TypeError, ValueError):
        flat = None
    if flat is None or np.unique(flat).size != flat.size:
        raise DataError(f"cells must be distinct cells of a {m}x{n}x{r} tensor")
    if not all(_finite_non_negative(x) for x in (A, B, C)):
        raise DataError("marginals must be finite and non-negative")
    for i in range(m):
        _check_consistent(f"A[{i},:]", float(A[i].sum()), f"C[{i},:]", float(C[i].sum()))
    for j in range(n):
        _check_consistent(f"A[:,{j}]", float(A[:, j].sum()), f"B[{j},:]", float(B[j].sum()))
    for k in range(r):
        _check_consistent(f"B[:,{k}]", float(B[:, k].sum()), f"C[:,{k}]", float(C[:, k].sum()))
    i, j, k = np.unravel_index(flat, (m, n, r))
    # each cell's fiber of A, B and C, over the fibers the cells reach
    fibers = [_fibers(f, T) for T, f in ((A, i * n + j), (B, j * r + k), (C, i * r + k))]
    if any(unreached > 0 for _, _, unreached in fibers):
        raise DataError("a positive marginal has no positive initial entries")

    # a cell that every exact fit leaves empty is not swept: IPF would only
    # reach its zero in the limit
    keep = _support([(T, f) for f, T, _ in fibers])
    (ia, At, a_fixed), (ib, Bt, b_fixed), (ic, Ct, c_fixed) = (
        _fibers(f[keep], T) for f, T, _ in fibers)
    fixed = a_fixed + b_fixed + c_fixed
    x = np.ones(ia.size)
    iterations = stall = 0
    res = np.inf
    while True:
        # each residual's sums over A's fibers are the next sweep's first sums
        sa = np.bincount(ia, x, At.size)
        new_res = float(np.abs(sa - At).sum()
                        + np.abs(np.bincount(ib, x, Bt.size) - Bt).sum()
                        + np.abs(np.bincount(ic, x, Ct.size) - Ct).sum()
                        + fixed)
        stall = stall + 1 if res - new_res < _STALL_EPS else 0
        res = new_res
        if res < tol or iterations >= max_iter or stall >= _STALL_SWEEPS:
            break
        x *= _scale_factors(At, sa)[ia]
        x *= _scale_factors(Bt, np.bincount(ib, x, Bt.size))[ib]
        x *= _scale_factors(Ct, np.bincount(ic, x, Ct.size))[ic]
        iterations += 1
    values = np.zeros(keep.shape)
    values[keep] = x
    return IpfResult(values, iterations, res, res < tol)
