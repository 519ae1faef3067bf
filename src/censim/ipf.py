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
them in that order.  Its first sweep runs on the whole tensor.  A cell that
sweep zeroes stays zero, so the later sweeps run on the support, the cells
it left positive: each marginal is one bincount over the support's fiber
ids, and a target that no support cell reaches adds its whole mass to every
residual.  A fiber's sum over the third axis therefore runs in cell order,
not numpy's pairwise order; it can differ from a dense sweep's in the last
bits only where the fiber holds three or more support cells.

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


def residual3(M: np.ndarray, A: np.ndarray, B: np.ndarray, C: np.ndarray,
              sum2: np.ndarray | None = None) -> float:
    """L1 distance of M's three pairwise marginals from their targets;
    sum2 is M.sum(axis=2) when the caller already holds it."""
    if sum2 is None:
        sum2 = M.sum(axis=2)
    return float(np.abs(sum2 - A).sum()
                 + np.abs(M.sum(axis=0) - B).sum()
                 + np.abs(M.sum(axis=1) - C).sum())


def _fibers(ids: np.ndarray, target: np.ndarray):
    """Compact one marginal's fiber ids over the support cells.

    Returns each cell's compact fiber index, the targets of the fibers the
    support reaches and the summed targets of the fibers it does not reach
    (their sums are zero, so each of them adds its whole target to the
    residual, every sweep)."""
    reached, index = np.unique(ids, return_inverse=True)
    flat = target.reshape(-1)
    return index, flat[reached], float(np.delete(flat, reached).sum())


def ipf3(A, B, C, m0=None, tol: float = 1e-4, max_iter: int = 1000) -> IpfResult:
    """Fit a tensor M with M.sum(2)=A, M.sum(0)=B, M.sum(1)=C.

    A is m x n, B is n x r, C is m x r; the sweeps rescale towards A, B and
    C in that order.  m0 defaults to all ones.
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
    M = np.ones((m, n, r)) if m0 is None else np.array(m0, dtype=float)
    if M.shape != (m, n, r):
        raise DataError(f"init shape {M.shape} does not match {(m, n, r)}")
    if not all(_finite_non_negative(x) for x in (A, B, C, M)):
        raise DataError("marginals and the initial tensor must be finite and non-negative")
    for i in range(m):
        _check_consistent(f"A[{i},:]", float(A[i].sum()), f"C[{i},:]", float(C[i].sum()))
    for j in range(n):
        _check_consistent(f"A[:,{j}]", float(A[:, j].sum()), f"B[{j},:]", float(B[j].sum()))
    for k in range(r):
        _check_consistent(f"B[:,{k}]", float(B[:, k].sum()), f"C[:,{k}]", float(C[:, k].sum()))
    if (((A > 0) & ~(M.sum(axis=2) > 0)).any()
            or ((B > 0) & ~(M.sum(axis=0) > 0)).any()
            or ((C > 0) & ~(M.sum(axis=1) > 0)).any()):
        raise DataError("a positive marginal has no positive initial entries")

    sum2 = M.sum(axis=2)
    res = residual3(M, A, B, C, sum2)
    iterations = 0
    stall = 0
    while res >= tol and iterations < max_iter:
        if iterations == 0:
            # the first sweep runs on the whole tensor; every cell it zeroes
            # stays zero (its factors are finite), so later sweeps run on
            # the cells it leaves positive, with one fiber index per marginal
            M *= _scale_factors(A, sum2)[:, :, None]
            M *= _scale_factors(B, M.sum(axis=0))[None, :, :]
            M *= _scale_factors(C, M.sum(axis=1))[:, None, :]
            i, j, k = np.nonzero(M)
            x = M[i, j, k]
            ia, At, a_fixed = _fibers(i * n + j, A)
            ib, Bt, b_fixed = _fibers(j * r + k, B)
            ic, Ct, c_fixed = _fibers(i * r + k, C)
            fixed = a_fixed + b_fixed + c_fixed
        else:
            x *= _scale_factors(At, sa)[ia]
            x *= _scale_factors(Bt, np.bincount(ib, x))[ib]
            x *= _scale_factors(Ct, np.bincount(ic, x))[ic]
        iterations += 1
        # each residual's sums over A's fibers are the next sweep's first sums
        sa = np.bincount(ia, x)
        new_res = float(np.abs(sa - At).sum()
                        + np.abs(np.bincount(ib, x) - Bt).sum()
                        + np.abs(np.bincount(ic, x) - Ct).sum()
                        + fixed)
        if res - new_res < _STALL_EPS:
            stall += 1
            if stall >= _STALL_SWEEPS:
                res = new_res
                break
        else:
            stall = 0
        res = new_res
    if iterations:
        M[i, j, k] = x
    return IpfResult(M, iterations, res, res < tol)
