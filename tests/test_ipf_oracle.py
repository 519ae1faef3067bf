"""Differential tests: ipf3 against the dense sweep loop it replaced.

reference_ipf3 below is that loop, kept verbatim: every sweep rescales the
whole tensor and takes its marginals with numpy's axis sums.  ipf3 runs its
first sweep the same way and later sweeps only on the cells that sweep left
positive, summing each fiber with bincount in cell order.

Sums over origins and over classes run in cell order in both.  Sums over
destinations do not: numpy adds a contiguous axis pairwise, so a fiber
(origin, class) with three or more positive cells may round differently.
Hence two families of random instances:

- fibers with any number of cells: the same zero pattern and convergence,
  values within 1e-12 relative, and the same number of sweeps unless the
  stall rule stops either solver (on a residual plateau its absolute bound
  reacts to rounding noise, so a different summation order can move it);
- fibers with at most two cells, where every fiber sum is exact in any
  order: values bit for bit and the same number of sweeps.  The residual is
  summed over the fibers the support reaches, not over the dense marginals,
  so it may differ from the reference in its last bits.
"""

import numpy as np
import pytest

from censim.ipf import IpfResult, ipf3

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_STALL_EPS = 1e-15
_STALL_SWEEPS = 3


def _scale_factors(target: np.ndarray, current: np.ndarray) -> np.ndarray:
    out = np.ones_like(current)
    np.divide(target, current, out=out, where=current > 0)
    return out


def residual3(M, A, B, C, sum2=None) -> float:
    if sum2 is None:
        sum2 = M.sum(axis=2)
    return float(np.abs(sum2 - A).sum()
                 + np.abs(M.sum(axis=0) - B).sum()
                 + np.abs(M.sum(axis=1) - C).sum())


def reference_ipf3(A, B, C, m0, tol=1e-4, max_iter=1000) -> IpfResult:
    M = np.array(m0, dtype=float)
    # each residual's sum over the third axis is the next sweep's first sum
    sum2 = M.sum(axis=2)
    res = residual3(M, A, B, C, sum2)
    iterations = 0
    stall = 0
    while res >= tol and iterations < max_iter:
        M *= _scale_factors(A, sum2)[:, :, None]
        M *= _scale_factors(B, M.sum(axis=0))[None, :, :]
        M *= _scale_factors(C, M.sum(axis=1))[:, None, :]
        iterations += 1
        sum2 = M.sum(axis=2)
        new_res = residual3(M, A, B, C, sum2)
        if res - new_res < _STALL_EPS:
            stall += 1
            if stall >= _STALL_SWEEPS:
                res = new_res
                break
        else:
            stall = 0
        res = new_res
    return IpfResult(M, iterations, res, res < tol)


def _instance(rng, most: int | None, drop: float):
    """A random sparse fusion problem, zero where origin equals destination.

    The marginals are those of a hidden tensor.  With `most` set, each of
    its (origin, class) fibers holds 0..most cells in random destinations
    and the start tensor is positive on exactly those cells; otherwise the
    hidden tensor is a random share of the off-diagonal cells and the start
    tensor adds more cells and leaves others zero.  A `drop` share of the
    hidden cells is then zeroed in the start tensor, where each of the
    cell's three fibers keeps another start cell, which makes the instance
    infeasible in most draws but keeps every positive marginal reachable.
    """
    m = int(rng.integers(9, 21))
    n = int(rng.integers(2, 7))
    r = m + int(rng.integers(-3, 4))
    off = np.ones((m, n, r), dtype=bool)
    off[np.arange(min(m, r)), :, np.arange(min(m, r))] = False
    if most is None:
        hidden = off & (rng.random(off.shape) < rng.uniform(0.15, 0.5))
        start = hidden | (off & (rng.random(off.shape) < 0.4))
    else:
        # a random order of each fiber's destinations, the diagonal last
        rank = np.where(off, rng.random(off.shape), 2.0).argsort(axis=2).argsort(axis=2)
        hidden = rank < rng.integers(0, most + 1, size=(m, n, 1))
        start = hidden.copy()
    for i, j, k in zip(*np.nonzero(hidden & (rng.random(off.shape) < drop))):
        if (start[i, j].sum() > 1 and start[:, j, k].sum() > 1
                and start[i, :, k].sum() > 1):
            start[i, j, k] = False
    H = np.where(hidden, rng.uniform(0.5, 2.0, off.shape), 0.0)
    m0 = np.where(start, rng.uniform(0.5, 1.5, off.shape), 0.0)
    return H.sum(axis=2), H.sum(axis=0), H.sum(axis=1), m0


def _stalled(result: IpfResult, max_iter: int) -> bool:
    return not result.converged and result.iterations < max_iter


def _cases(seed: int, most: int | None, count: int):
    """(A, B, C, m0, tol, max_iter) cycling through feasible and infeasible
    draws, both tolerances and a low sweep cap."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        A, B, C, m0 = _instance(rng, most, drop=(0.0, 0.3)[t % 2])
        yield A, B, C, m0, (1e-4, 1e-10)[t % 3 == 0], (1000, 6)[t % 4 == 3]


@pytest.mark.parametrize("seed", range(4))
def test_sparse_instances_match_the_dense_loop(seed):
    seen = {"wide fibers": 0, "plateaus": 0, "capped": 0, "converged": 0}
    for A, B, C, m0, tol, max_iter in _cases(seed, None, 30):
        ref = reference_ipf3(A, B, C, m0, tol, max_iter)
        out = ipf3(A, B, C, m0, tol, max_iter)
        assert np.array_equal(out.values == 0, ref.values == 0)
        assert out.converged == ref.converged
        if not (_stalled(ref, max_iter) or _stalled(out, max_iter)):
            assert out.iterations == ref.iterations
        if out.iterations == ref.iterations:
            np.testing.assert_allclose(out.values, ref.values, rtol=1e-12, atol=0)
            assert out.residual == pytest.approx(ref.residual, rel=1e-9,
                                                  abs=1e-12 * A.sum())
        seen["wide fibers"] += int((np.count_nonzero(ref.values, axis=2) >= 3).any())
        seen["plateaus"] += _stalled(ref, max_iter) or (
            not ref.converged and ref.residual > 1e-3)
        seen["capped"] += not ref.converged and ref.iterations == max_iter
        seen["converged"] += ref.converged
    # the draws cover what the comparison is about
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("seed", range(4))
def test_two_cell_fibers_match_bit_for_bit(seed):
    compared = 0
    for A, B, C, m0, tol, max_iter in _cases(100 + seed, 2, 30):
        ref = reference_ipf3(A, B, C, m0, tol, max_iter)
        out = ipf3(A, B, C, m0, tol, max_iter)
        assert np.count_nonzero(m0, axis=2).max() <= 2
        assert np.array_equal(out.values == 0, ref.values == 0)
        assert out.converged == ref.converged
        if _stalled(ref, max_iter) or _stalled(out, max_iter):
            continue
        assert out.iterations == ref.iterations
        assert np.array_equal(out.values, ref.values)
        assert out.residual == pytest.approx(ref.residual, rel=1e-12,
                                              abs=1e-15 * A.sum())
        compared += 1
    assert compared >= 20


def test_a_zero_sweep_cap_returns_the_start_tensor():
    rng = np.random.default_rng(7)
    A, B, C, _ = _instance(rng, None, 0.0)
    m0 = np.ones((A.shape[0], A.shape[1], C.shape[1]))
    out = ipf3(A, B, C, m0, max_iter=0)
    ref = reference_ipf3(A, B, C, m0, max_iter=0)
    assert (out.iterations, out.residual) == (0, ref.residual)
    assert np.array_equal(out.values, m0)


# (hidden tensor, start tensor) pairs from a random search over entries of
# 1, 1e-160 and 1e-300: the factors get small enough that support cells
# underflow to zero and a whole fiber of A, B or C (in that order) sums to
# zero, so it must keep factor 1
_UNDERFLOWS = [
    ([[[1e-160, 1.0], [1.0, 0.0]], [[0.0, 1e-160], [1e-300, 0.0]]],
     [[[1e-300, 1.0], [1e-160, 1.0]], [[1e-300, 1e-300], [1e-300, 1e-300]]]),
    ([[[0.0, 1e-160, 0.0], [1e-160, 0.0, 1.0]],
      [[1e-300, 1e-300, 1e-160], [1e-160, 1e-300, 1.0]],
      [[1e-300, 0.0, 1.0], [0.0, 0.0, 1.0]]],
     [[[1.0, 1e-160, 1.0], [1e-300, 1.0, 1e-160]],
      [[1e-160, 1e-160, 1e-300], [1.0, 0.0, 1e-160]],
      [[1e-300, 1e-300, 0.0], [1e-160, 1.0, 1e-300]]]),
    ([[[1.0, 1e-300, 1e-300], [1.0, 0.0, 1e-300]],
      [[1.0, 0.0, 1e-160], [0.0, 1e-160, 1e-160]],
      [[1e-160, 0.0, 1e-160], [1.0, 1e-160, 1e-160]]],
     [[[1e-300, 1e-160, 1.0], [1.0, 1e-160, 1e-160]],
      [[1.0, 1.0, 1.0], [1e-300, 0.0, 1.0]],
      [[1e-300, 1e-300, 1.0], [0.0, 1e-300, 1e-300]]]),
]


@pytest.mark.parametrize("hidden, m0", _UNDERFLOWS, ids=["A", "B", "C"])
def test_fibers_that_underflow_keep_factor_one(hidden, m0):
    H, m0 = np.array(hidden), np.array(m0)
    A, B, C = H.sum(axis=2), H.sum(axis=0), H.sum(axis=1)
    first = reference_ipf3(A, B, C, m0, tol=1e-300, max_iter=1).values
    ref = reference_ipf3(A, B, C, m0, tol=1e-300, max_iter=40)
    out = ipf3(A, B, C, m0, tol=1e-300, max_iter=40)
    assert ((first > 0) & (ref.values == 0)).any()
    assert np.array_equal(out.values, ref.values)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)
