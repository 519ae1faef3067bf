"""Differential tests: ipf3 against the dense sweep loop it replaced.

reference_ipf3 below is that loop, kept verbatim: every sweep rescales the
whole tensor and takes its marginals with numpy's axis sums.  ipf3 holds the
tensor only on the cells it is given: it drops every cell that its support
helper finds empty in every exact fit and runs every sweep on the rest,
summing each fiber with bincount in cell order.  The reference starts from
the indicator of those surviving cells, so both fit the same start.  The
helper itself is checked against the hidden tensor of feasible instances
and on hand-built chains of deductions.

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
  summed over the fibers the cells reach, not over the dense marginals, so
  it may differ from the reference in its last bits.
"""

import numpy as np
import pytest

from censim.ipf import IpfResult, _support, ipf3

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
    """A random sparse fusion problem: the marginals of _hidden's tensor and
    its start."""
    H, start = _hidden(rng, most, drop)
    return H.sum(axis=2), H.sum(axis=0), H.sum(axis=1), start


def _hidden(rng, most: int | None, drop: float):
    """A hidden tensor, zero where origin equals destination, and a start.

    The start is a 0/1 pattern.  With `most` set, each of the hidden
    tensor's (origin, class) fibers holds 0..most cells in random
    destinations and the start is exactly those cells; otherwise the hidden
    tensor is a random share of the off-diagonal cells and the start adds
    more cells and leaves others out.  A `drop` share of the hidden cells is
    then left out of the start, where each of the cell's three fibers keeps
    another start cell, which makes the instance infeasible in most draws
    but keeps every positive marginal reachable.
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
    # an unused draw: it keeps the instances the coverage counts below
    # were set on
    rng.uniform(0.5, 1.5, off.shape)
    return H, start


def _peeled(A, B, C, start):
    """The indicator of the start cells that ipf3 sweeps: its own support
    helper on the start's cells."""
    cells = np.nonzero(start)
    i, j, k = cells
    m, n = A.shape
    r = C.shape[1]
    fibers = [(T.reshape(-1), f) for T, f in ((A, i * n + j), (B, j * r + k),
                                              (C, i * r + k))]
    surviving = np.zeros(start.shape, dtype=bool)
    surviving[cells] = _support(fibers)
    return surviving


def _fit(A, B, C, start, tol=1e-4, max_iter=1000):
    """ipf3 on the start's cells and the reference on the indicator of the
    cells ipf3 keeps, both as dense tensors."""
    cells = np.nonzero(start)
    out = ipf3(A, B, C, cells, tol, max_iter)
    M = np.zeros(start.shape)
    M[cells] = out.values
    ref = reference_ipf3(A, B, C, _peeled(A, B, C, start).astype(float), tol, max_iter)
    return IpfResult(M, out.iterations, out.residual, out.converged), ref


def _stalled(result: IpfResult, max_iter: int) -> bool:
    return not result.converged and result.iterations < max_iter


def _cases(seed: int, most: int | None, count: int):
    """(A, B, C, start, tol, max_iter) cycling through feasible and infeasible
    draws, both tolerances and a low sweep cap."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        A, B, C, start = _instance(rng, most, drop=(0.0, 0.3)[t % 2])
        yield A, B, C, start, (1e-4, 1e-10)[t % 3 == 0], (1000, 6)[t % 4 == 3]


@pytest.mark.parametrize("seed", range(4))
def test_sparse_instances_match_the_dense_loop(seed):
    seen = {"wide fibers": 0, "plateaus": 0, "capped": 0, "converged": 0}
    for A, B, C, start, tol, max_iter in _cases(seed, None, 30):
        out, ref = _fit(A, B, C, start, tol, max_iter)
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
    for A, B, C, start, tol, max_iter in _cases(100 + seed, 2, 30):
        out, ref = _fit(A, B, C, start, tol, max_iter)
        assert np.count_nonzero(start, axis=2).max() <= 2
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
    start = np.ones((A.shape[0], A.shape[1], C.shape[1]), dtype=bool)
    out, ref = _fit(A, B, C, start, max_iter=0)
    assert (out.iterations, out.residual) == (0, ref.residual)
    assert np.array_equal(out.values, ref.values)
    assert 0 < np.count_nonzero(out.values) < start.size


# (hidden tensor, start) pairs from a random search over hidden entries of
# 1, 1e-160 and 1e-300 and 0/1 starts: the factors get small enough that
# support cells underflow to zero and a whole fiber of A, B or C (in that
# order) sums to zero, so it must keep factor 1
_UNDERFLOWS = [
    ([[[1e-160, 1e-300], [1e-300, 1e-300]], [[0.0, 1e-300], [0.0, 1.0]]],
     [[[0, 1], [1, 1]], [[1, 1], [1, 1]]]),
    ([[[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1e-300, 1e-300]]],
     [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),
    ([[[1e-300, 0.0, 1e-300], [0.0, 1.0, 0.0]],
      [[0.0, 1e-300, 1.0], [1e-160, 1e-300, 1e-300]],
      [[0.0, 1.0, 1e-300], [1e-300, 1.0, 0.0]]],
     [[[1, 1, 1], [1, 1, 1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [1, 0, 1]]]),
]


@pytest.mark.parametrize("hidden, start", _UNDERFLOWS, ids=["A", "B", "C"])
def test_fibers_that_underflow_keep_factor_one(hidden, start):
    H, start = np.array(hidden), np.array(start, dtype=bool)
    A, B, C = H.sum(axis=2), H.sum(axis=0), H.sum(axis=1)
    _, first = _fit(A, B, C, start, tol=1e-300, max_iter=1)
    out, ref = _fit(A, B, C, start, tol=1e-300, max_iter=40)
    assert ((first.values > 0) & (ref.values == 0)).any()
    assert np.array_equal(out.values, ref.values)
    assert (out.iterations, out.converged) == (ref.iterations, ref.converged)


def _zero_drop(A, B, C, start):
    """The start cells that no zero target passes through."""
    return start & (A[:, :, None] > 0) & (B[None, :, :] > 0) & (C[:, None, :] > 0)


@pytest.mark.parametrize("seed", range(3))
def test_peeling_drops_only_cells_the_hidden_tensor_leaves_empty(seed):
    # on a feasible instance the hidden tensor is an exact fit, so a cell
    # that every exact fit leaves empty is empty in it
    rng = np.random.default_rng(300 + seed)
    peeled = 0
    for t in range(40):
        H, start = _hidden(rng, (None, 3)[t % 2], drop=0.0)
        A, B, C = H.sum(axis=2), H.sum(axis=0), H.sum(axis=1)
        dropped = _zero_drop(A, B, C, start) & ~_peeled(A, B, C, start)
        assert not H[dropped].any()
        peeled += np.count_nonzero(dropped)
    assert peeled >= 20


# a 2 x 2 x 2 start without cell (0, 0, 1): fiber A[0, 0] holds one cell,
# so (0, 0, 0) = 2 in every exact fit; that fills C[0, 0] and empties
# (0, 1, 0), which leaves (0, 1, 1) alone in A[0, 1], so it is 1; that
# fills B[1, 1] and empties (1, 1, 1), two fibers away from A[0, 0]
_CHAIN = np.array([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 0.0]]])
_CHAIN_START = np.ones((2, 2, 2), dtype=bool)
_CHAIN_START[0, 0, 1] = False


def test_a_single_cell_fiber_empties_a_cell_two_fibers_away():
    H = _CHAIN
    A, B, C = H.sum(axis=2), H.sum(axis=0), H.sum(axis=1)
    assert np.array_equal(_zero_drop(A, B, C, _CHAIN_START), _CHAIN_START)
    assert np.array_equal(_peeled(A, B, C, _CHAIN_START), H > 0)
    out, ref = _fit(A, B, C, _CHAIN_START)
    assert out.converged and np.array_equal(out.values, ref.values)
    np.testing.assert_allclose(out.values, H, rtol=0, atol=1e-4)
    # on the zero-target drop alone the fit only nears those zeros
    slow = reference_ipf3(A, B, C, _CHAIN_START.astype(float))
    assert not slow.converged and slow.iterations == 1000


def test_contradictory_deductions_keep_the_zero_target_drop():
    # marginals of a tensor with (0, 0, 1) = 1, which the start lacks: the
    # single cell of A[0, 0] must hold 2, but C[0, 0] holds only 1
    H = _CHAIN.copy()
    H[0, 0] = [1.0, 1.0]
    A, B, C = H.sum(axis=2), H.sum(axis=0), H.sum(axis=1)
    kept = _zero_drop(A, B, C, _CHAIN_START)
    assert np.count_nonzero(kept) == 7
    assert np.array_equal(_peeled(A, B, C, _CHAIN_START), kept)
    out, ref = _fit(A, B, C, _CHAIN_START)
    assert np.array_equal(out.values, ref.values) and not out.converged
