import numpy as np
import pytest

from censim.errors import DataError
from censim.ipf import ipf2, ipf3, residual2, residual3


def test_residual2_examples():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert residual2(X, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
    assert residual2(X, np.array([1.0, 1.0]), np.array([2.0, 0.0])) == 2.0
    # doubling X doubles each deviation term against the same targets
    assert residual2(2 * X, np.array([1.0, 1.0]), np.array([2.0, 0.0])) == \
        abs(2 - 1) + abs(2 - 1) + abs(2 - 2) + abs(2 - 0)


def test_ipf2_symmetric_case():
    out = ipf2([1, 1], [1, 1], np.ones((2, 2)))
    assert np.array_equal(out.values, np.full((2, 2), 0.5))
    assert out.converged


def test_ipf2_row_then_column_trace():
    out = ipf2([3, 1], [2, 2], np.ones((2, 2)))
    assert np.array_equal(out.values, np.array([[1.5, 1.5], [0.5, 0.5]]))
    assert out.converged
    assert out.iterations == 1


def test_ipf2_preserves_structural_zeros():
    out = ipf2([2, 3], [2, 3], np.eye(2))
    assert np.array_equal(out.values, np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert out.values[0, 1] == 0.0 and out.values[1, 0] == 0.0
    assert out.converged


def test_ipf2_random_feasible_instances_converge():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m, n = rng.integers(2, 12, size=2)
        mask = rng.random((m, n)) < 0.6
        mask[np.arange(m), rng.integers(0, n, size=m)] = True
        mask[rng.integers(0, m, size=n), np.arange(n)] = True
        hidden = np.where(mask, rng.uniform(0.5, 2.0, size=(m, n)), 0.0)
        a, b = hidden.sum(axis=1), hidden.sum(axis=0)
        out = ipf2(a, b, mask.astype(float), tol=1e-10, max_iter=5000)
        assert out.converged, (m, n)
        assert np.abs(out.values.sum(axis=1) - a).sum() < 1e-10
        assert (out.values[~mask] == 0.0).all()


def test_ipf2_monotone_residual_and_marginal_exactness():
    rng = np.random.default_rng(3)
    hidden = rng.uniform(0.5, 2.0, size=(6, 7))
    a, b = hidden.sum(axis=1), hidden.sum(axis=0)
    m0 = np.ones((6, 7))
    residuals = [residual2(m0, a, b)]
    X = m0.copy()
    for _ in range(12):
        rs = X.sum(axis=1)
        X *= np.where(rs > 0, a / np.where(rs > 0, rs, 1), 1)[:, None]
        # the freshly scaled marginal is exact immediately after its sweep
        assert np.abs(X.sum(axis=1) - a).max() <= 1e-12 * max(1, a.max())
        cs = X.sum(axis=0)
        X *= np.where(cs > 0, b / np.where(cs > 0, cs, 1), 1)[None, :]
        assert np.abs(X.sum(axis=0) - b).max() <= 1e-12 * max(1, b.max())
        residuals.append(residual2(X, a, b))
    assert all(r1 >= r2 - 1e-15 for r1, r2 in zip(residuals, residuals[1:]))


def test_ipf2_rejects_inconsistent_or_negative_input():
    with pytest.raises(DataError):
        ipf2([1, 1], [3, 1], np.ones((2, 2)))
    with pytest.raises(DataError):
        ipf2([1, -1], [0, 0], np.ones((2, 2)))
    with pytest.raises(DataError):
        ipf2([1, 1], [1, 1], np.ones((3, 3)))
    with pytest.raises(DataError):
        ipf2([1, 1], [1, 1], np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_ipf2_infeasible_zero_structure_reports_non_convergence():
    # feasible marginals but a support that cannot carry them: the only
    # mass allowed in row 0 sits in column 0, yet column 0 wants 2.0 while
    # row 0 wants 1.0 and row 1 cannot reach column 0 at all
    a = [1.0, 1.0]
    b = [2.0, 0.0]
    m0 = np.array([[1.0, 1.0], [1.0, 1.0]])
    m0[1, 0] = 0.0
    m0[0, 1] = 1.0
    out = ipf2(a, b, m0, tol=1e-10, max_iter=200)
    assert not out.converged
    assert out.residual > 1e-3


def test_ipf3_uniform_fixed_point():
    A = np.full((2, 2), 2.0)
    out = ipf3(A, A, A, np.ones((2, 2, 2)))
    assert out.iterations == 0
    assert out.residual == 0.0
    assert np.array_equal(out.values, np.ones((2, 2, 2)))


def test_ipf3_diagonal_marginal():
    A = np.array([[2.0, 0.0], [0.0, 2.0]])
    ones = np.ones((2, 2))
    out = ipf3(A, ones, ones)
    expect = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            expect[i, j, :] = A[i, j] / 2.0
    assert np.allclose(out.values, expect, atol=1e-12)
    assert out.converged
    # all three marginals, recomputed by hand
    assert np.abs(out.values.sum(axis=2) - A).max() < 1e-10
    assert np.abs(out.values.sum(axis=0) - ones).max() < 1e-10
    assert np.abs(out.values.sum(axis=1) - ones).max() < 1e-10


def test_ipf3_random_marginals_from_hidden_tensor():
    rng = np.random.default_rng(11)
    hidden = rng.uniform(0.5, 1.5, size=(3, 4, 5))
    A, B, C = hidden.sum(axis=2), hidden.sum(axis=0), hidden.sum(axis=1)
    out = ipf3(A, B, C, tol=1e-4)
    assert out.converged
    assert residual3(out.values, A, B, C) < 1e-4


def test_ipf3_large_instance_converges_quickly():
    rng = np.random.default_rng(12)
    hidden = rng.uniform(0.5, 1.5, size=(50, 20, 50))
    A, B, C = hidden.sum(axis=2), hidden.sum(axis=0), hidden.sum(axis=1)
    out = ipf3(A, B, C, tol=1e-4)
    assert out.converged
    assert out.iterations < 200


def test_ipf3_rejects_inconsistent_marginals():
    A = np.array([[2.0, 0.0], [0.0, 2.0]])
    bad = np.array([[1.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DataError):
        ipf3(A, bad, np.ones((2, 2)))
    with pytest.raises(DataError):
        ipf3(A, np.ones((3, 2)), np.ones((2, 2)))


def test_ipf3_preserves_structural_zeros():
    rng = np.random.default_rng(4)
    hidden = rng.uniform(0.5, 1.5, size=(4, 3, 4))
    for i in range(4):
        hidden[i, :, i] = 0.0  # no mass on the diagonal
    A, B, C = hidden.sum(axis=2), hidden.sum(axis=0), hidden.sum(axis=1)
    m0 = np.ones((4, 3, 4))
    for i in range(4):
        m0[i, :, i] = 0.0
    out = ipf3(A, B, C, m0)
    assert out.converged
    for i in range(4):
        assert (out.values[i, :, i] == 0.0).all()


def test_ipf3_leaves_the_start_tensor_alone_and_zero_off_the_support():
    rng = np.random.default_rng(5)
    hidden = rng.uniform(0.5, 1.5, size=(5, 3, 5)) * (rng.random((5, 3, 5)) < 0.5)
    for i in range(5):
        hidden[i, :, i] = 0.0
    A, B, C = hidden.sum(axis=2), hidden.sum(axis=0), hidden.sum(axis=1)
    m0 = np.ones((5, 3, 5))
    for i in range(5):
        m0[i, :, i] = 0.0
    before = m0.copy()
    out = ipf3(A, B, C, m0, tol=1e-10, max_iter=5000)
    # the fuse stage hands one start tensor to every block
    assert np.array_equal(m0, before)
    assert out.iterations > 1
    # a cell is off the support when the start tensor or a target fiber
    # through it is zero
    off = ((m0 == 0) | (A[:, :, None] == 0) | (B[None, :, :] == 0)
           | (C[:, None, :] == 0))
    assert off.any() and (out.values[off] == 0.0).all()
    assert (out.values[~off] > 0).all()


_GOOD3 = (np.full((2, 2), 2.0), np.full((2, 2), 2.0), np.full((2, 2), 2.0),
          np.ones((2, 2, 2)))
_GOOD2 = (np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("which", range(4), ids=["A", "B", "C", "m0"])
def test_ipf3_rejects_non_finite_input(which, bad):
    args = [x.copy() for x in _GOOD3]
    args[which].flat[0] = bad
    with pytest.raises(DataError, match="^marginals and the initial tensor "
                                        "must be finite and non-negative$"):
        ipf3(*args)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("which", range(3), ids=["a", "b", "m0"])
def test_ipf2_rejects_non_finite_input(which, bad):
    args = [x.copy() for x in _GOOD2]
    args[which].flat[0] = bad
    with pytest.raises(DataError, match="^marginals and the initial matrix "
                                        "must be finite and non-negative$"):
        ipf2(*args)
