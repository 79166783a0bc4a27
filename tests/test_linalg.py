"""Cholesky, quadratic forms, determinants: hand-checked values and properties."""

import numpy as np
import pytest

from sgdci.errors import DimensionMismatch, NotPositiveDefinite
from sgdci.linalg import SymMatrix, cholesky, det_sqrt, quad_form_inv

RNG = np.random.default_rng(20240521)


def test_cholesky_identity():
    L = cholesky(SymMatrix(np.eye(3))).lower
    assert np.allclose(L, np.eye(3))


def test_cholesky_scalar():
    L = cholesky(SymMatrix([[4.0]])).lower
    assert L[0, 0] == pytest.approx(2.0)


def test_cholesky_hand_2x2():
    # elimination by hand: L = [[2, 0], [1, sqrt(2)]]
    L = cholesky(SymMatrix([[4.0, 2.0], [2.0, 3.0]])).lower
    assert L[0, 0] == pytest.approx(2.0)
    assert L[1, 0] == pytest.approx(1.0)
    assert L[1, 1] == pytest.approx(np.sqrt(2.0))
    assert L[0, 1] == 0.0


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_cholesky_reconstruction(d):
    A = RNG.standard_normal((d, d))
    S = SymMatrix(A @ A.T + 1e-3 * np.eye(d))
    f = cholesky(S)
    permuted = S.entries[np.ix_(f.perm, f.perm)]
    err = np.linalg.norm(f.lower @ f.lower.T - permuted) / np.linalg.norm(S.entries)
    assert err < 1e-10
    assert sorted(f.perm) == list(range(d))


def test_cholesky_pivots_largest_diagonal_first():
    # diagonal (1, 9, 4) must be eliminated in order 9, 4, 1
    S = SymMatrix(np.diag([1.0, 9.0, 4.0]))
    f = cholesky(S)
    assert list(f.perm) == [1, 2, 0]
    assert np.allclose(np.diag(f.lower), [3.0, 2.0, 1.0])


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(SymMatrix([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_negative_diagonal():
    with pytest.raises(NotPositiveDefinite):
        cholesky(SymMatrix([[-1.0]]))


def test_cholesky_rejects_rank_deficient():
    with pytest.raises(NotPositiveDefinite):
        cholesky(SymMatrix([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize(
    "entries",
    [[[np.nan]], [[np.inf]], [[1.0, np.nan], [np.nan, 1.0]]],
    ids=["nan", "inf", "nan_off_diagonal"],
)
def test_cholesky_rejects_non_finite(entries):
    # LAPACK alone would accept [[inf]]; the finite-diagonal guard rejects it
    S = SymMatrix(entries)
    with pytest.raises(NotPositiveDefinite):
        cholesky(S)
    with pytest.raises(NotPositiveDefinite):
        quad_form_inv(S, np.ones(S.dim))
    assert det_sqrt(S) == 0.0


@pytest.mark.parametrize(
    "diagonal, positive_definite",
    [((1.0, 2e-12), True), ((1.0, 1e-12), False), ((1.0, 5e-13), False),
     ((3e-12, 2.0, 1.0), True)],
)
def test_pivot_tolerance_boundary(diagonal, positive_definite):
    # a pivot equal to 1e-12 * max diagonal is rejected, and the tolerance
    # scales with the largest diagonal entry (2 in the last case), not the trace
    S = SymMatrix(np.diag(diagonal))
    assert (det_sqrt(S) > 0.0) is positive_definite


def test_symmatrix_symmetrizes_exactly():
    S = SymMatrix([[1.0, 2.0], [4.0, 1.0]])
    assert S.entries[0, 1] == S.entries[1, 0] == 3.0


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        SymMatrix(np.ones((2, 3)))


def test_quad_form_identity():
    assert quad_form_inv(SymMatrix(np.eye(2)), [3.0, 4.0]) == pytest.approx(25.0)


def test_quad_form_scalar():
    assert quad_form_inv(SymMatrix([[2.0]]), [2.0]) == pytest.approx(2.0)


def test_quad_form_hand_2x2():
    # explicit inverse of [[4,2],[2,3]] is (1/8) [[3,-2],[-2,4]]
    S = SymMatrix([[4.0, 2.0], [2.0, 3.0]])
    assert quad_form_inv(S, [1.0, 1.0]) == pytest.approx(0.375)


def test_quad_form_zero_vector():
    S = SymMatrix([[4.0, 2.0], [2.0, 3.0]])
    assert quad_form_inv(S, [0.0, 0.0]) == 0.0


@pytest.mark.parametrize("d", [1, 3, 8])
def test_quad_form_nonnegative(d):
    A = RNG.standard_normal((d, d))
    S = SymMatrix(A @ A.T + 0.1 * np.eye(d))
    for _ in range(20):
        v = RNG.standard_normal(d)
        q = quad_form_inv(S, v)
        assert q >= 0.0
        assert q == pytest.approx(v @ np.linalg.solve(S.entries, v), rel=1e-10)


def test_quad_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quad_form_inv(SymMatrix(np.eye(2)), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("d", [1, 2, 4, 9])
def test_det_sqrt_identity(d):
    assert det_sqrt(SymMatrix(np.eye(d))) == pytest.approx(1.0)


def test_det_sqrt_hand_2x2():
    assert det_sqrt(SymMatrix([[4.0, 2.0], [2.0, 3.0]])) == pytest.approx(np.sqrt(8.0))


def test_det_sqrt_singular_is_zero():
    assert det_sqrt(SymMatrix([[1.0, 1.0], [1.0, 1.0]])) == 0.0


@pytest.mark.parametrize("d", [2, 5])
def test_det_sqrt_matches_cholesky_diagonal(d):
    A = RNG.standard_normal((d, d))
    S = SymMatrix(A @ A.T + 0.5 * np.eye(d))
    L = cholesky(S).lower
    prod = float(np.prod(np.diag(L)))
    assert det_sqrt(S) == pytest.approx(prod, rel=1e-10)
    assert det_sqrt(S) ** 2 == pytest.approx(np.linalg.det(S.entries), rel=1e-8)
