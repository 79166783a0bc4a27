"""Dense linear algebra for small symmetric systems.

Everything here operates on explicitly stored d x d symmetric matrices with
d small (hundreds at most). One rule decides positive definiteness, stated
once in cholesky: the largest diagonal entry must be finite and positive,
and LAPACK's pivoted Cholesky dpstrf, stopped at the first pivot <= 1e-12
times that entry (Hammarling, Higham and Lucas 2007), must reach full rank.
dpstrf pivots on the largest remaining diagonal of the Schur complement,
which makes the rule rank-revealing: a singular matrix concentrates its
null directions in the trailing pivots instead of smearing them across
several columns, so genuine rank deficiency (batch-means covariances with
m <= d are singular by construction) is separated from harmless round-off.
The degeneracy studies depend on that separation. A CholFactor answers
the quadratic form and det^{1/2} itself, so a caller that keeps one (a
confidence region keeps its covariance's) never factors the matrix again;
quad_form_inv and det_sqrt factor afresh.

The batched routes elsewhere (np.linalg.solve in calibration._eval_chunk,
slogdet in calibration.det_sqrt_draws, the determinant pass that
inference.submit_volume_factor starts) serve
only limit laws with m > d, where a singular matrix has probability zero.
A draw whose solve fails is redrawn through calibration.simulate_limit_draw,
and so decided by this rule; slogdet maps a nonpositive sign to a zero
determinant. Both hold calibration._BLAS_LOCK, one worker at a time: two
workers making their small per-draw OpenBLAS calls at once each paid several
times the CPU, and the lock caps what more workers gain (see calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

PIVOT_RTOL = 1e-12


class SymMatrix:
    """A real symmetric matrix stored in full.

    Construction symmetrizes the input as (A + A.T) / 2, which is exact in
    floating point, so ``entries[i, j] == entries[j, i]`` always holds.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("dimension must be at least 1")
        self.entries = 0.5 * (a + a.T)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


@dataclass(frozen=True)
class CholFactor:
    """Pivoted Cholesky factor: S[perm[i], perm[j]] == (L @ L.T)[i, j].

    ``lower`` is lower triangular with strictly positive diagonal and
    ``perm`` records the diagonal pivoting order. det(S) is the squared
    product of the diagonal regardless of the permutation.
    """

    lower: np.ndarray
    perm: np.ndarray

    def quad_form(self, v) -> float:
        """v^T S^{-1} v = ||L^{-1} v[perm]||^2, one triangular solve."""
        # imported here: scipy.linalg adds about 0.1 s to every CLI start
        from scipy.linalg.lapack import dtrtrs

        v = _vector(v, len(self.perm))
        y, _ = dtrtrs(self.lower, v[self.perm], lower=1)
        return float(y @ y)

    def det_sqrt(self) -> float:
        """det(S)^{1/2}, the product of the diagonal."""
        return float(np.prod(np.diag(self.lower)))


def _vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatch(f"vector of length {v.shape} against matrix of dim {dim}")
    return v


def cholesky(S: SymMatrix) -> CholFactor:
    """Factor S with diagonal pivoting, failing on any pivot <= tolerance.

    The largest diagonal entry must be finite and positive, and dpstrf with
    tol = 1e-12 * that entry must return full rank. Raises
    NotPositiveDefinite otherwise; callers treat that as the
    degenerate-covariance signal.
    """
    # imported here: scipy.linalg adds about 0.1 s to every CLI start
    from scipy.linalg.lapack import dpstrf

    maxdiag = float(np.max(np.diag(S.entries)))
    if not 0.0 < maxdiag < np.inf:
        raise NotPositiveDefinite(
            f"largest diagonal entry {maxdiag!r} is not finite and positive"
        )
    tol = PIVOT_RTOL * maxdiag
    c, piv, rank, _ = dpstrf(S.entries, tol=tol, lower=1)
    if rank < S.dim:
        raise NotPositiveDefinite(f"pivot at column {rank} not above tolerance {tol:.3e}")
    return CholFactor(np.tril(c), piv - 1)


def quad_form_inv(S: SymMatrix, v) -> float:
    """Return v^T S^{-1} v through a fresh factor of S (CholFactor.quad_form)."""
    v = _vector(v, S.dim)
    return cholesky(S).quad_form(v)


def det_sqrt(S: SymMatrix) -> float:
    """det(S)^{1/2} via the Cholesky diagonal; 0.0 when factorization fails.

    The zero return is load-bearing: degeneracy studies feed singular
    covariances through here on purpose.
    """
    try:
        f = cholesky(S)
    except NotPositiveDefinite:
        return 0.0
    return f.det_sqrt()
