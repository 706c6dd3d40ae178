"""Dense linear algebra kernels used across the toolkit.

Thin wrappers over LAPACK (via numpy/scipy) with explicit singularity
detection and fixed tolerance semantics, so every caller shares one
notion of "singular", "rank", and "spectral radius".

Matrices are 2-D float ndarrays, vectors are 1-D.
"""

import warnings

import numpy as np
import scipy.linalg


class SingularMatrix(Exception):
    """Raised when an LU pivot falls below the relative threshold, or a
    matrix to be Cholesky-factored is not positive definite."""


class NoConvergence(Exception):
    """Raised when the eigenvalue iteration fails to converge."""


PIVOT_RTOL = 1e-12
RANK_RTOL = 1e-9


def lu(A):
    """LU factors of a square A with partial pivoting, for lu_solve.

    Raises SingularMatrix when A is zero or any pivot magnitude drops
    below PIVOT_RTOL * max|A|.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    scale = np.abs(A).max() if A.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    with warnings.catch_warnings():
        # the pivot check below owns singularity reporting
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        factors = scipy.linalg.lu_factor(A, check_finite=True)
    pivots = np.abs(np.diag(factors[0]))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:.0e} * max|A| = {PIVOT_RTOL * scale:.3e}")
    return factors


lu_solve = scipy.linalg.lu_solve    # lu_solve(lu(A), b) solves A x = b


def solve_linear(A, b):
    """Solve A x = b by LU with partial pivoting; raises as lu does."""
    return lu_solve(lu(A), b)


def cholesky(A):
    """Lower Cholesky factor of a symmetric A, for cho_solve.

    Raises SingularMatrix when A is not positive definite.
    """
    try:
        return scipy.linalg.cholesky(A, lower=True, check_finite=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


# LAPACK potrs directly: scipy.linalg.cho_solve's argument checks cost
# ~5x the solve itself at the QP's sizes
_potrs = scipy.linalg.lapack.dpotrs


def cho_solve(L, b):
    """Solve A x = b from the lower Cholesky factor L of A; b is a vector
    or a matrix of right-hand sides."""
    return _potrs(L, b, lower=1)[0]


def pseudoinverse(A):
    """Moore-Penrose pseudoinverse via SVD (rank-revealing)."""
    A = np.asarray(A, dtype=float)
    return np.linalg.pinv(A)


# LAPACK gesdd directly, singular values only: scipy.linalg.svdvals's
# checks and workspace query cost about as much as the SVD at these sizes
_gesdd = scipy.linalg.lapack.dgesdd


def matrix_rank(A, tol=RANK_RTOL):
    """Number of singular values above tol * sigma_max.

    tol is relative; sigma_max = 0 gives rank 0. Raises ValueError when A
    is not a matrix or holds NaN or Inf, and numpy.linalg.LinAlgError when
    the SVD does not converge.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected matrix")
    if A.size == 0:
        return 0
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    _, s, _, info = _gesdd(A, compute_uv=0)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gesdd")
    smax = s[0]
    if smax == 0.0:
        return 0
    return int(np.sum(s > tol * smax))


def spectral_radius(A):
    """max |lambda_i(A)| via the QR eigenvalue algorithm."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return float(np.abs(ev).max()) if ev.size else 0.0
