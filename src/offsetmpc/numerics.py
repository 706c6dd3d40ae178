"""Dense linear algebra kernels used across the toolkit.

numpy only: LU with partial pivoting and the triangular substitutions
are written out here, the Cholesky factor and the SVD come from
numpy.linalg. Explicit singularity detection and fixed tolerance
semantics mean every caller shares one notion of "singular", "rank",
and "spectral radius".

Matrices are 2-D float ndarrays, vectors are 1-D.
"""

import numpy as np


class SingularMatrix(Exception):
    """Raised when an LU pivot falls below the relative threshold, or a
    matrix to be Cholesky-factored is not positive definite."""


class NoConvergence(Exception):
    """Raised when the eigenvalue iteration fails to converge."""


PIVOT_RTOL = 1e-12
RANK_RTOL = 1e-9


def _finite_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    return A


def lu(A):
    """LU factors (lu, piv) of a square A with partial pivoting, for
    lu_solve: the unit lower and the upper factor share lu, and row k was
    swapped with row piv[k], in the order k = 0, 1, ...

    Raises ValueError when A is not square or holds NaN or Inf, and
    SingularMatrix when A is zero or a pivot magnitude drops below
    PIVOT_RTOL * max|A|; elimination stops at that pivot.
    """
    a = _finite_square(A).copy()
    scale = np.abs(a).max() if a.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    n = a.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.abs(a[k:, k]).argmax())
        if p != k:
            piv[k] = p
            a[[k, p]] = a[[p, k]]
        pivot = abs(a[k, k])
        if pivot < PIVOT_RTOL * scale:
            raise SingularMatrix(
                f"pivot {pivot:.3e} below {PIVOT_RTOL:.0e} * max|A| = {PIVOT_RTOL * scale:.3e}")
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, piv


def _rhs(n, b):
    """A float copy x of a right-hand side b for an n x n system, and x as
    a matrix view, to be solved in place. Raises ValueError when b does
    not fit or holds NaN or Inf."""
    x = np.array(b, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not fit "
                         f"a {n}x{n} matrix")
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return x, (x if x.ndim == 2 else x[:, None])


def lu_solve(factors, b):
    """x with A x = b from factors = lu(A); b is a vector or a matrix of
    right-hand sides."""
    a, piv = factors
    n = a.shape[0]
    x, X = _rhs(n, b)
    for k, p in enumerate(piv.tolist()):
        if p != k:
            X[[k, p]] = X[[p, k]]
    for k in range(n - 1):                  # unit lower: forward
        X[k + 1:] -= a[k + 1:, k, None] * X[k]
    for k in range(n - 1, -1, -1):          # upper: back
        X[k] /= a[k, k]
        X[:k] -= a[:k, k, None] * X[k]
    return x


def solve_linear(A, b):
    """Solve A x = b by LU with partial pivoting; raises as lu does."""
    return lu_solve(lu(A), b)


def cholesky(A):
    """Lower Cholesky factor of a symmetric A (its lower triangle is
    read), for cho_solve.

    Raises ValueError when A is not square or holds NaN or Inf, and
    SingularMatrix when A is not positive definite.
    """
    A = _finite_square(A)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def cho_solve(L, b):
    """Solve A x = b from the lower Cholesky factor L of A, by forward and
    back substitution; b is a vector or a matrix of right-hand sides."""
    n = L.shape[0]
    x, X = _rhs(n, b)
    for k in range(n):                      # L y = b
        X[k] /= L[k, k]
        X[k + 1:] -= L[k + 1:, k, None] * X[k]
    for k in range(n - 1, -1, -1):          # L' x = y
        X[k] /= L[k, k]
        X[:k] -= L[k, :k, None] * X[k]
    return x


def pseudoinverse(A):
    """Moore-Penrose pseudoinverse via SVD (rank-revealing)."""
    A = np.asarray(A, dtype=float)
    return np.linalg.pinv(A)


def matrix_rank(A):
    """Number of singular values above RANK_RTOL * sigma_max.

    sigma_max = 0 gives rank 0. Raises ValueError when A
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
    s = np.linalg.svd(A, compute_uv=False)    # gesdd, descending
    smax = s[0]
    if smax == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * smax))


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
