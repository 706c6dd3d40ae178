import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from offsetmpc import numerics


def test_solve_linear_matches_lapack_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = rng.integers(1, 8)
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = numerics.solve_linear(A, b)
        assert np.allclose(A @ x, b, atol=1e-9)
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-9)


def test_solve_linear_matrix_rhs():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    B = rng.normal(size=(4, 3))
    X = numerics.solve_linear(A, B)
    assert np.allclose(A @ X, B, atol=1e-10)


def test_cholesky_rejects_indefinite():
    R = np.random.default_rng(3).normal(size=(4, 2))
    for A in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)),
              np.array([[-1.0]]), np.diag([1.0, -1e-3, 2.0]), R @ R.T):
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(A, lower=True)
        with pytest.raises(numerics.SingularMatrix):
            numerics.cholesky(A)


def ref_lu(A):
    """The scipy.linalg.lu_factor form that lu replaced: LAPACK getrf,
    then the same pivot test on the factor's diagonal."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    scale = np.abs(A).max() if A.size else 0.0
    if scale == 0.0:
        raise numerics.SingularMatrix("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        factors = scipy.linalg.lu_factor(A, check_finite=True)
    pivots = np.abs(np.diag(factors[0]))
    if pivots.min() < numerics.PIVOT_RTOL * scale:
        raise numerics.SingularMatrix(
            f"pivot {pivots.min():.3e} below {numerics.PIVOT_RTOL:.0e} * "
            f"max|A| = {numerics.PIVOT_RTOL * scale:.3e}")
    return factors


def close_to(x, ref, rtol=1e-12):
    """|x - ref| <= rtol * max|ref| in every entry."""
    return np.abs(x - ref).max() <= rtol * np.abs(ref).max()


def test_lu_solve_matches_scipy_oracle():
    """Random well-conditioned matrices of size 1 to 8, with vector and
    matrix right-hand sides: lu_solve(lu(A), b) agrees with scipy's
    lu_factor/lu_solve to 1e-12 relative, and keeps b's shape."""
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for _ in range(25):
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            ref_factors = ref_lu(A)
            for b in (rng.normal(size=n), rng.normal(size=(n, 1)),
                      rng.normal(size=(n, 4))):
                x = numerics.lu_solve(numerics.lu(A), b)
                assert x.shape == b.shape
                assert close_to(x, scipy.linalg.lu_solve(ref_factors, b))


def pivot_cases(f):
    """Matrices of max|A| 1 whose smallest pivot is f * PIVOT_RTOL: the
    first, the last, one left by a row swap and elimination, and one left
    by elimination alone."""
    t = f * numerics.PIVOT_RTOL
    return [np.array([[t, 0.0], [0.0, 1.0]]),
            np.diag([1.0, 0.5, t]),
            np.array([[0.5, 0.5 + t], [1.0, 1.0]]),
            np.array([[1.0, 1.0], [1.0, 1.0 + t]])]


@pytest.mark.parametrize("f, singular", [(0.5, True), (2.0, False)])
def test_lu_pivot_threshold_matches_scipy_oracle(f, singular):
    """A pivot at half PIVOT_RTOL * max|A| raises SingularMatrix with the
    oracle's message; at twice the threshold both factor and solve."""
    rng = np.random.default_rng(5)
    for A in pivot_cases(f):
        if singular:
            with pytest.raises(numerics.SingularMatrix) as ref_exc:
                ref_lu(A)
            with pytest.raises(numerics.SingularMatrix) as exc:
                numerics.lu(A)
            assert re.fullmatch(r"pivot \S+ below 1e-12 \* max\|A\| = "
                                r"1\.000e-12", str(exc.value)), exc.value
            got, want = (float(str(e.value).split()[1])
                         for e in (exc, ref_exc))
            assert got == pytest.approx(want, rel=1e-3)
        else:
            b = rng.normal(size=len(A))
            x = numerics.lu_solve(numerics.lu(A), b)
            ref = scipy.linalg.lu_solve(ref_lu(A), b)
            assert close_to(x, ref, rtol=1e-9)


NON_FINITE = [np.array([[1.0, np.nan], [0.0, 1.0]]),
              np.array([[np.inf, 0.0], [0.0, 1.0]]),
              np.array([[1.0, 0.0], [0.0, -np.inf]])]


@pytest.mark.parametrize("kernel", ["lu", "cholesky", "matrix_rank"])
def test_non_finite_input_is_value_error(kernel):
    for A in NON_FINITE:
        with pytest.raises(ValueError):
            getattr(numerics, kernel)(A)


def test_non_finite_right_hand_side_is_value_error():
    with pytest.raises(ValueError):
        numerics.lu_solve(numerics.lu(np.eye(2)), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        numerics.cho_solve(np.eye(2), np.array([np.inf, 1.0]))


def test_cho_solve_matches_lapack_oracle():
    """Random positive definite matrices of size 1 to 8: the factor
    reproduces A, and cho_solve agrees with scipy's cho_factor/cho_solve
    to 1e-12 relative on vector and matrix right-hand sides."""
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        for _ in range(25):
            R = rng.normal(size=(n, n))
            A = R @ R.T + 0.1 * np.eye(n)
            ref_factor = scipy.linalg.cho_factor(A, lower=True)
            L = numerics.cholesky(A)
            assert np.allclose(L @ L.T, A, atol=1e-12)
            assert close_to(L, np.tril(ref_factor[0]))
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                x = numerics.cho_solve(L, b)
                assert x.shape == b.shape
                assert close_to(x, scipy.linalg.cho_solve(ref_factor, b))


# solve_linear and the factorization it is built on raise alike
FACTOR = {"solve_linear": lambda A: numerics.solve_linear(A, np.ones(len(A))),
          "lu": numerics.lu}


@pytest.mark.parametrize("factor", list(FACTOR.values()), ids=list(FACTOR))
def test_solve_linear_singular_raises(factor):
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(numerics.SingularMatrix):
        factor(A)
    with pytest.raises(numerics.SingularMatrix):
        factor(np.zeros((3, 3)))


@pytest.mark.parametrize("factor", list(FACTOR.values()), ids=list(FACTOR))
def test_solve_linear_rejects_nonsquare(factor):
    with pytest.raises(ValueError):
        factor(np.ones((2, 3)))


def test_pseudoinverse_penrose_identities():
    """All four Penrose identities on random full- and deficient-rank blocks."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.integers(1, 7)
        n = rng.integers(1, 7)
        r = rng.integers(1, min(m, n) + 1)
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        P = numerics.pseudoinverse(A)
        assert np.allclose(A @ P @ A, A, atol=1e-8)
        assert np.allclose(P @ A @ P, P, atol=1e-8)
        assert np.allclose((A @ P).T, A @ P, atol=1e-8)
        assert np.allclose((P @ A).T, P @ A, atol=1e-8)


def test_matrix_rank_on_constructed_rank():
    rng = np.random.default_rng(2)
    for r in range(0, 5):
        A = np.zeros((6, 5))
        for _ in range(r):
            A += np.outer(rng.normal(size=6), rng.normal(size=5))
        assert numerics.matrix_rank(A) == r


def ref_matrix_rank(A):
    """The scipy.linalg.svdvals form that matrix_rank replaced."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0
    s = scipy.linalg.svdvals(A)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > numerics.RANK_RTOL * s[0]))


def test_matrix_rank_matches_svdvals_oracle(monkeypatch):
    """Random, rank-deficient (down to singular values at the relative
    threshold), zero and empty matrices give the svdvals rank; NaN, Inf
    and non-matrix input raise ValueError like svdvals, and an SVD that
    does not converge raises LinAlgError."""
    rng = np.random.default_rng(17)
    cases = [np.zeros((3, 4)), np.zeros((0, 3)), np.zeros((2, 0)),
             np.zeros((1, 1))]
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        cases += [rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7), A]
        if r:
            # a direction scaled near the threshold from either side
            U, _, Vt = np.linalg.svd(rng.normal(size=(m, n)))
            s = np.ones(min(m, n))
            s[-1] = numerics.RANK_RTOL * rng.choice([0.5, 2.0])
            cases.append((U[:, :s.size] * s) @ Vt[:s.size])
    ranks = set()
    for A in cases:
        assert numerics.matrix_rank(A) == ref_matrix_rank(A), A
        ranks.add(numerics.matrix_rank(A))
    assert ranks == set(range(9))
    for bad in (np.array([[1.0, np.nan]]), np.array([[np.inf, 0.0]]),
                np.ones(3)):
        with pytest.raises(ValueError):
            scipy.linalg.svdvals(bad)
        with pytest.raises(ValueError):
            numerics.matrix_rank(bad)
    def no_convergence(A, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(np.linalg.LinAlgError):
        numerics.matrix_rank(np.eye(2))


def test_spectral_radius_known_values():
    assert numerics.spectral_radius(np.diag([0.3, -0.9, 0.1])) == pytest.approx(0.9)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert numerics.spectral_radius(rot) == pytest.approx(1.0)
    # nilpotent: all eigenvalues zero
    assert numerics.spectral_radius(np.triu(np.ones((4, 4)), 1)) == pytest.approx(0.0)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(ValueError):
        numerics.spectral_radius(np.ones((2, 3)))
