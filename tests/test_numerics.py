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


def test_cho_solve_matches_lapack_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        R = rng.normal(size=(n, n))
        A = R @ R.T + 0.1 * np.eye(n)
        L = numerics.cholesky(A)
        assert np.allclose(L @ L.T, A, atol=1e-12)
        b, B = rng.normal(size=n), rng.normal(size=(n, 3))
        assert np.allclose(numerics.cho_solve(L, b), np.linalg.solve(A, b),
                           atol=1e-9)
        assert np.allclose(numerics.cho_solve(L, B), np.linalg.solve(A, B),
                           atol=1e-9)


def test_cholesky_rejects_indefinite():
    for A in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2))):
        with pytest.raises(numerics.SingularMatrix):
            numerics.cholesky(A)


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


def ref_matrix_rank(A, tol=numerics.RANK_RTOL):
    """The scipy.linalg.svdvals form that matrix_rank replaced."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0
    s = scipy.linalg.svdvals(A)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


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
    monkeypatch.setattr(numerics, "_gesdd",
                        lambda A, compute_uv: (None, np.ones(1), None, 1))
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
