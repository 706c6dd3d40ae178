"""Linear prediction model, integrating-disturbance model, and the
structural checks offset-free tracking rests on.

All model data live in deviation coordinates around the operating point.
Gain matrices follow the estimator update convention

    x_next = A x + B u + Bd d + L_x (y - y_p)
    d_next =           d      + L_d (y - y_p)

i.e. the correction adds L*(predicted - measured). Stable gains in this
convention are the negatives of textbook Luenberger gains.
"""

import numpy as np

from . import numerics


class DimensionMismatch(Exception):
    pass


class UnstableEstimator(Exception):
    """Gain set whose error matrix has spectral radius >= 1."""

    def __init__(self, spectral_radius):
        super().__init__(f"error matrix spectral radius {spectral_radius:.6f} >= 1")
        self.spectral_radius = spectral_radius


class SingularClosedLoop(Exception):
    """(I - A - B k_un) singular; the offset-free test is undefined."""


class LinearModel:
    """Discrete LTI model x+ = Ax + Bu, y = Cx, z = Hy, sample time dt.

    Construction verifies H has full row rank, (A, B) is controllable and
    (C, A) is observable via Kalman rank matrices.
    """

    def __init__(self, A, B, C, H, dt):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        # C order: the compiled log row reads H as a raw buffer
        self.H = np.atleast_2d(np.asarray(H, dtype=float, order="C"))
        self.dt = float(dt)
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        n_x = self.A.shape[0]
        if self.A.shape != (n_x, n_x):
            raise DimensionMismatch("A must be square")
        if self.B.shape[0] != n_x:
            raise DimensionMismatch("B row count != n_x")
        if self.C.shape[1] != n_x:
            raise DimensionMismatch("C column count != n_x")
        if self.H.shape[1] != self.C.shape[0]:
            raise DimensionMismatch("H column count != n_y")
        if numerics.matrix_rank(self.H) != self.H.shape[0]:
            raise ValueError("H must have full row rank")
        ctrb = np.hstack([np.linalg.matrix_power(self.A, i) @ self.B
                          for i in range(n_x)])
        if numerics.matrix_rank(ctrb) != n_x:
            raise ValueError("(A, B) not controllable")
        obsv = np.vstack([self.C @ np.linalg.matrix_power(self.A, i)
                          for i in range(n_x)])
        if numerics.matrix_rank(obsv) != n_x:
            raise ValueError("(C, A) not observable")

    @property
    def n_x(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]

    @property
    def n_z(self):
        return self.H.shape[0]


class DisturbanceModel:
    """Integrating disturbance entry matrices (B_d into the state update,
    C_d into the measurement)."""

    def __init__(self, B_d, C_d):
        self.B_d = np.atleast_2d(np.asarray(B_d, dtype=float))
        self.C_d = np.atleast_2d(np.asarray(C_d, dtype=float))
        if self.B_d.shape[1] != self.C_d.shape[1]:
            raise DimensionMismatch("B_d and C_d disagree on n_d")
        # more disturbance states than measurements cannot be estimated
        if self.n_d > self.C_d.shape[0]:
            raise ValueError("n_d must be <= n_y")

    @property
    def n_d(self):
        return self.B_d.shape[1]


class EstimatorGains:
    """Correction gains (L_x, L_d), validated against a model: the error
    matrix [[A+LxC, Bd+LxCd],[LdC, I+LdCd]] must be a contraction."""

    def __init__(self, L_x, L_d, model, dist):
        self.L_x = np.atleast_2d(np.asarray(L_x, dtype=float))
        self.L_d = np.atleast_2d(np.asarray(L_d, dtype=float))
        if self.L_x.shape != (model.n_x, model.n_y):
            raise DimensionMismatch("L_x must be n_x x n_y")
        if self.L_d.shape != (dist.n_d, model.n_y):
            raise DimensionMismatch("L_d must be n_d x n_y")
        rho = numerics.spectral_radius(
            estimator_error_matrix(model, dist, self))
        if not rho < 1.0:
            raise UnstableEstimator(rho)
        self.spectral_radius = rho


def check_augmented_observability(model, dist):
    """Rank test of [[A-I, B_d],[C, C_d]]; the augmented pair is observable
    exactly when this matrix has full column rank n_x + n_d."""
    M = np.block([
        [model.A - np.eye(model.n_x), dist.B_d],
        [model.C, dist.C_d],
    ])
    rank = numerics.matrix_rank(M)
    return {"holds": rank == model.n_x + dist.n_d, "rank": rank}


def estimator_error_matrix(model, dist, gains):
    """Homogeneous part of the estimate-error recursion."""
    return np.block([
        [model.A + gains.L_x @ model.C, dist.B_d + gains.L_x @ dist.C_d],
        [gains.L_d @ model.C, np.eye(dist.n_d) + gains.L_d @ dist.C_d],
    ])


def check_lemma1_nonsingularity(model, dist, gains):
    """Nonsingularity of the steady-state back-calculation matrix.

    Precondition: the error matrix is a contraction (enforced by
    EstimatorGains, which stores its spectral radius); under it this must
    come back true, so a false return flags an internal inconsistency rather
    than a valid configuration.
    """
    if not gains.spectral_radius < 1.0:
        raise UnstableEstimator(gains.spectral_radius)
    try:
        numerics.lu(steady_io_matrix(model, dist, gains))
    except numerics.SingularMatrix:
        return False
    return True


def steady_io_matrix(model, dist, gains):
    """Coefficient matrix of the steady-state estimate equations
    [[A-I+LxC, Bd+LxCd],[LdC, LdCd]]."""
    return np.block([
        [model.A - np.eye(model.n_x) + gains.L_x @ model.C,
         dist.B_d + gains.L_x @ dist.C_d],
        [gains.L_d @ model.C, gains.L_d @ dist.C_d],
    ])


def check_offset_free_condition(model, gains, k_un):
    """Holds iff every direction the disturbance update is blind to is also
    invisible in the controlled outputs.

    Tests ||H (I - C (I - A - B k_un)^{-1} L_x) v||_inf <= 1e-8 for an
    orthonormal basis V of null(L_d); vacuously true for trivial null space.
    Returns {"holds", "residual"}.
    """
    k_un = np.atleast_2d(np.asarray(k_un, dtype=float))
    E = np.eye(model.n_x) - model.A - model.B @ k_un
    try:
        E_inv_Lx = numerics.solve_linear(E, gains.L_x)
    except numerics.SingularMatrix as exc:
        raise SingularClosedLoop(str(exc)) from exc
    # null-space basis of L_d by SVD, threshold relative to sigma_max
    u, s, vt = np.linalg.svd(gains.L_d)
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > 1e-9 * smax)) if smax > 0 else 0
    V = vt[rank:].T
    if V.shape[1] == 0:
        return {"holds": True, "residual": 0.0}
    G = model.H @ (np.eye(model.n_y) - model.C @ E_inv_Lx)
    resid = float(np.abs(G @ V).max())
    return {"holds": resid <= 1e-8, "residual": resid}
