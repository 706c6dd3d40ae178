"""Disturbance estimator: one update with an exogenous learned disturbance
(zero in nominal mode) and a supplementary disturbance state, and direct
steady-state back-calculation from plant I/O."""

from dataclasses import dataclass

import numpy as np

from . import kernels, numerics
from .model import estimator_error_matrix, steady_io_matrix


@dataclass(eq=False, repr=False)
class AugmentedEstimate:
    """x_hat and d_hat as views of the stacked estimate w = [x_hat; d_hat],
    which the next update multiplies."""
    x_hat: np.ndarray
    d_hat: np.ndarray

    def __post_init__(self):
        x_hat = np.asarray(self.x_hat, dtype=float).reshape(-1)
        d_hat = np.asarray(self.d_hat, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(x_hat)) and np.all(np.isfinite(d_hat))):
            raise ValueError("non-finite estimate")
        self.w = np.concatenate([x_hat, d_hat])
        self.x_hat, self.d_hat = self.w[:x_hat.size], self.w[x_hat.size:]

    @classmethod
    def split(cls, w, n_x):
        """x_hat = w[:n_x], d_hat = w[n_x:] as views of w, without
        __post_init__: the caller has checked that w is finite."""
        est = cls.__new__(cls)
        est.w = w
        est.x_hat, est.d_hat = w[:n_x], w[n_x:]
        return est


class DisturbanceEstimator:
    """Holds (model, dist, gains) and exposes the update maps.

    Updates are pure: estimate in, new estimate out. All vectors are in
    deviation coordinates; zero initial estimates correspond to starting
    at the operating point.
    """

    def __init__(self, model, dist, gains):
        self.model = model
        self.dist = dist
        self.gains = gains
        self.M_err = estimator_error_matrix(model, dist, gains)
        # [x; d] = M_io [y_p; u] at steady state; lu raises SingularMatrix
        # when the steady map is singular
        self.M_io = numerics.lu_solve(
            numerics.lu(steady_io_matrix(model, dist, gains)),
            np.block([[gains.L_x, -model.B],
                      [gains.L_d, np.zeros((dist.n_d, model.n_u))]]))
        # w+ = M_step [w; u; y_p; d_learned]: the error dynamics, the
        # input, the output injection and the forcing of an exogenous
        # learned disturbance side by side
        self.M_step = np.block([
            [self.M_err,
             np.vstack([model.B, np.zeros((dist.n_d, model.n_u))]),
             -np.vstack([gains.L_x, gains.L_d]),
             np.vstack([dist.B_d + gains.L_x @ dist.C_d,
                        gains.L_d @ dist.C_d])]])
        self.M_step.flags.writeable = False

    def learned_step(self, est, u, y_p, d_learned):
        """One update; the nominal estimator is this with d_learned = 0.
        Its w is the kernel interval's, bit for bit: the same product
        M_step [w; u; y_p; d_learned], summed left to right. Raises
        ValueError when the new estimate is not finite."""
        w = kernels._product(self.M_step,
                             np.concatenate([est.w, u, y_p, d_learned]))
        if not np.isfinite(w).all():
            raise ValueError("non-finite estimate")
        return AugmentedEstimate.split(w, self.model.n_x)

    def steady_state_from_io(self, y_p_inf, u_inf):
        """Invert the steady-state estimate equations for constant (y_p, u).

        [[A-I+LxC, Bd+LxCd],[LdC, LdCd]] [x; d] = [Lx y_p - B u; Ld y_p]
        is linear in (y_p, u), so the solution is the fixed map
        M_io [y_p; u]. Raises ValueError when it is not finite.
        """
        sol = self.M_io @ np.concatenate([y_p_inf, u_inf])
        if not np.isfinite(sol).all():
            raise ValueError("non-finite estimate")
        return AugmentedEstimate.split(sol, self.model.n_x)
