"""Steady-state target problem: map a disturbance estimate and a reference
to the (x_bar, u_bar) pair the controller should settle at."""

import logging
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import numerics

log = logging.getLogger(__name__)


class SingularTarget(Exception):
    """Target matrix rank-deficient: reference unreachable."""


@dataclass
class TargetPair:
    x_bar: np.ndarray
    u_bar: np.ndarray


class TargetCalculator:
    def __init__(self, model, dist, u_bounds=None, x_bounds=None):
        """u_bounds/x_bounds are optional (lb, ub) arrays in deviation
        coordinates, used only to warn about unattainable targets. The
        target matrix must be square: as many controlled outputs as inputs."""
        if model.n_z != model.n_u:
            raise model_mod.DimensionMismatch(
                f"target needs n_z == n_u, got n_z={model.n_z}, n_u={model.n_u}")
        self.model = model
        self.dist = dist
        self.u_bounds = u_bounds
        self.x_bounds = x_bounds
        self._warned = set()
        n_x, n_u, n_z = model.n_x, model.n_u, model.n_z
        self.M = np.block([
            [model.A - np.eye(n_x), model.B],
            [model.H @ model.C, np.zeros((n_z, n_u))],
        ])
        if numerics.matrix_rank(self.M) < self.M.shape[0]:
            raise SingularTarget("target matrix rank-deficient")
        try:
            self._lu = numerics.lu(self.M)
        except numerics.SingularMatrix as exc:
            raise SingularTarget(str(exc)) from exc

    def rhs(self, d_hat, r):
        d_hat = np.asarray(d_hat, dtype=float)
        r = np.asarray(r, dtype=float)
        return np.concatenate([
            -self.dist.B_d @ d_hat,
            r - self.model.H @ self.dist.C_d @ d_hat,
        ])

    def solve(self, d_hat, r):
        sol = numerics.lu_solve(self._lu, self.rhs(d_hat, r))
        n_x = self.model.n_x
        pair = TargetPair(sol[:n_x], sol[n_x:])
        self._warn_if_outside(pair)
        return pair

    def _warn_if_outside(self, pair):
        # dedupe on the rounded target so a persistent excursion logs once
        if self.u_bounds is not None:
            lb, ub = self.u_bounds
            if np.any(pair.u_bar < lb - 1e-12) or np.any(pair.u_bar > ub + 1e-12):
                key = ("u",) + tuple(np.round(pair.u_bar, 3))
                if key not in self._warned:
                    self._warned.add(key)
                    log.warning("target input outside bounds: %s", pair.u_bar)
        if self.x_bounds is not None:
            lb, ub = self.x_bounds
            if np.any(pair.x_bar < lb - 1e-12) or np.any(pair.x_bar > ub + 1e-12):
                key = ("x",) + tuple(np.round(pair.x_bar, 3))
                if key not in self._warned:
                    self._warned.add(key)
                    log.warning("target state outside bounds: %s", pair.x_bar)
