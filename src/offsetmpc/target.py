"""Steady-state target problem: map a disturbance estimate and a reference
to the (x_bar, u_bar) pair the controller should settle at."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as model_mod
from . import numerics


class SingularTarget(Exception):
    """Target matrix rank-deficient: reference unreachable."""


@dataclass
class TargetPair:
    x_bar: np.ndarray
    u_bar: np.ndarray

    def text(self, fmt="%.17g"):
        return "u_bar %s x_bar %s" % (" ".join(fmt % v for v in self.u_bar),
                                      " ".join(fmt % v for v in self.x_bar))


@dataclass
class BoundExcursions:
    """Targets that left the input or state box: how many, and the first
    and the last of them."""
    count: int = 0
    first: Optional[TargetPair] = None
    last: Optional[TargetPair] = None

    def add(self, pair):
        self.count += 1
        if self.first is None:
            self.first = pair
        self.last = pair


class TargetCalculator:
    def __init__(self, model, dist, u_bounds=None, x_bounds=None):
        """u_bounds/x_bounds are optional (lb, ub) arrays in deviation
        coordinates, used only to count unattainable targets in
        self.excursions; targets are never clipped. The target matrix must
        be square: as many controlled outputs as inputs."""
        if model.n_z != model.n_u:
            raise model_mod.DimensionMismatch(
                f"target needs n_z == n_u, got n_z={model.n_z}, n_u={model.n_u}")
        self.model = model
        self.dist = dist
        self.u_bounds = u_bounds
        self.x_bounds = x_bounds
        self.excursions = BoundExcursions()
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
        if self._outside(pair):
            self.excursions.add(pair)
        return pair

    def _outside(self, pair):
        for bounds, v in ((self.u_bounds, pair.u_bar),
                          (self.x_bounds, pair.x_bar)):
            if bounds is not None and (np.any(v < bounds[0] - 1e-12)
                                       or np.any(v > bounds[1] + 1e-12)):
                return True
        return False
