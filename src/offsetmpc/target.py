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
        return pair


class TargetCalculator:
    def __init__(self, model, dist, u_bounds=None, x_bounds=None, T=None):
        """u_bounds/x_bounds are optional (lb, ub) arrays in deviation
        coordinates, used only to count unattainable targets in
        self.excursions; targets are never clipped. The target matrix must
        be square: as many controlled outputs as inputs. T is
        target_map(model, dist), built here when None."""
        self.T = target_map(model, dist) if T is None else T
        self.n_x = model.n_x
        self.excursions = BoundExcursions()
        # the box: a target entry more than 1e-12 past its bound leaves it
        self.lo = np.full(self.T.shape[0], -np.inf)
        self.hi = np.full(self.T.shape[0], np.inf)
        for bounds, part in ((x_bounds, slice(None, self.n_x)),
                             (u_bounds, slice(self.n_x, None))):
            if bounds is not None:
                self.lo[part] = bounds[0] - 1e-12
                self.hi[part] = bounds[1] + 1e-12

    def solve(self, d_hat, r):
        sol = self.T @ np.concatenate([d_hat, r])
        return self.check(sol) or self.pair(sol)

    def pair(self, sol):
        """The pair sol = [x_bar; u_bar] as views of sol."""
        return TargetPair(sol[:self.n_x], sol[self.n_x:])

    def check(self, sol):
        """The pair of sol, built and counted in self.excursions only when
        it leaves the box; None when it stays inside."""
        if ((sol < self.lo) | (sol > self.hi)).any():
            return self.excursions.add(self.pair(sol))
        return None


def target_map(model, dist):
    """T with [x_bar; u_bar] = T [d; r]: the target equations
    [[A - I, B], [H C, 0]] [x_bar; u_bar] = [-B_d d; r - H C_d d] have a
    fixed matrix and a right-hand side linear in (d, r), so one LU solve
    per loop gives the whole map. Raises SingularTarget when the target
    matrix is rank-deficient."""
    if model.n_z != model.n_u:
        raise model_mod.DimensionMismatch(
            f"target needs n_z == n_u, got n_z={model.n_z}, n_u={model.n_u}")
    n_x, n_u, n_z = model.n_x, model.n_u, model.n_z
    M = np.block([
        [model.A - np.eye(n_x), model.B],
        [model.H @ model.C, np.zeros((n_z, n_u))],
    ])
    if numerics.matrix_rank(M) < M.shape[0]:
        raise SingularTarget("target matrix rank-deficient")
    try:
        lu = numerics.lu(M)
    except numerics.SingularMatrix as exc:
        raise SingularTarget(str(exc)) from exc
    rhs = np.block([
        [-dist.B_d, np.zeros((n_x, n_z))],
        [-model.H @ dist.C_d, np.eye(n_z)],
    ])
    return numerics.lu_solve(lu, rhs)
