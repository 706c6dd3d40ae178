"""Steady-state target problem: map a disturbance estimate and a reference
to the (x_bar, u_bar) pair the controller should settle at."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as model_mod
from . import numerics


class SingularTarget(Exception):
    """Target matrix rank-deficient: reference unreachable."""


@dataclass(eq=False, repr=False)
class TargetPair:
    x_bar: np.ndarray
    u_bar: np.ndarray

    def text(self, fmt="%.17g"):
        return "u_bar %s x_bar %s" % (" ".join(fmt % v for v in self.u_bar),
                                      " ".join(fmt % v for v in self.x_bar))


@dataclass(eq=False, repr=False)
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
    def __init__(self, model, dist):
        """The target map T = target_map(model, dist). The target matrix
        must be square: as many controlled outputs as inputs."""
        self.T = target_map(model, dist)
        self.n_x = model.n_x

    def solve(self, d_hat, r):
        """The pair [x_bar; u_bar] = T [d_hat; r], never clipped."""
        sol = self.T @ np.concatenate([d_hat, r])
        return TargetPair(sol[:self.n_x], sol[self.n_x:])


def target_map(model, dist):
    """T with [x_bar; u_bar] = T [d; r]: the target equations
    [[A - I, B], [H C, 0]] [x_bar; u_bar] = [-B_d d; r - H C_d d] have a
    fixed matrix and a right-hand side linear in (d, r), so one LU solve
    per command gives the whole map. Raises SingularTarget when the target
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
