"""Nonlinear CSTR ground truth: exothermic first-order reaction in a
cylindrical tank with level dynamics, stepped by classical RK4 in one
call of the kernel advance (see kernels.py), which NonlinearPlant.step
alone makes: step(s, u, p, dt) is one step of a NonlinearPlant at a zero
operating point.

States are concentration c (kmol/m3), temperature T (K), level h (m);
inputs are coolant temperature T_c (K) and outlet flow F (m3/min). The
structural mismatch against the linear control model is injected through
outlet_factor, which scales F wherever it enters the dynamics (the level
equation).
"""

import dataclasses
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels


class NonPhysicalState(Exception):
    pass


class UnknownEvent(Exception):
    pass


@dataclass(frozen=True)
class CstrParams:
    F0: float = 0.1          # feed flow, m3/min
    T0: float = 350.0        # feed temperature, K
    c0: float = 1.0          # feed concentration, kmol/m3
    r: float = 0.219         # tank radius, m
    k0: float = 7.2e10       # rate pre-exponential, 1/min
    E_over_R: float = 8750.0 # activation temperature, K
    U: float = 54.94         # heat transfer coefficient, kJ/min m2 K
    rho: float = 1000.0      # density, kg/m3
    Cp: float = 0.239        # heat capacity, kJ/kg K
    dH: float = -5e4         # reaction enthalpy, kJ/kmol (exothermic)
    outlet_factor: float = 1.0
    substeps: int = 20

    def __post_init__(self):
        positive = ("F0", "T0", "c0", "r", "k0", "E_over_R", "U", "rho",
                    "Cp", "outlet_factor")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.dH < 0:
            raise ValueError("dH must be < 0 (exothermic)")
        # a count of substeps: a float, even 3.0, or a bool is not one,
        # while a numpy integer is
        if (isinstance(self.substeps, bool)
                or not isinstance(self.substeps, numbers.Integral)):
            raise ValueError(f"substeps must be an integer, got "
                             f"{self.substeps!r}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    @property
    def area(self):
        return np.pi * self.r ** 2

    @functools.cached_property
    def rk4_constants(self):
        """The parameters and combinations of them that the RK4 step
        reads, computed once, since the dataclass is frozen: the read-only
        float64 buffer [F0, T0, c0, k0, -E_over_R, area, rxn, jacket,
        outlet_factor, substeps] that the kernel advance takes."""
        constants = np.array(
            [self.F0, self.T0, self.c0, self.k0, -self.E_over_R, self.area,
             self.dH / (self.rho * self.Cp),
             2.0 * self.U / (self.r * self.rho * self.Cp),
             self.outlet_factor, self.substeps],
            dtype=float)
        constants.flags.writeable = False
        return constants


@dataclass(frozen=True)
class PlantState:
    c: float
    T: float
    h: float

    def __post_init__(self):
        if not kernels._in_region(self.c, self.T, self.h):
            raise _left_region(self.c, self.T, self.h)

    def as_array(self):
        return np.array([self.c, self.T, self.h])


@dataclass(frozen=True, eq=False, repr=False)
class OperatingPoint:
    x_ss: np.ndarray         # (c, T, h)
    u_ss: np.ndarray         # (T_c, F)

    def __post_init__(self):
        # read-only float64 copies, the buffers that the kernel advance
        # reads, so a list or an integer array steps as floats do
        for name, n in (("x_ss", 3), ("u_ss", 2)):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got "
                                 f"{v.shape}")
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def _left_region(c, T, h):
    return NonPhysicalState(
        f"state ({float(c)}, {float(T)}, {float(h)}) left the physical region")


def derivatives(s, u, p):
    """The right-hand side (dc, dT, dh) at state s and inputs u = (T_c, F):
    kernels._rates and the level balance, from the constants that step
    reads.
    Each balance keeps the association and evaluation order of the array
    form that tests/test_plant.py holds as the reference, so the two agree
    bit for bit."""
    Tc, F = (float(v) for v in u)
    c, T, h = float(s.c), float(s.T), float(s.h)
    F0, T0, c0, k0, neg_E, area, rxn, jacket, outlet, _ = (
        p.rk4_constants.tolist())
    rates = kernels._rates(c, T, h, Tc, F0, T0, c0, k0, neg_E, area, rxn,
                           jacket)
    if rates is None:
        raise _left_region(c, T, h)
    return np.array([*rates, (F0 - outlet * F) / area])


class NonlinearPlant:
    """CSTR truth in deviation coordinates around an operating point. The
    plant owns two float64 buffers, its state [c, T, h] and its
    measurement y_p = [c, T, h] - x_ss, and a step is one call of the
    kernel advance (or its Python form, see kernels.load), which steps
    both in place. measure() returns the measurement buffer itself, valid
    until the next step. state builds a PlantState of the buffer on
    demand. A step that leaves the physical region raises NonPhysicalState
    and writes neither buffer, so state stays the last good state."""

    def __init__(self, state, params, op, dt=1.0):
        if not dt > 0:
            raise ValueError("dt must be > 0")
        self.params = params
        self.op = op
        self.dt = dt
        self._x = np.array([state.c, state.T, state.h], dtype=float)
        self._y = self._x - op.x_ss

    @property
    def state(self):
        return PlantState(*self._x.tolist())

    def measure(self):
        return self._y

    def step(self, u_dev):
        left = (kernels.active or kernels.load()).advance(
            self._x, self._y, np.ascontiguousarray(u_dev, dtype=float),
            self.op.u_ss, self.op.x_ss, self.params.rk4_constants, self.dt)
        if left is not True:
            raise _left_region(*left)

    def apply_event(self, event):
        self.params = apply_event(self.params, event)


# the operating point of a one-shot step: its input and state are absolute
_ZERO_OP = OperatingPoint(np.zeros(3), np.zeros(2))


def step(s, u, p, dt):
    """Classical RK4 with dt/substeps internal step: the state after dt
    from s at the absolute inputs u, one step of a NonlinearPlant at a
    zero operating point."""
    plant = NonlinearPlant(s, p, _ZERO_OP, dt)
    plant.step(u)
    return plant.state


def apply_event(p, event):
    """New params with the overrides in event ({field: value}) applied."""
    fields = {f.name for f in dataclasses.fields(CstrParams)}
    for key in event:
        if key not in fields:
            raise UnknownEvent(f"unknown plant parameter {key!r}")
    return dataclasses.replace(p, **event)


def steady_height(c, T, p):
    """Level at which the species balance closes for a given (c, T)."""
    kT = p.k0 * np.exp(-p.E_over_R / T)
    return p.F0 * (p.c0 - c) / (kT * c * p.area)
