"""Nonlinear CSTR ground truth: exothermic first-order reaction in a
cylindrical tank with level dynamics, stepped by classical RK4 on Python
floats.

States are concentration c (kmol/m3), temperature T (K), level h (m);
inputs are coolant temperature T_c (K) and outlet flow F (m3/min). The
structural mismatch against the linear control model is injected through
outlet_factor, which scales F wherever it enters the dynamics (the level
equation); an alternative reading that perturbs the species balance instead
is available as concentration_mismatch (default off).
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


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
    concentration_mismatch: bool = False

    def __post_init__(self):
        positive = ("F0", "T0", "c0", "r", "k0", "E_over_R", "U", "rho",
                    "Cp", "outlet_factor")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.dH < 0:
            raise ValueError("dH must be < 0 (exothermic)")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    @property
    def area(self):
        return np.pi * self.r ** 2


@dataclass(frozen=True)
class PlantState:
    c: float
    T: float
    h: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.c, self.T, self.h)):
            raise _left_region(self.c, self.T, self.h)

    def as_array(self):
        return np.array([self.c, self.T, self.h])


@dataclass(frozen=True)
class OperatingPoint:
    x_ss: np.ndarray         # (c, T, h)
    u_ss: np.ndarray         # (T_c, F)


def default_operating_point():
    return OperatingPoint(np.array([0.878, 324.5, 0.659]),
                          np.array([300.0, 0.1]))


def _left_region(c, T, h):
    return NonPhysicalState(
        f"state ({float(c)}, {float(T)}, {float(h)}) left the physical region")


def derivatives(s, u, p):
    """The right-hand side (dc, dT, dh) at state s and inputs u = (T_c, F).

    Each balance keeps the association and evaluation order of the array
    form that tests/test_plant.py holds as the reference, and the
    Arrhenius factor uses numpy's exp, not math.exp, which can differ in
    the last bit; so the two agree bit for bit. step writes the same
    expressions out for each RK4 stage.
    """
    Tc, F = (float(v) for v in u)
    c, T, h = float(s.c), float(s.T), float(s.h)
    area = p.area
    V = area * h
    # a level so small that the volume underflows to 0 is not physical
    if not (0.0 < c < math.inf and 0.0 < T < math.inf and 0.0 < h < math.inf
            and V > 0.0):
        raise _left_region(c, T, h)
    kT = p.k0 * float(np.exp(-p.E_over_R / T))
    dc = p.F0 * (p.c0 - c) / V - kT * c
    if p.concentration_mismatch:
        # alternative mismatch: outlet stream carries 1.03x the bulk
        # concentration, which adds an extra outlet term to the balance
        dc -= 0.03 * F * c / V
    dT = (p.F0 * (p.T0 - T) / V - p.dH / (p.rho * p.Cp) * kT * c
          + 2.0 * p.U / (p.r * p.rho * p.Cp) * (Tc - T))
    dh = (p.F0 - p.outlet_factor * F) / area
    return np.array([dc, dT, dh])


def step(s, u, p, dt):
    """Classical RK4 with dt/substeps internal step, on Python floats.

    The four stages are derivatives' expressions written out, with the
    constants computed once per call and the same check of the stage's
    input state before each stage; PlantState checks the last state.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    Tc, F = (float(v) for v in u)
    F0, T0, c0, k0, E_over_R = p.F0, p.T0, p.c0, p.k0, p.E_over_R
    area = p.area
    rxn = p.dH / (p.rho * p.Cp)
    jacket = 2.0 * p.U / (p.r * p.rho * p.Cp)
    extra_outlet = 0.03 * F if p.concentration_mismatch else None
    # the level rate does not depend on the state
    dh = (F0 - p.outlet_factor * F) / area
    exp = np.exp
    inf = math.inf
    c, T, h = float(s.c), float(s.T), float(s.h)
    hstep = float(dt) / p.substeps
    half = 0.5 * hstep
    sixth = hstep / 6.0
    # the level rate is the same in every stage, and so are the level's
    # increments: to stages 2 and 3, to stage 4, and over the substep
    h_half = half * dh
    h_full = hstep * dh
    h_next = sixth * (dh + 2.0 * dh + 2.0 * dh + dh)
    for _ in range(p.substeps):
        V = area * h
        if not (0.0 < c < inf and 0.0 < T < inf and 0.0 < h < inf
                and V > 0.0):
            raise _left_region(c, T, h)
        kT = k0 * float(exp(-E_over_R / T))
        dc1 = F0 * (c0 - c) / V - kT * c
        if extra_outlet is not None:
            dc1 -= extra_outlet * c / V
        dT1 = F0 * (T0 - T) / V - rxn * kT * c + jacket * (Tc - T)

        c2, T2, h2 = c + half * dc1, T + half * dT1, h + h_half
        V = area * h2
        if not (0.0 < c2 < inf and 0.0 < T2 < inf and 0.0 < h2 < inf
                and V > 0.0):
            raise _left_region(c2, T2, h2)
        kT = k0 * float(exp(-E_over_R / T2))
        dc2 = F0 * (c0 - c2) / V - kT * c2
        if extra_outlet is not None:
            dc2 -= extra_outlet * c2 / V
        dT2 = F0 * (T0 - T2) / V - rxn * kT * c2 + jacket * (Tc - T2)

        c3, T3, h3 = c + half * dc2, T + half * dT2, h + h_half
        V = area * h3
        if not (0.0 < c3 < inf and 0.0 < T3 < inf and 0.0 < h3 < inf
                and V > 0.0):
            raise _left_region(c3, T3, h3)
        kT = k0 * float(exp(-E_over_R / T3))
        dc3 = F0 * (c0 - c3) / V - kT * c3
        if extra_outlet is not None:
            dc3 -= extra_outlet * c3 / V
        dT3 = F0 * (T0 - T3) / V - rxn * kT * c3 + jacket * (Tc - T3)

        c4, T4, h4 = c + hstep * dc3, T + hstep * dT3, h + h_full
        V = area * h4
        if not (0.0 < c4 < inf and 0.0 < T4 < inf and 0.0 < h4 < inf
                and V > 0.0):
            raise _left_region(c4, T4, h4)
        kT = k0 * float(exp(-E_over_R / T4))
        dc4 = F0 * (c0 - c4) / V - kT * c4
        if extra_outlet is not None:
            dc4 -= extra_outlet * c4 / V
        dT4 = F0 * (T0 - T4) / V - rxn * kT * c4 + jacket * (Tc - T4)

        c = c + sixth * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)
        T = T + sixth * (dT1 + 2.0 * dT2 + 2.0 * dT3 + dT4)
        h = h + h_next
    return PlantState(c, T, h)


def measure(s, op):
    """Full-state measurement in deviation coordinates."""
    return np.array([s.c, s.T, s.h]) - op.x_ss


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
