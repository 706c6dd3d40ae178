import importlib.machinery
import itertools
import math
import os
import subprocess
import types
import warnings

import numpy as np
import pytest

from offsetmpc import closed_loop as cl
from offsetmpc import kernels, plant


@pytest.fixture
def step_both(compiled_kernels, monkeypatch):
    """plant.step through the compiled advance and through _advance_python,
    the step it reproduces: the two must give the same state bit for bit, or
    raise the same NonPhysicalState message, which the returned function
    then returns or raises."""
    def outcome(active, s, u, p, dt):
        """(the state or the exception, the floats or the message)"""
        monkeypatch.setattr(kernels, "active", active)
        try:
            got = plant.step(s, u, p, dt)
        except plant.NonPhysicalState as exc:
            return exc, str(exc)
        return got, (got.c, got.T, got.h)

    def step(s, u, p, dt):
        got, key = outcome(compiled_kernels, s, u, p, dt)
        _, oracle_key = outcome(kernels.PYTHON_KERNELS, s, u, p, dt)
        assert key == oracle_key, (s, u, p, dt)
        if isinstance(got, Exception):
            raise got
        return got

    return step


def exact_equilibrium(c, T, p):
    """Closed-form equilibrium: h zeroes the mole balance, the outlet
    matches the feed, and the coolant temperature zeroes the heat balance."""
    h = plant.steady_height(c, T, p)
    V = p.area * h
    kT = p.k0 * math.exp(-p.E_over_R / T)
    q_rxn = -p.dH / (p.rho * p.Cp) * kT * c
    q_feed = p.F0 * (p.T0 - T) / V
    # jacket term: 2 U / (r rho Cp) (Tc - T) = -(q_feed + q_rxn)
    Tc = T - (q_feed + q_rxn) * (p.r * p.rho * p.Cp) / (2.0 * p.U)
    s = plant.PlantState(c=c, T=T, h=h)
    u = np.array([Tc, p.F0 / p.outlet_factor])
    return s, u


def test_default_parameters_are_validated():
    with pytest.raises(ValueError):
        plant.CstrParams(F0=-0.1)
    with pytest.raises(ValueError):
        plant.CstrParams(dH=1000.0)  # exothermic reaction expected
    with pytest.raises(ValueError):
        plant.CstrParams(substeps=0)


def test_state_positivity():
    with pytest.raises(plant.NonPhysicalState):
        plant.PlantState(c=-0.1, T=300.0, h=0.5)
    with pytest.raises(plant.NonPhysicalState):
        plant.PlantState(c=0.5, T=300.0, h=0.0)


def test_operating_point_is_near_equilibrium(tracking_rc):
    p = plant.CstrParams()
    op = tracking_rc.op
    s = plant.PlantState(*op.x_ss)
    dx = plant.derivatives(s, op.u_ss, p)
    assert np.abs(dx).max() < 1e-2


def test_level_balance_is_exact_at_matched_flows():
    p = plant.CstrParams()
    s = plant.PlantState(c=0.9, T=320.0, h=0.7)
    dx = plant.derivatives(s, np.array([300.0, p.F0]), p)
    assert dx[2] == 0.0


def test_mole_balance_zero_at_steady_height():
    p = plant.CstrParams()
    for c, T in [(0.878, 324.5), (0.85, 330.0), (0.9, 318.0)]:
        h = plant.steady_height(c, T, p)
        s = plant.PlantState(c=c, T=T, h=h)
        dx = plant.derivatives(s, np.array([300.0, p.F0]), p)
        assert abs(dx[0]) < 1e-14


def test_heat_balance_linear_in_heat_transfer_coefficient():
    s = plant.PlantState(c=0.878, T=324.5, h=0.659)
    u = np.array([300.0, 0.1])
    dTs = []
    for U in (50.0, 100.0, 150.0):
        p = plant.CstrParams(U=U)
        dTs.append(plant.derivatives(s, u, p)[1])
    assert dTs[2] - dTs[1] == pytest.approx(dTs[1] - dTs[0], abs=1e-12)


def test_exact_equilibrium_is_rk4_fixed_point(step_both):
    p = plant.CstrParams()
    s, u = exact_equilibrium(0.878, 324.5, p)
    assert np.abs(plant.derivatives(s, u, p)).max() < 5e-13
    s2 = step_both(s, u, p, 1.0)
    assert abs(s2.c - s.c) < 1e-9
    assert abs(s2.T - s.T) < 1e-9
    assert abs(s2.h - s.h) < 1e-9


def test_equilibrium_holds_over_long_horizon(step_both):
    p = plant.CstrParams()
    s, u = exact_equilibrium(0.878, 324.5, p)
    ref = s.as_array()
    for _ in range(100):
        s = step_both(s, u, p, 1.0)
    assert np.abs(s.as_array() - ref).max() < 1e-9


def test_outlet_mismatch_breaks_level_balance():
    p = plant.CstrParams(outlet_factor=1.03)
    s = plant.PlantState(c=0.878, T=324.5, h=0.659)
    dx = plant.derivatives(s, np.array([300.0, 0.1]), p)
    # 3% extra outflow drains the tank
    assert dx[2] == pytest.approx(-0.03 * 0.1 / p.area, rel=1e-12)


def test_integration_order_is_four(step_both):
    """Richardson step-halving on a transient: the dt^4 error law gives
    ratios near 16."""
    p = plant.CstrParams(substeps=1)
    s = plant.PlantState(c=0.9, T=320.0, h=0.7)
    u = np.array([295.0, 0.11])

    def advance(dt, n):
        st = s
        for _ in range(n):
            st = step_both(st, u, p, dt)
        return st.as_array()

    # base step small enough for the dt^4 term to dominate, large enough
    # to stay clear of round-off in the halved differences
    x1 = advance(0.125, 1)
    x2 = advance(0.0625, 2)
    x4 = advance(0.03125, 4)
    num = np.linalg.norm(x1 - x2)
    den = np.linalg.norm(x2 - x4)
    assert den > 0
    assert 12.0 <= num / den <= 20.0


def test_step_raises_when_tank_drains(step_both):
    p = plant.CstrParams(substeps=5)
    s = plant.PlantState(c=0.9, T=324.0, h=0.02)
    # maximum outlet flow against nominal feed empties 2 cm fast
    with pytest.raises(plant.NonPhysicalState):
        step_both(s, np.array([300.0, 0.13]), p, 10.0)


def test_measure_is_deviation_from_op(tracking_rc):
    """A new plant's measurement is its state less the operating point."""
    op, p = tracking_rc.op, tracking_rc.params
    at_op = plant.NonlinearPlant(plant.PlantState(*op.x_ss), p, op)
    assert np.array_equal(at_op.measure(), np.zeros(3))
    s2 = plant.PlantState(op.x_ss[0] + 0.01, op.x_ss[1] - 2.0, op.x_ss[2] + 0.1)
    off_op = plant.NonlinearPlant(s2, p, op)
    assert off_op.state == s2
    assert np.allclose(off_op.measure(), [0.01, -2.0, 0.1], atol=1e-12)


def test_apply_event_swaps_named_parameters():
    p = plant.CstrParams()
    p2 = plant.apply_event(p, {"k0": 6.2e10})
    assert p2.k0 == 6.2e10
    assert p2.F0 == p.F0 and p2.U == p.U
    assert p.k0 == 7.2e10  # original untouched


def test_apply_event_rejects_unknown_field():
    p = plant.CstrParams()
    with pytest.raises(plant.UnknownEvent):
        plant.apply_event(p, {"volume": 3.0})


@pytest.mark.parametrize("substeps", [2.5, 3.0, np.float64(3.0), True, False,
                                      "3", None],
                         ids=["2.5", "3.0", "float64", "True", "False", "str",
                              "None"])
def test_substeps_that_is_not_an_integer_is_rejected(substeps):
    """A count of RK4 substeps that is not an integer fails at construction,
    directly and through an event, rather than later in step (a float) or
    as one substep (True)."""
    with pytest.raises(ValueError, match="substeps must be an integer"):
        plant.CstrParams(substeps=substeps)
    with pytest.raises(ValueError, match="substeps must be an integer"):
        plant.apply_event(plant.CstrParams(), {"substeps": substeps})


@pytest.mark.parametrize("substeps", [3, np.int64(3)], ids=["int", "int64"])
def test_integer_substeps_step(substeps):
    """A Python or a numpy integer is a count; both step alike."""
    s, u = plant.PlantState(c=0.878, T=324.5, h=0.659), np.array([300.0, 0.1])
    for p in (plant.CstrParams(substeps=substeps),
              plant.apply_event(plant.CstrParams(), {"substeps": substeps})):
        assert plant.step(s, u, p, 1.0) == plant.step(
            s, u, plant.CstrParams(substeps=3), 1.0)


# The RK4 step in array form, kept as the reference: plant.step's scalar
# kernel must reproduce it bit for bit. exp gives the Arrhenius factor:
# math.exp, as plant.step takes it, or np.exp, as plant.step took it
# before (_step_reference_numpy_exp).
def _deriv_reference(x, u, p, exp=math.exp):
    c, T, h = x
    if not (np.isfinite(c) and np.isfinite(T) and np.isfinite(h)
            and c > 0 and T > 0 and h > 0):
        raise plant.NonPhysicalState(
            f"state ({c}, {T}, {h}) left the physical region")
    Tc, F = u
    V = p.area * h
    kT = p.k0 * exp(-p.E_over_R / T)
    dc = p.F0 * (p.c0 - c) / V - kT * c
    dT = (p.F0 * (p.T0 - T) / V
          - p.dH / (p.rho * p.Cp) * kT * c
          + 2.0 * p.U / (p.r * p.rho * p.Cp) * (Tc - T))
    dh = (p.F0 - p.outlet_factor * F) / p.area
    return np.array([dc, dT, dh])


def _step_reference(s, u, p, dt, exp=math.exp):
    u = np.asarray(u, dtype=float)
    x = s.as_array()
    hstep = dt / p.substeps
    for _ in range(p.substeps):
        k1 = _deriv_reference(x, u, p, exp)
        k2 = _deriv_reference(x + 0.5 * hstep * k1, u, p, exp)
        k3 = _deriv_reference(x + 0.5 * hstep * k2, u, p, exp)
        k4 = _deriv_reference(x + hstep * k3, u, p, exp)
        x = x + hstep / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (np.all(np.isfinite(x)) and np.all(x > 0)):
            raise plant.NonPhysicalState(
                f"state {tuple(x)} left the physical region")
    return plant.PlantState(x[0], x[1], x[2])


def _step_reference_numpy_exp(s, u, p, dt):
    """The array form with numpy's exp, which plant.step matched bit for
    bit before it took math.exp; the two exps differ in the last bit for
    some temperatures."""
    return _step_reference(s, u, p, dt, exp=np.exp)


# every combination of outlet factor, substeps and dt
ORACLE_CASES = list(itertools.product((1.0, 1.03, 0.9), (1, 20), (0.5, 1.0)))


def _oracle_draws():
    """1200 (i, state, inputs, params, dt) around the operating region,
    cycling through ORACLE_CASES."""
    rng = np.random.default_rng(4)
    for i in range(1200):
        outlet, substeps, dt = ORACLE_CASES[i % len(ORACLE_CASES)]
        p = plant.CstrParams(outlet_factor=outlet, substeps=substeps)
        s = plant.PlantState(c=rng.uniform(0.5, 1.0),
                             T=rng.uniform(310.0, 340.0),
                             h=rng.uniform(0.1, 1.2))
        u = np.array([rng.uniform(285.0, 315.0), rng.uniform(0.05, 0.15)])
        yield i, s, u, p, dt


def test_step_matches_array_reference_bit_for_bit(step_both):
    n_equal = 0
    for i, s, u, p, dt in _oracle_draws():
        assert np.array_equal(plant.derivatives(s, u, p),
                              _deriv_reference(s.as_array(), u, p))
        try:
            ref = _step_reference(s, u, p, dt)
        except plant.NonPhysicalState:
            with pytest.raises(plant.NonPhysicalState):
                step_both(s, u, p, dt)
            continue
        got = step_both(s, u, p, dt)
        assert (got.c, got.T, got.h) == (ref.c, ref.T, ref.h), (i, s, u)
        n_equal += 1
    assert n_equal >= 1000


def test_step_moves_from_the_numpy_exp_form_by_at_most_1e_13(step_both):
    """math.exp in place of numpy's exp moves a step's result by rounding
    alone: on these draws at most 1e-13 relative in each of c, T and h
    (14 of 3111 components moved, by at most 4.0e-15, on one machine),
    and a step leaves the physical region in one form exactly when it
    does in the other."""
    n_steps = 0
    for i, s, u, p, dt in _oracle_draws():
        try:
            old = _step_reference_numpy_exp(s, u, p, dt)
        except plant.NonPhysicalState:
            with pytest.raises(plant.NonPhysicalState):
                step_both(s, u, p, dt)
            continue
        got = step_both(s, u, p, dt)
        for g, o in ((got.c, old.c), (got.T, old.T), (got.h, old.h)):
            assert abs(g - o) <= 1e-13 * abs(o), (i, s, u, g, o)
        n_steps += 1
    assert n_steps >= 1000


# T at the smallest subnormal, far below and far above any physical value,
# each also with an activation temperature near the largest float: the
# Arrhenius exponent -E_over_R / T then lies between -inf and nearly 0,
# never above 0
@pytest.mark.parametrize("E_over_R", [8750.0, 1e308])
@pytest.mark.parametrize("T", [5e-324, 1e-300, 1e300])
def test_extreme_temperature_gives_a_state_or_leaves_the_region(
        T, E_over_R, step_both):
    p = plant.CstrParams(E_over_R=E_over_R)
    s = plant.PlantState(c=0.9, T=T, h=0.6)
    u = np.array([300.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = plant.derivatives(s, u, p)
        try:
            step_both(s, u, p, 1.0)
        except plant.NonPhysicalState:
            pass
    assert np.all(np.isfinite(rates))


@pytest.mark.parametrize("s, u, p, dt", [
    # the tank drains below zero level
    (plant.PlantState(c=0.9, T=324.0, h=0.02), np.array([300.0, 0.13]),
     plant.CstrParams(substeps=5), 10.0),
    # a hot coolant ignites the reaction and the concentration collapses
    (plant.PlantState(c=0.9, T=420.0, h=0.6), np.array([450.0, 0.1]),
     plant.CstrParams(substeps=1), 1.0),
    # a level so small that the volume underflows to zero
    (plant.PlantState(c=0.9, T=324.0, h=1e-323), np.array([300.0, 0.1]),
     plant.CstrParams(), 1.0),
], ids=["draining tank", "thermal runaway", "vanishing volume"])
def test_step_and_reference_both_leave_the_physical_region(s, u, p, dt,
                                                          step_both):
    # the array form divides by the zero volume before it raises
    with pytest.raises(plant.NonPhysicalState), np.errstate(divide="ignore"):
        _step_reference(s, u, p, dt)
    with pytest.raises(plant.NonPhysicalState, match=r"^state \([^()]*\) "
                       r"left the physical region$") as exc:
        step_both(s, u, p, dt)
    assert "np." not in str(exc.value)


# plant.step as it was written before its four stages were inlined: a
# derivative closure called once per stage. The second reference, for the
# stage at which a step leaves the physical region and the message it
# raises; `calls` counts the closure's calls, so a failure's stage is
# calls % 4 (4 for the last stage).
def _closure_rates(p, u, calls):
    Tc, F = (float(v) for v in u)
    F0, T0, c0, k0, E_over_R = p.F0, p.T0, p.c0, p.k0, p.E_over_R
    area = p.area
    rxn = p.dH / (p.rho * p.Cp)
    jacket = 2.0 * p.U / (p.r * p.rho * p.Cp)
    dh = (F0 - p.outlet_factor * F) / area

    def rates(c, T, h):
        calls.append(1)
        V = area * h
        if not (0.0 < c < math.inf and 0.0 < T < math.inf
                and 0.0 < h < math.inf and V > 0.0):
            raise plant.NonPhysicalState(
                f"state ({float(c)}, {float(T)}, {float(h)}) left the "
                f"physical region")
        kT = k0 * math.exp(-E_over_R / T)
        dc = F0 * (c0 - c) / V - kT * c
        dT = F0 * (T0 - T) / V - rxn * kT * c + jacket * (Tc - T)
        return dc, dT, dh

    return rates


def _closure_step_reference(s, u, p, dt, calls=None):
    rates = _closure_rates(p, u, [] if calls is None else calls)
    c, T, h = float(s.c), float(s.T), float(s.h)
    hstep = float(dt) / p.substeps
    half = 0.5 * hstep
    sixth = hstep / 6.0
    for _ in range(p.substeps):
        dc1, dT1, dh1 = rates(c, T, h)
        dc2, dT2, dh2 = rates(c + half * dc1, T + half * dT1, h + half * dh1)
        dc3, dT3, dh3 = rates(c + half * dc2, T + half * dT2, h + half * dh2)
        dc4, dT4, dh4 = rates(c + hstep * dc3, T + hstep * dT3,
                              h + hstep * dh3)
        c = c + sixth * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)
        T = T + sixth * (dT1 + 2.0 * dT2 + 2.0 * dT3 + dT4)
        h = h + sixth * (dh1 + 2.0 * dh2 + 2.0 * dh3 + dh4)
    return plant.PlantState(c, T, h)


# (state, inputs, params, dt, closure calls when the step fails): calls
# = 4 (substep - 1) + stage
STAGE_FAILURES = {
    "stage 2": (plant.PlantState(c=0.29, T=397.0, h=0.98), [492.0, 0.16],
                plant.CstrParams(substeps=1), 5.0, 2),
    "stage 3": (plant.PlantState(c=0.89, T=363.0, h=0.03), [462.0, 0.06],
                plant.CstrParams(substeps=1), 1.0, 3),
    "stage 4": (plant.PlantState(c=0.18, T=338.0, h=0.54), [379.0, 0.19],
                plant.CstrParams(substeps=1), 0.5, 4),
    "substep 4, stage 2": (plant.PlantState(c=0.28, T=301.0, h=0.65),
                           [438.0, 0.18], plant.CstrParams(), 2.0, 14),
    "substep 15, stage 3": (plant.PlantState(c=0.83, T=336.0, h=0.63),
                            [323.0, 0.09], plant.CstrParams(), 0.5, 59),
    "substep 10, stage 4": (plant.PlantState(c=0.83, T=333.0, h=0.38),
                            [350.0, 0.15], plant.CstrParams(), 0.5, 40),
    "end of substep 8": (plant.PlantState(c=0.4, T=301.0, h=0.27),
                         [373.0, 0.07], plant.CstrParams(), 1.0, 33),
    "draining tank, stage 2": (plant.PlantState(c=0.9, T=324.0, h=0.02),
                               [300.0, 0.13], plant.CstrParams(substeps=5),
                               10.0, 2),
    "draining tank, stage 4": (plant.PlantState(c=0.9, T=324.0, h=0.02),
                               [300.0, 0.13], plant.CstrParams(substeps=1),
                               0.12, 4),
    # every stage in the region, the last state not: PlantState raises
    "last state": (plant.PlantState(c=0.746, T=339.0, h=0.656),
                   [304.3, 0.185], plant.CstrParams(substeps=1), 1.0, 4),
}


@pytest.mark.parametrize("case", list(STAGE_FAILURES))
def test_step_fails_at_the_closure_forms_stage_with_its_message(case,
                                                                step_both):
    s, u, p, dt, calls = STAGE_FAILURES[case]
    made = []
    with pytest.raises(plant.NonPhysicalState) as want:
        _closure_step_reference(s, np.array(u), p, dt, made)
    assert len(made) == calls
    with pytest.raises(plant.NonPhysicalState) as got:
        step_both(s, np.array(u), p, dt)
    assert str(got.value) == str(want.value)


# ---- the compiled loop: built on first use, the Python loop its oracle ----

def _kernel_draws(n):
    """n (state, inputs, params, dt) cycling through ORACLE_CASES, from a
    range wide enough that about half the steps leave the physical region
    (10 864 of 20 000, at each of the four stages)."""
    rng = np.random.default_rng(19)
    for i in range(n):
        outlet, substeps, dt = ORACLE_CASES[i % len(ORACLE_CASES)]
        p = plant.CstrParams(outlet_factor=outlet, substeps=substeps)
        s = plant.PlantState(c=rng.uniform(0.1, 1.0),
                             T=rng.uniform(300.0, 350.0),
                             h=rng.uniform(0.02, 1.2))
        u = np.array([rng.uniform(270.0, 380.0), rng.uniform(0.02, 0.2)])
        yield s, u, p, dt


def test_compiled_loop_matches_the_python_loop_on_20000_draws(step_both):
    left = 0
    for s, u, p, dt in _kernel_draws(20000):
        try:
            step_both(s, u, p, dt)
        except plant.NonPhysicalState:
            left += 1
    assert 5000 <= left <= 15000


def _advance(fn, x, u, u_ss, x_ss, p, dt):
    """(what advance returns, x, y) of one call on a copy of x and a y of
    NaNs"""
    x, y = x.copy(), np.full(3, np.nan)
    return fn(x, y, u, u_ss, x_ss, p.rk4_constants, dt), x, y


def _bits(values):
    """The bit patterns of floats, so that NaNs and zeros' signs compare."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_compiled_advance_matches_python_on_20000_draws(compiled_kernels):
    """The compiled advance and _advance_python on the draws above, with the
    inputs split into an operating input and a deviation: both return True
    and write the same x and y = x - x_ss, or both return the same state,
    the input of the stage or the last state that left the region, and
    leave x and y as they were. 444 of the 10 864 failing draws fail only
    at the last state."""
    u_ss = np.array([300.0, 0.1])
    x_ss = np.array([0.878, 324.5, 0.659])
    left = 0
    for s, u, p, dt in _kernel_draws(20000):
        x = s.as_array()
        got = _advance(compiled_kernels.advance, x, u - u_ss, u_ss, x_ss, p,
                       dt)
        want = _advance(kernels._advance_python, x, u - u_ss, u_ss, x_ss, p,
                        dt)
        if want[0] is True:
            assert got[0] is True
            assert _bits(want[2]) == _bits(want[1] - x_ss)
        else:
            assert _bits(got[0]) == _bits(want[0]), (s, u, p, dt)
            assert _bits(want[1]) == _bits(x)
            assert np.isnan(want[2]).all()
            left += 1
        assert _bits(got[1]) == _bits(want[1])
        assert _bits(got[2]) == _bits(want[2])
    assert left == 10864


def test_compiled_advance_rejects_buffers_that_do_not_fit(compiled_kernels):
    x, y, u = np.array([0.9, 320.0, 0.7]), np.empty(3), np.zeros(2)
    constants = plant.CstrParams().rk4_constants
    args = (x, y, u, np.array([300.0, 0.1]), np.zeros(3), constants, 1.0)
    assert compiled_kernels.advance(*args) is True
    for i, bad in ((0, np.zeros(4)), (2, np.zeros(3)), (5, constants[:9])):
        with pytest.raises(ValueError, match="do not fit together"):
            compiled_kernels.advance(*args[:i], bad, *args[i + 1:])
    for i, bad in ((0, x.astype(np.float32)), (2, [0.0, 0.0])):
        with pytest.raises(TypeError):
            compiled_kernels.advance(*args[:i], bad, *args[i + 1:])
    # the state is written, the constants are only read
    with pytest.raises(ValueError):
        compiled_kernels.advance(constants.copy(), *args[1:5], constants, 1.0)
    for substeps in (0.0, 2.5, np.nan):
        bad = constants.copy()
        bad[9] = substeps
        with pytest.raises(ValueError, match="substeps"):
            compiled_kernels.advance(*args[:5], bad, 1.0)


@pytest.fixture(params=["compiled", "python"])
def either_kernels(request, compiled_kernels, monkeypatch):
    """The compiled kernels, or kernels.PYTHON_KERNELS."""
    monkeypatch.setattr(kernels, "active", compiled_kernels
                        if request.param == "compiled"
                        else kernels.PYTHON_KERNELS)


def test_a_plant_steps_as_a_chain_of_one_shot_steps(tracking_rc,
                                                    either_kernels):
    """NonlinearPlant over 200 intervals, with an outlet_factor event at
    interval 100: its state and measure() equal those of plant.step
    chained from the same state, less op.x_ss, bit for bit. The inputs
    feed back the measured temperature and level, which holds the open-
    loop unstable operating point, plus noise."""
    rc = tracking_rc
    op, dt = rc.op, rc.model.dt
    s, params = plant.PlantState(*op.x_ss), rc.params
    plant_ = cl.NonlinearPlant(s, params, op, dt=dt)
    rng = np.random.default_rng(26)
    for k in range(200):
        if k == 100:
            plant_.apply_event({"outlet_factor": 0.95})
            params = plant.apply_event(params, {"outlet_factor": 0.95})
        y = plant_.measure()
        u = ([-0.5 * y[1], 0.2 * y[2]]
             + rng.uniform(-1.0, 1.0, 2) * [2.0, 0.002])
        plant_.step(u)
        s = plant.step(s, op.u_ss + u, params, dt)
        assert plant_.state == s, k
        assert _bits(plant_.measure()) == _bits(s.as_array() - op.x_ss), k
    assert params.outlet_factor == plant_.params.outlet_factor == 0.95


def test_a_step_takes_any_sequence_of_two_inputs(tracking_rc,
                                                 either_kernels):
    """A list, an integer array and a strided view give the state that a
    float64 array gives, in plant.step (absolute inputs) and in
    NonlinearPlant.step (deviations)."""
    op = tracking_rc.op
    s, p = plant.PlantState(*op.x_ss), tracking_rc.params

    def forms(u):
        strided = np.repeat(u, 2)[::2]
        assert not strided.flags.c_contiguous
        return [u.tolist(), u.astype(int), strided]

    u_abs, u_dev = np.array([300.0, 0.0]), np.array([2.0, 0.0])
    want = plant.step(s, u_abs, p, 1.0)
    assert all(plant.step(s, u, p, 1.0) == want for u in forms(u_abs))
    ref = cl.NonlinearPlant(s, p, op)
    ref.step(u_dev)
    for u in forms(u_dev):
        plant_ = cl.NonlinearPlant(s, p, op)
        plant_.step(u)
        assert plant_.state == ref.state


def test_a_step_out_of_the_region_writes_nothing(tracking_rc,
                                                  either_kernels):
    """A NonlinearPlant whose step fails at a stage or at its last state
    raises step's message and keeps its state and measurement."""
    op = tracking_rc.op
    for case in ("draining tank, stage 2", "last state"):
        s, u, p, dt, _ = STAGE_FAILURES[case]
        plant_ = cl.NonlinearPlant(s, p, op, dt=dt)
        y = plant_.measure().copy()
        with pytest.raises(plant.NonPhysicalState) as want:
            plant.step(s, np.array(u), p, dt)
        with pytest.raises(plant.NonPhysicalState) as got:
            plant_.step(np.array(u) - op.u_ss)
        assert str(got.value) == str(want.value)
        assert plant_.state == s
        assert _bits(plant_.measure()) == _bits(y)


def test_odd_inputs_and_operating_points_step_alike_in_both_kernels(
        either_kernels):
    """With the kernels on and off alike, an operating point of lists or
    integers steps as its float64 arrays do, and one of the wrong shape is
    a ValueError; an input of two numbers in any shape steps as a flat
    one does, and one of one or three numbers is the compiled advance's
    ValueError, in plant.step and NonlinearPlant.step. There is one
    NonlinearPlant, plant's."""
    assert cl.NonlinearPlant is plant.NonlinearPlant
    s, p = plant.PlantState(c=0.878, T=324.5, h=0.659), plant.CstrParams()
    x_ss, u_ss = [0.878, 324.5, 0.659], [300.0, 0.1]
    ref = plant.NonlinearPlant(s, p, plant.OperatingPoint(np.array(x_ss),
                                                          np.array(u_ss)))
    ref.step(np.zeros(2))
    # the same absolute input from each operating point
    for op, u in ((plant.OperatingPoint(x_ss, u_ss), [0, 0]),
                  (plant.OperatingPoint(np.array([1, 324, 1]),
                                        np.array([300, 0])), [0, 0.1])):
        assert op.x_ss.dtype == op.u_ss.dtype == np.float64
        assert not (op.x_ss.flags.writeable or op.u_ss.flags.writeable)
        plant_ = plant.NonlinearPlant(s, p, op)
        plant_.step(u)
        assert plant_.state == ref.state
        assert _bits(plant_.measure()) == _bits(ref.state.as_array()
                                                - op.x_ss)
    for x_bad, u_bad in ((x_ss[:2], u_ss), (x_ss, [u_ss]), (x_ss, 300.0)):
        with pytest.raises(ValueError, match="must have shape"):
            plant.OperatingPoint(x_bad, u_bad)
    want = plant.step(s, np.array(u_ss), p, 1.0)
    assert want == ref.state
    assert plant.step(s, np.array([u_ss]), p, 1.0) == want
    for u in ([300.0], [300.0, 0.1, 0.0]):
        with pytest.raises(ValueError,
                           match="^advance: buffer sizes do not fit together$"):
            plant.step(s, u, p, 1.0)
        with pytest.raises(ValueError,
                           match="^advance: buffer sizes do not fit together$"):
            ref.step(np.array(u) - 300.0)


def test_both_kernels_reject_a_substep_count_before_any_substep(
        either_kernels):
    """advance and its Python form raise the same ValueError for a substep
    count that is not a whole number from 1 up to below 2**63, the range of
    a C long, before any substep runs: x and y are left as they were."""
    u_ss, x_ss = np.array([300.0, 0.1]), np.array([0.878, 324.5, 0.659])
    for substeps in (2.5, 0.0, -1.0, np.nan, np.inf, 2.0 ** 63):
        constants = plant.CstrParams().rk4_constants.copy()
        constants[9] = substeps
        x, y = np.array([0.9, 320.0, 0.7]), np.full(3, 7.0)
        with pytest.raises(
                ValueError,
                match="^advance: substeps must be a whole number >= 1$"):
            kernels.active.advance(x, y, np.zeros(2), u_ss, x_ss, constants,
                                   1.0)
        assert x.tolist() == [0.9, 320.0, 0.7]
        assert y.tolist() == [7.0, 7.0, 7.0]


def test_the_compiled_module_holds_the_python_kernels_names(
        compiled_kernels):
    """Every compiled kernel has its Python form in PYTHON_KERNELS, under
    its name, and every Python form its compiled kernel; load() checks
    only the second."""
    compiled = {name for name, value in vars(compiled_kernels).items()
                if not name.startswith("_") and callable(value)}
    assert compiled == set(vars(kernels.PYTHON_KERNELS))


def test_the_first_step_loads_the_compiled_loop(compiled_kernels,
                                                monkeypatch):
    """compiled_kernels fails this test, with the reason and the gcc
    command, when the kernels cannot be built or loaded. The one load
    gives the module that holds both kernels."""
    monkeypatch.setattr(kernels, "active", None)
    plant.step(plant.PlantState(c=0.878, T=324.5, h=0.659),
               np.array([300.0, 0.1]), plant.CstrParams(), 1.0)
    assert isinstance(kernels.active, types.ModuleType)
    assert kernels.fallback_reason is None


def test_the_first_step_builds_into_an_empty_directory(tmp_path,
                                                       monkeypatch):
    build = tmp_path / "build"
    monkeypatch.setattr(kernels, "BUILD_DIR", str(build))
    monkeypatch.setattr(kernels, "active", None)
    monkeypatch.setattr(kernels, "fallback_reason", None)
    s, u, p = (plant.PlantState(c=0.9, T=320.0, h=0.7),
               np.array([295.0, 0.11]), plant.CstrParams())
    got = plant.step(s, u, p, 1.0)
    assert kernels.fallback_reason is None
    assert isinstance(kernels.active, types.ModuleType)
    # the one build, under its tagged name: no temporary file is left
    name = os.path.basename(kernels.kernel_path())
    assert os.listdir(build) == [name]
    assert name.startswith("_kernels-") and name.endswith(
        importlib.machinery.EXTENSION_SUFFIXES[0])
    ref = _step_reference(s, u, p, 1.0)
    assert (got.c, got.T, got.h) == (ref.c, ref.T, ref.h)


def test_the_kernels_compile_without_a_warning(tmp_path):
    """The build passes no warning flags, so a warning would never show:
    here -Wall -Werror turns each into a failure that prints it."""
    proc = subprocess.run(
        kernels.kernel_command(str(tmp_path / "kernels.so"))
        + ["-Wall", "-Werror"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _no_gcc(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))


def _bad_source(tmp_path, monkeypatch):
    source = tmp_path / "_kernels.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(kernels, "KERNEL_SOURCE", str(source))


def _kernel_missing(tmp_path, monkeypatch):
    # a module that builds and loads but holds neither kernel
    source = tmp_path / "_kernels.c"
    source.write_text(
        "#include <Python.h>\n"
        "static struct PyModuleDef module = {\n"
        "    PyModuleDef_HEAD_INIT, \"_kernels\", NULL, -1, NULL};\n"
        "PyMODINIT_FUNC PyInit__kernels(void)\n"
        "{ return PyModule_Create(&module); }\n")
    monkeypatch.setattr(kernels, "KERNEL_SOURCE", str(source))


def _unwritable_build_dir(tmp_path, monkeypatch):
    # a regular file where a directory should be: no directory can be made
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(kernels, "BUILD_DIR", str(tmp_path / "file" / "build"))


# case: (set-up, start of fallback_reason)
FALLBACKS = {
    "gcc missing": (_no_gcc, "FileNotFoundError: "),
    "build fails": (_bad_source, "ImportError: gcc exited with code 1: "),
    "kernel missing": (_kernel_missing, "AttributeError: "),
    "build directory not writable": (_unwritable_build_dir,
                                     "NotADirectoryError: "),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_step_falls_back_to_the_python_loop(case, tmp_path, monkeypatch):
    """One failed build sets kernels to their Python forms, with one
    fallback_reason."""
    set_up, reason = FALLBACKS[case]
    monkeypatch.setattr(kernels, "BUILD_DIR", str(tmp_path / "build"))
    monkeypatch.setattr(kernels, "active", None)
    monkeypatch.setattr(kernels, "fallback_reason", None)
    set_up(tmp_path, monkeypatch)
    s, u, p = (plant.PlantState(c=0.9, T=320.0, h=0.7),
               np.array([295.0, 0.11]), plant.CstrParams())
    got = plant.step(s, u, p, 1.0)
    assert kernels.active is kernels.PYTHON_KERNELS
    assert kernels.fallback_reason.startswith(reason), kernels.fallback_reason
    ref = _step_reference(s, u, p, 1.0)
    assert (got.c, got.T, got.h) == (ref.c, ref.T, ref.h)
    # a failed build leaves no temporary file behind, and a completed one
    # only its tagged file
    if os.path.isdir(kernels.BUILD_DIR):
        built = ([os.path.basename(kernels.kernel_path())]
                 if case == "kernel missing" else [])
        assert os.listdir(kernels.BUILD_DIR) == built
