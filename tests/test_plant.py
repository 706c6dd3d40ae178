import itertools
import math
import warnings

import numpy as np
import pytest

from offsetmpc import plant


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


def test_operating_point_is_near_equilibrium():
    p = plant.CstrParams()
    op = plant.default_operating_point()
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


def test_exact_equilibrium_is_rk4_fixed_point():
    p = plant.CstrParams()
    s, u = exact_equilibrium(0.878, 324.5, p)
    assert np.abs(plant.derivatives(s, u, p)).max() < 5e-13
    s2 = plant.step(s, u, p, 1.0)
    assert abs(s2.c - s.c) < 1e-9
    assert abs(s2.T - s.T) < 1e-9
    assert abs(s2.h - s.h) < 1e-9


def test_equilibrium_holds_over_long_horizon():
    p = plant.CstrParams()
    s, u = exact_equilibrium(0.878, 324.5, p)
    ref = s.as_array()
    for _ in range(100):
        s = plant.step(s, u, p, 1.0)
    assert np.abs(s.as_array() - ref).max() < 1e-9


def test_outlet_mismatch_breaks_level_balance():
    p = plant.CstrParams(outlet_factor=1.03)
    s = plant.PlantState(c=0.878, T=324.5, h=0.659)
    dx = plant.derivatives(s, np.array([300.0, 0.1]), p)
    # 3% extra outflow drains the tank
    assert dx[2] == pytest.approx(-0.03 * 0.1 / p.area, rel=1e-12)


def test_integration_order_is_four():
    """Richardson step-halving on a transient: the dt^4 error law gives
    ratios near 16."""
    p = plant.CstrParams(substeps=1)
    s = plant.PlantState(c=0.9, T=320.0, h=0.7)
    u = np.array([295.0, 0.11])

    def advance(dt, n):
        st = s
        for _ in range(n):
            st = plant.step(st, u, p, dt)
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


def test_step_raises_when_tank_drains():
    p = plant.CstrParams(substeps=5)
    s = plant.PlantState(c=0.9, T=324.0, h=0.02)
    # maximum outlet flow against nominal feed empties 2 cm fast
    with pytest.raises(plant.NonPhysicalState):
        plant.step(s, np.array([300.0, 0.13]), p, 10.0)


def test_measure_is_deviation_from_op():
    op = plant.default_operating_point()
    s = plant.PlantState(*op.x_ss)
    assert np.array_equal(plant.measure(s, op), np.zeros(3))
    s2 = plant.PlantState(op.x_ss[0] + 0.01, op.x_ss[1] - 2.0, op.x_ss[2] + 0.1)
    assert np.allclose(plant.measure(s2, op), [0.01, -2.0, 0.1], atol=1e-12)


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


def test_concentration_mismatch_term():
    s = plant.PlantState(c=0.878, T=324.5, h=0.659)
    u = np.array([300.0, 0.1])
    base = plant.derivatives(s, u, plant.CstrParams())
    tilted = plant.derivatives(s, u, plant.CstrParams(concentration_mismatch=True))
    V = plant.CstrParams().area * s.h
    assert tilted[0] - base[0] == pytest.approx(-0.03 * u[1] * s.c / V, rel=1e-9)
    assert tilted[1] == base[1]
    assert tilted[2] == base[2]


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
    if p.concentration_mismatch:
        dc -= 0.03 * F * c / V
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


# every combination of outlet factor, mismatch reading, substeps and dt
ORACLE_CASES = list(itertools.product((1.0, 1.03, 0.9), (False, True),
                                      (1, 20), (0.5, 1.0)))


def _oracle_draws():
    """1200 (i, state, inputs, params, dt) around the operating region,
    cycling through ORACLE_CASES."""
    rng = np.random.default_rng(4)
    for i in range(1200):
        outlet, conc, substeps, dt = ORACLE_CASES[i % len(ORACLE_CASES)]
        p = plant.CstrParams(outlet_factor=outlet, substeps=substeps,
                             concentration_mismatch=conc)
        s = plant.PlantState(c=rng.uniform(0.5, 1.0),
                             T=rng.uniform(310.0, 340.0),
                             h=rng.uniform(0.1, 1.2))
        u = np.array([rng.uniform(285.0, 315.0), rng.uniform(0.05, 0.15)])
        yield i, s, u, p, dt


def test_step_matches_array_reference_bit_for_bit():
    n_equal = 0
    for i, s, u, p, dt in _oracle_draws():
        assert np.array_equal(plant.derivatives(s, u, p),
                              _deriv_reference(s.as_array(), u, p))
        try:
            ref = _step_reference(s, u, p, dt)
        except plant.NonPhysicalState:
            with pytest.raises(plant.NonPhysicalState):
                plant.step(s, u, p, dt)
            continue
        got = plant.step(s, u, p, dt)
        assert (got.c, got.T, got.h) == (ref.c, ref.T, ref.h), (i, s, u)
        n_equal += 1
    assert n_equal >= 1000


def test_step_moves_from_the_numpy_exp_form_by_at_most_1e_13():
    """math.exp in place of numpy's exp moves a step's result by rounding
    alone: on these draws at most 1e-13 relative in each of c, T and h
    (16 of 3114 components moved, by at most 2.1e-14, on one machine),
    and a step leaves the physical region in one form exactly when it
    does in the other."""
    n_steps = 0
    for i, s, u, p, dt in _oracle_draws():
        try:
            old = _step_reference_numpy_exp(s, u, p, dt)
        except plant.NonPhysicalState:
            with pytest.raises(plant.NonPhysicalState):
                plant.step(s, u, p, dt)
            continue
        got = plant.step(s, u, p, dt)
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
def test_extreme_temperature_gives_a_state_or_leaves_the_region(T, E_over_R):
    p = plant.CstrParams(E_over_R=E_over_R)
    s = plant.PlantState(c=0.9, T=T, h=0.6)
    u = np.array([300.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = plant.derivatives(s, u, p)
        try:
            plant.step(s, u, p, 1.0)
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
def test_step_and_reference_both_leave_the_physical_region(s, u, p, dt):
    # the array form divides by the zero volume before it raises
    with pytest.raises(plant.NonPhysicalState), np.errstate(divide="ignore"):
        _step_reference(s, u, p, dt)
    with pytest.raises(plant.NonPhysicalState, match=r"^state \([^()]*\) "
                       r"left the physical region$") as exc:
        plant.step(s, u, p, dt)
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
    extra_outlet = 0.03 * F if p.concentration_mismatch else None
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
        if extra_outlet is not None:
            dc -= extra_outlet * c / V
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
    "substep 15, stage 3, concentration mismatch": (
        plant.PlantState(c=0.83, T=336.0, h=0.63), [323.0, 0.09],
        plant.CstrParams(concentration_mismatch=True), 0.5, 59),
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
}


@pytest.mark.parametrize("case", list(STAGE_FAILURES))
def test_step_fails_at_the_closure_forms_stage_with_its_message(case):
    s, u, p, dt, calls = STAGE_FAILURES[case]
    made = []
    with pytest.raises(plant.NonPhysicalState) as want:
        _closure_step_reference(s, np.array(u), p, dt, made)
    assert len(made) == calls
    with pytest.raises(plant.NonPhysicalState) as got:
        plant.step(s, np.array(u), p, dt)
    assert str(got.value) == str(want.value)
