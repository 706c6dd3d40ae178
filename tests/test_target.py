import dataclasses
import logging
import pathlib

import numpy as np
import pytest

from offsetmpc import closed_loop as cl
from offsetmpc import estimator as est_mod
from offsetmpc import kernels, ocp, target
from offsetmpc import model as mdl

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_origin_for_zero_inputs(committed):
    m, dist, _, _ = committed
    tgt = target.TargetCalculator(m, dist).solve(np.zeros(2), np.zeros(2))
    assert np.allclose(tgt.x_bar, 0.0, atol=1e-12)
    assert np.allclose(tgt.u_bar, 0.0, atol=1e-12)


def test_target_satisfies_steady_equations(committed):
    m, dist, _, _ = committed
    calc = target.TargetCalculator(m, dist)
    rng = np.random.default_rng(13)
    for _ in range(25):
        d = rng.normal(scale=0.3, size=2)
        r = rng.normal(scale=0.01, size=2)
        tgt = calc.solve(d, r)
        res_dyn = (m.A - np.eye(3)) @ tgt.x_bar + m.B @ tgt.u_bar + dist.B_d @ d
        res_out = m.H @ (m.C @ tgt.x_bar + dist.C_d @ d) - r
        assert np.linalg.norm(res_dyn) < 1e-9
        assert np.linalg.norm(res_out) < 1e-9


def kernel_target(pred, M_step, d, r):
    """(t, excursion): the target z[:n_t] of one call of the active
    interval kernel and whether it leaves [pred.lo, pred.hi]. v is zero but
    for d_l_k = d and r_k, so the estimate is zero and theta = [0; d; r]."""
    law, n_in = pred.law, M_step.shape[1]
    v = np.zeros(n_in + len(d) + len(r))
    v[n_in:n_in + len(d)], v[n_in + len(d):] = d, r
    w, theta, z = (np.empty(len(M_step)), np.empty(law.P.shape[1]),
                   np.empty(len(law.P)))
    active = kernels.active or kernels.load()
    _, _, excursion = active.interval(M_step, law.P, pred.b_box, pred.lo,
                                      pred.hi, v, w, theta, z,
                                      len(M_step) - len(d))
    return z[:law.n_t], excursion


def test_a_target_outside_the_box_is_counted_never_clipped(committed,
                                                           either_interval):
    """This setpoint needs a coolant move past the input box: every
    interval counts an excursion, and logs the exact pair, outside the box
    and within 1e-12 of solve(d_total, r) relative to max(1, |value|)."""
    m, dist, gains, cfg = committed
    loop = cl.ControlLoop(m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.zeros(2)),
                          cl.ControllerMode.NOMINAL)
    loop.set_setpoint([0.04, 0.0])
    for _ in range(3):
        loop.control_step()
    calc = target.TargetCalculator(m, dist)
    for rec in loop.records:
        want = calc.solve(rec.d_total, rec.r)
        for g, w in ((rec.x_bar, want.x_bar), (rec.u_bar, want.u_bar)):
            assert (np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w))).all()
        assert ((rec.u_bar < cfg.u_bounds[0])
                | (rec.u_bar > cfg.u_bounds[1])).any()
    assert loop.excursions.count == 3
    assert np.array_equal(loop.excursions.last.u_bar,
                          loop.records[-1].u_bar)


def test_repeat_excursions_counted_with_first_and_last(committed, caplog):
    """Every excursion counts, none is logged; the first and the last
    offending pairs are kept, and a target inside the box is not
    counted."""
    m, dist, gains, cfg = committed
    loop = cl.ControlLoop(m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.zeros(2)),
                          cl.ControllerMode.NOMINAL)
    with caplog.at_level(logging.DEBUG):
        for r in ([0.04, 0.0], [0.04, 0.0], [0.0, 0.0], [0.05, 0.0]):
            loop.set_setpoint(r)
            loop.control_step()
    exc, recs = loop.excursions, loop.records
    assert exc.count == 3
    for pair, rec in ((exc.first, recs[0]), (exc.last, recs[3])):
        assert np.array_equal(pair.x_bar, rec.x_bar)
        assert np.array_equal(pair.u_bar, rec.u_bar)
    assert not caplog.records


def test_excursion_needs_more_than_1e12_past_a_bound(committed,
                                                     either_interval):
    """A target on a bound, or less than 1e-12 past it, stays inside
    build_prediction's box lo/hi; 1e-11 past either bound of the input or
    the state box leaves it, and the interval kernel says so."""
    m, dist, gains, cfg = committed
    M_step = est_mod.DisturbanceEstimator(m, dist, gains).M_step
    d, r = np.array([0.001, 0.1]), np.array([0.002, 0.3])
    t, _ = kernel_target(ocp.build_prediction(m, dist, cfg), M_step, d, r)
    x, u = t[:m.n_x], t[m.n_x:]
    for v, which, other in ((u, "u_bounds", {"x_bounds": None}),
                            (x, "x_bounds", {"u_bounds": (u - 1.0, u + 1.0)})):
        for lo, hi, outside in ((v, v + 1.0, False), (v - 1.0, v, False),
                                (v + 5e-13, v + 1.0, False),
                                (v - 1.0, v - 5e-13, False),
                                (v + 1e-11, v + 1.0, True),
                                (v - 1.0, v - 1e-11, True)):
            boxed = dataclasses.replace(cfg, **{which: (lo, hi)}, **other)
            pred = ocp.build_prediction(m, dist, boxed)
            got, excursion = kernel_target(pred, M_step, d, r)
            assert np.array_equal(got, t)
            assert excursion is outside, (which, lo - v)
            assert ((t < pred.lo) | (t > pred.hi)).any() == outside


def test_singular_pair_raises():
    # double integrator tracking velocity only: steady map loses rank
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    H = np.array([[0.0, 1.0]])
    m = mdl.LinearModel(A, B, np.eye(2), H, 1.0)
    dist = mdl.DisturbanceModel(np.array([[1.0], [0.0]]), np.zeros((2, 1)))
    with pytest.raises(target.SingularTarget):
        target.TargetCalculator(m, dist)


def test_non_square_target_rejected(committed):
    """One controlled output for two inputs leaves the target problem
    without a unique solution; the calculator refuses it."""
    m, dist, _, _ = committed
    m_one = mdl.LinearModel(m.A, m.B, m.C, m.H[:1], m.dt)
    with pytest.raises(mdl.DimensionMismatch):
        target.TargetCalculator(m_one, dist)


def test_stacked_product_gives_the_pair_of_solve(twovar_rc,
                                                 either_interval):
    """On theta = [x_hat; d; r] of every interval of the committed twovar
    runs and on random theta, t = (law.P theta)[:n_t] gives the pair of
    solve(d, r) within 1e-12 relative to max(1, |value|), and the interval
    kernel the verdict ((t < pred.lo) | (t > pred.hi)).any()."""
    rc = twovar_rc
    m, dist, cfg = rc.model, rc.dist, rc.ocp_cfg
    pred = ocp.build_prediction(m, dist, cfg)
    law = pred.law
    M_step = est_mod.DisturbanceEstimator(m, dist, rc.make_gains()).M_step
    thetas = []
    for mode in ("nominal", "learned"):
        records = cl.read_log_csv(
            str(ROOT / "out" / f"cstr_twovar_{mode}.csv"))
        thetas += [np.concatenate([rec.x_hat, rec.d_total, rec.r])
                   for rec in records]
    rng = np.random.default_rng(41)
    (x_lo, x_hi) = cfg.x_bounds
    for _ in range(500):
        thetas.append(np.concatenate([
            rng.uniform(x_lo, x_hi) * 1.3,
            [rng.uniform(-0.012, 0.004), rng.uniform(-1.0, 7.0)],
            [rng.uniform(-0.05, 0.045), rng.uniform(-4.5, 5.0)]]))
    calc = target.TargetCalculator(m, dist)
    verdicts = set()
    for theta in thetas:
        d, r = theta[m.n_x:m.n_x + dist.n_d], theta[m.n_x + dist.n_d:]
        t = (law.P @ theta)[:law.n_t]
        want = calc.solve(d, r)
        for g, w in ((t[:m.n_x], want.x_bar), (t[m.n_x:], want.u_bar)):
            assert (np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w))).all()
        verdict = bool(((t < pred.lo) | (t > pred.hi)).any())
        assert kernel_target(pred, M_step, d, r)[1] is verdict
        verdicts.add(verdict)
    assert verdicts == {False, True}
