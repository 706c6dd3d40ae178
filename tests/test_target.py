import logging
import pathlib

import numpy as np
import pytest

from offsetmpc import closed_loop as cl
from offsetmpc import model as mdl
from offsetmpc import ocp, target

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


def test_bounds_warn_but_never_clip(committed):
    m, dist, _, cfg = committed
    # this setpoint needs a coolant move past the box; the pair must come
    # back exact anyway, and the excursion is counted
    r = np.array([0.04, 0.0])
    free = target.TargetCalculator(m, dist).solve(np.zeros(2), r)
    calc = target.TargetCalculator(m, dist, u_bounds=cfg.u_bounds)
    boxed = calc.solve(np.zeros(2), r)
    assert np.array_equal(free.u_bar, boxed.u_bar)
    assert np.array_equal(free.x_bar, boxed.x_bar)
    assert not (cfg.u_bounds[0] <= boxed.u_bar).all() or \
           not (boxed.u_bar <= cfg.u_bounds[1]).all()
    assert calc.excursions.count == 1


def test_repeat_excursions_counted_with_first_and_last(committed, caplog):
    """Every excursion counts, none is logged; the first and the last
    offending pairs are kept, and a target inside the box is not counted."""
    m, dist, _, cfg = committed
    calc = target.TargetCalculator(m, dist, u_bounds=cfg.u_bounds,
                                   x_bounds=cfg.x_bounds)
    with caplog.at_level(logging.DEBUG):
        first = calc.solve(np.zeros(2), np.array([0.04, 0.0]))
        calc.solve(np.zeros(2), np.array([0.04, 0.0]))
        calc.solve(np.zeros(2), np.zeros(2))
        last = calc.solve(np.zeros(2), np.array([0.05, 0.0]))
    assert calc.excursions.count == 3
    assert calc.excursions.first is first and calc.excursions.last is last
    assert not caplog.records


def test_excursion_needs_more_than_1e12_past_a_bound(committed):
    """A target on a bound, or less than 1e-12 past it, stays inside the
    box; 1e-11 past either bound of the input or the state box counts."""
    m, dist, _, _ = committed
    d, r = np.array([0.001, 0.1]), np.array([0.002, 0.3])
    pair = target.TargetCalculator(m, dist).solve(d, r)
    for v, which in ((pair.u_bar, "u_bounds"), (pair.x_bar, "x_bounds")):
        for lo, hi, outside in ((v, v + 1.0, False), (v - 1.0, v, False),
                                (v + 5e-13, v + 1.0, False),
                                (v - 1.0, v - 5e-13, False),
                                (v + 1e-11, v + 1.0, True),
                                (v - 1.0, v - 1e-11, True)):
            calc = target.TargetCalculator(m, dist, **{which: (lo, hi)})
            calc.solve(d, r)
            assert calc.excursions.count == int(outside), (which, lo - v)


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


def test_check_of_the_stacked_product_matches_solve(twovar_rc):
    """On theta = [x_hat; d; r] of every interval of the committed twovar
    runs and on random theta, pair(z) with z = (law.P theta)[:n_t] gives
    the pair of solve(d, r) within 1e-12 relative to max(1, |value|), and
    check(z) the same excursion verdict, returning the pair it counted or
    None."""
    rc = twovar_rc
    m, dist, cfg = rc.model, rc.dist, rc.ocp_cfg
    law = ocp.build_prediction(m, dist, cfg).law
    thetas = []
    for mode in ("nominal", "learned"):
        log = cl.read_log_csv(str(ROOT / "out" / f"cstr_twovar_{mode}.csv"))
        thetas += [np.concatenate([rec.x_hat, rec.d_total, rec.r])
                   for rec in log.records]
    rng = np.random.default_rng(41)
    (x_lo, x_hi) = cfg.x_bounds
    for _ in range(500):
        thetas.append(np.concatenate([
            rng.uniform(x_lo, x_hi) * 1.3,
            [rng.uniform(-0.012, 0.004), rng.uniform(-1.0, 7.0)],
            [rng.uniform(-0.05, 0.045), rng.uniform(-4.5, 5.0)]]))
    boxes = {"u_bounds": cfg.u_bounds, "x_bounds": cfg.x_bounds}
    fast = target.TargetCalculator(m, dist, **boxes)
    ref = target.TargetCalculator(m, dist, **boxes)
    verdicts = set()
    for theta in thetas:
        d, r = theta[m.n_x:m.n_x + dist.n_d], theta[m.n_x + dist.n_d:]
        before = fast.excursions.count
        z = (law.P @ theta)[:law.n_t]
        counted = fast.check(z)
        assert counted is None or counted is fast.excursions.last
        got = fast.pair(z)
        want = ref.solve(d, r)
        for g, w in ((got.x_bar, want.x_bar), (got.u_bar, want.u_bar)):
            assert (np.abs(g - w) <= 1e-12 * np.maximum(1.0, np.abs(w))).all()
        assert fast.excursions.count == ref.excursions.count
        verdicts.add(fast.excursions.count > before)
    assert verdicts == {False, True}
