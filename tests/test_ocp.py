import dataclasses

import numpy as np
import pytest

from offsetmpc import model as mdl
from offsetmpc import ocp, target


def rollout_cost(m, dist, cfg, x0, d, tgt, u_flat):
    """Stage-by-stage simulation of the tracking objective, x_0 included."""
    us = u_flat.reshape(cfg.N, m.n_u)
    x = np.asarray(x0, float).copy()
    ex = x - tgt.x_bar
    J = ex @ np.diag(cfg.q_x) @ ex
    for k in range(cfg.N):
        eu = us[k] - tgt.u_bar
        J += eu @ np.diag(cfg.q_u) @ eu
        x = m.A @ x + m.B @ us[k] + dist.B_d @ d
        ex = x - tgt.x_bar
        W = cfg.q_xN if k == cfg.N - 1 else cfg.q_x
        J += ex @ np.diag(W) @ ex
    return J


def test_prediction_matrices_match_simulation(committed):
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    rng = np.random.default_rng(31)
    for _ in range(5):
        x0 = rng.normal(scale=0.1, size=3)
        d = rng.normal(scale=0.1, size=2)
        us = rng.normal(scale=0.5, size=(cfg.N, 2))
        # the disturbance block takes one d per step; constant here
        stacked = pred.Phi @ x0 + pred.Psi @ us.ravel() \
            + pred.Psi_d @ np.tile(d, cfg.N)
        x = x0.copy()
        sim = []
        for k in range(cfg.N):
            x = m.A @ x + m.B @ us[k] + dist.B_d @ d
            sim.append(x.copy())
        sim = np.concatenate(sim)
        assert stacked.shape == sim.shape
        assert np.allclose(stacked, sim, atol=1e-9)


def test_condensed_objective_matches_rollout(committed):
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x0 = rng.normal(scale=0.05, size=3)
        d = rng.normal(scale=0.05, size=2)
        tgt = target.TargetCalculator(m, dist).solve(
            d, rng.normal(scale=0.005, size=2))
        qp = ocp.condense(pred, cfg, x0, d, tgt)
        u = rng.normal(scale=0.2, size=qp.H_j.shape[0])
        J_qp = u @ qp.H_j @ u + 2.0 * qp.f_j @ u + qp.c_j
        J_sim = rollout_cost(m, dist, cfg, x0, d, tgt, u)
        # H entries reach ~1e8 here, so compare relatively
        assert J_qp == pytest.approx(J_sim, rel=1e-6)


def test_condensed_bounds_encode_box(committed):
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    tgt = target.TargetCalculator(m, dist).solve(np.zeros(2), np.zeros(2))
    qp = ocp.condense(pred, cfg, np.zeros(3), np.zeros(2), tgt)
    n = qp.H_j.shape[0]
    assert n == cfg.N * 2
    # a point far past the input box must violate at least one row
    u_bad = np.full(n, 100.0)
    assert (qp.A_in @ u_bad > qp.b_in).any()
    u_ok = np.zeros(n)
    assert (qp.A_in @ u_ok <= qp.b_in + 1e-12).all()


def test_condense_shifts_the_fixed_rows_by_the_free_response(committed):
    """H_j and A_in are the per-loop arrays, shared read-only; b_in moves the
    state rows by the free response Phi x + Psi_d d."""
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    tgt = target.TargetCalculator(m, dist).solve(np.zeros(2), np.zeros(2))
    x0, d = np.array([0.01, -0.3, 0.02]), np.array([0.001, 0.2])
    qp = ocp.condense(pred, cfg, x0, d, tgt)
    assert qp.H_j is pred.H_j and qp.A_in is pred.A_in
    with pytest.raises(ValueError):
        qp.H_j[0, 0] = 0.0
    free = pred.Phi @ x0 + pred.Psi_d @ np.tile(d, cfg.N)
    (u_lb, u_ub), (x_lb, x_ub) = cfg.u_bounds, cfg.x_bounds
    expected = np.concatenate([np.tile(u_ub, cfg.N), -np.tile(u_lb, cfg.N),
                               np.tile(x_ub, cfg.N) - free,
                               free - np.tile(x_lb, cfg.N)])
    assert np.allclose(qp.b_in, expected, rtol=0.0, atol=1e-12)


def test_unconstrained_gain_is_lqr_like_fixed_point(committed):
    """The receding-horizon gain must reproduce the QP minimizer head when
    no constraint is active."""
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    K = ocp.unconstrained_gain(pred, cfg)
    assert K.shape == (2, 3)
    rng = np.random.default_rng(12)
    tgt = target.TargetCalculator(m, dist).solve(np.zeros(2), np.zeros(2))
    for _ in range(5):
        x0 = rng.normal(scale=1e-4, size=3)  # small enough to stay interior
        qp = ocp.condense(pred, cfg, x0, np.zeros(2), tgt)
        sol = ocp.solve_qp(qp)
        assert sol.active_set == []
        assert np.allclose(sol.u_seq[:2], K @ x0, atol=1e-10)


def test_solve_qp_certificates(committed):
    m, dist, _, cfg = committed
    # random states land outside the state box; keep only the input box here
    cfg = dataclasses.replace(cfg, x_bounds=None)
    pred = ocp.build_prediction(m, dist, cfg)
    rng = np.random.default_rng(44)
    for _ in range(10):
        x0 = rng.normal(scale=0.2, size=3)
        d = rng.normal(scale=0.2, size=2)
        tgt = target.TargetCalculator(m, dist).solve(
            d, rng.normal(scale=0.01, size=2))
        qp = ocp.condense(pred, cfg, x0, d, tgt)
        sol = ocp.solve_qp(qp)
        assert sol.kkt_residual <= 1e-8
        assert (qp.A_in @ sol.u_seq.ravel() <= qp.b_in + 1e-9).all()
        J = sol.u_seq.ravel() @ qp.H_j @ sol.u_seq.ravel() \
            + 2.0 * qp.f_j @ sol.u_seq.ravel() + qp.c_j
        assert sol.objective == pytest.approx(J, rel=1e-9, abs=1e-12)


def test_warm_start_matches_cold(committed):
    m, dist, _, cfg = committed
    cfg = dataclasses.replace(cfg, x_bounds=None)
    pred = ocp.build_prediction(m, dist, cfg)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x0 = rng.normal(scale=0.3, size=3)
        d = rng.normal(scale=0.2, size=2)
        tgt = target.TargetCalculator(m, dist).solve(d, np.zeros(2))
        qp = ocp.condense(pred, cfg, x0, d, tgt)
        cold = ocp.solve_qp(qp)
        warm = ocp.solve_qp(qp,
                            warm_start=cold.u_seq.ravel() + rng.normal(scale=0.05, size=cold.u_seq.size),
                            active_guess=cold.active_set)
        assert np.allclose(warm.u_seq, cold.u_seq, atol=1e-8)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)


def test_infeasible_raises():
    H = np.eye(2)
    f = np.zeros(2)
    # u0 <= -1 and -u0 <= 0 cannot both hold
    A_in = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b_in = np.array([-1.0, 0.0])
    qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=A_in, b_in=b_in)
    with pytest.raises(ocp.Infeasible):
        ocp.solve_qp(qp)


def test_equality_like_active_pair():
    # opposing rows pin u0 at 0.5 exactly
    H = np.diag([2.0, 2.0])
    f = np.zeros(2)
    A_in = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b_in = np.array([0.5, -0.5])
    qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=A_in, b_in=b_in)
    sol = ocp.solve_qp(qp)
    assert sol.u_seq.ravel()[0] == pytest.approx(0.5, abs=1e-10)
    assert sol.u_seq.ravel()[1] == pytest.approx(0.0, abs=1e-10)


def test_config_validation():
    ub = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ocp.OcpConfig(N=0, q_x=np.ones(3), q_u=np.ones(2), q_xN=np.ones(3),
                      u_bounds=ub)
    with pytest.raises(ValueError):
        ocp.OcpConfig(N=5, q_x=-np.ones(3), q_u=np.ones(2), q_xN=np.ones(3),
                      u_bounds=ub)
    with pytest.raises(ValueError):
        ocp.OcpConfig(N=5, q_x=np.ones(3), q_u=np.ones(2), q_xN=np.ones(3),
                      u_bounds=(np.array([2.0, 2.0]), np.array([1.0, 1.0])))

