import collections
import dataclasses
import pathlib

import numpy as np
import pytest

from offsetmpc import closed_loop as cl
from offsetmpc import model as mdl
from offsetmpc import numerics, ocp, target

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    assert qp.factor is pred.factor
    for shared in (qp.H_j, qp.factor.L, qp.factor.Y, qp.factor.S):
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0
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
    K = pred.law.K[:cfg.n_u, :cfg.n_x]
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
                            warm_start=cold.u_seq.ravel() + rng.normal(scale=0.05, size=cold.u_seq.size))
        assert np.allclose(warm.u_seq, cold.u_seq, atol=1e-8)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)


def test_factor_holds_the_schur_data(committed):
    """L L' = 2 H_j, Y = (2 H_j)^-1 A_in' and S = A_in Y; a CondensedQp
    without a factor gets the same one inside solve_qp, so both solve
    alike bit for bit."""
    m, dist, _, cfg = committed
    pred = ocp.build_prediction(m, dist, cfg)
    L, Y, S = pred.factor.L, pred.factor.Y, pred.factor.S
    assert np.allclose(L @ L.T, 2.0 * pred.H_j, rtol=1e-12, atol=0.0)
    assert np.allclose(2.0 * pred.H_j @ Y, pred.A_in.T, rtol=0.0, atol=1e-9)
    assert np.allclose(S, pred.A_in @ Y, rtol=1e-12, atol=0.0)
    calc = target.TargetCalculator(m, dist)
    active = []
    # an interior problem, one with an input row active, and one with
    # input and state rows active
    for r in ([0.0, 0.0], [-0.04, 0.0], [0.04, 0.0]):
        tgt = calc.solve(np.zeros(2), np.array(r))
        qp = ocp.condense(pred, cfg, np.array([0.02, 1.0, 0.05]),
                          np.zeros(2), tgt)
        a = ocp.solve_qp(qp)
        b = ocp.solve_qp(dataclasses.replace(qp, factor=None))
        assert np.array_equal(a.u_seq, b.u_seq)
        assert a.active_set == b.active_set
        active.append(len(a.active_set))
    assert active[0] == 0 and active[1] >= 1 and active[2] >= 5


def test_early_exit_returns_the_unconstrained_minimizer():
    """A feasible unconstrained minimizer is returned with no active set
    and 0 iterations, with or without rows, and whatever the warm start."""
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = np.array([-1.0, 0.5])
    u_star = np.linalg.solve(H, -f)
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    for A_in, b_in, warm in ((np.zeros((0, 2)), np.zeros(0), None),
                             (rows, u_star + 1.0, None),
                             (rows, u_star + 1.0, u_star + 5.0)):
        qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=A_in, b_in=b_in)
        sol = ocp.solve_qp(qp, warm_start=warm)
        assert sol.active_set == [] and sol.iterations == 0
        assert np.allclose(sol.u_seq, u_star, rtol=0.0, atol=1e-14)
        assert sol.kkt_residual <= 1e-14
    # a row the minimizer violates by far less than TOL_FEAS still counts
    b_in = u_star + [-1e-10, 1.0]
    qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=rows, b_in=b_in)
    sol = ocp.solve_qp(qp)
    assert sol.active_set == [0] and sol.iterations >= 1
    assert sol.u_seq[0] == pytest.approx(b_in[0], rel=0.0, abs=1e-15)


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



# ---- reference: the dense-KKT active-set solver that the prefactored one
# replaced, kept as the oracle ----

def ref_kkt_solve(H, f, G, h, W):
    n = H.shape[0]
    m = len(W)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = 2.0 * H
    if m:
        GW = G[W]
        K[:n, n:] = GW.T
        K[n:, :n] = GW
    rhs = np.concatenate([-2.0 * f, h[W] if m else np.zeros(0)])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def ref_active_set_core(H, f, G, h, x0, W0, itmax, steps):
    """Full KKT solve per iteration and a per-row ratio loop; appends each
    ratio test's (alpha, blocker) to steps."""
    m = G.shape[0]
    x = x0.copy()
    W = sorted(W0)
    for it in range(itmax):
        try:
            xs, lam = ref_kkt_solve(H, f, G, h, W)
        except np.linalg.LinAlgError:
            W = W[:-1]
            continue
        p = xs - x
        if np.abs(p).max() <= 1e-11 * (1.0 + np.abs(x).max()):
            if len(W) == 0 or lam.min() >= -ocp.TOL_KKT:
                return xs, W, lam, it
            j = min(i for i, l in zip(W, lam) if l < -ocp.TOL_KKT)
            W.remove(j)
            continue
        alpha, blocker = ref_ratio_test(G @ p, G @ x, h, W)
        steps.append((alpha, blocker))
        x = x + alpha * p
        if blocker >= 0:
            W.append(blocker)
            W.sort()
    raise ocp.MaxIterations(f"no convergence in {itmax} iterations")


def ref_ratio_test(Gp, Gx, h, W):
    alpha = 1.0
    blocker = -1
    for i in range(Gp.shape[0]):
        if i in W or Gp[i] <= 1e-13 * (1.0 + abs(h[i])):
            continue
        ai = (h[i] - Gx[i]) / Gp[i]
        if ai < alpha - 1e-12:
            alpha = max(ai, 0.0)
            blocker = i
    return alpha, blocker


def ref_phase1(H, f, G, h, x0, itmax, steps):
    n = H.shape[0]
    m = G.shape[0]
    big = 1e6 * (np.trace(H) + np.abs(f).sum() + 1.0)
    H2 = np.zeros((n + 1, n + 1))
    H2[:n, :n] = H
    H2[n, n] = big
    f2 = np.concatenate([f, [big]])
    G2 = np.hstack([G, -np.ones((m, 1))])
    G2 = np.vstack([G2, np.concatenate([np.zeros(n), [-1.0]])])
    h2 = np.concatenate([h, [0.0]])
    s0 = max((G @ x0 - h).max(), 0.0) + 1.0
    z0 = np.concatenate([x0, [s0]])
    z, _, _, _ = ref_active_set_core(H2, f2, G2, h2, z0, [], itmax, steps)
    if z[n] > 1e-8:
        raise ocp.Infeasible(f"phase-1 slack {z[n]:.3e} > 1e-8")
    return z[:n]


def ref_solve_qp(qp, warm_start=None, steps=None):
    """Returns (u, active set, phase 1 ran)."""
    steps = [] if steps is None else steps
    H, f, G, h = qp.H_j, qp.f_j, qp.A_in, qp.b_in
    n, m = H.shape[0], G.shape[0]
    itmax = 50 * (n + m + 1)
    x0 = (np.zeros(n) if warm_start is None
          else np.asarray(warm_start, dtype=float).copy())
    phase1 = (G @ x0 - h).max() > ocp.TOL_FEAS
    if phase1:
        x0 = ref_phase1(H, f, G, h, x0, itmax, steps)
    x, W, _, _ = ref_active_set_core(H, f, G, h, x0, [], itmax, steps)
    return x, W, phase1


def outcome(solve):
    try:
        return solve()
    except (ocp.Infeasible, ocp.MaxIterations) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def twovar(twovar_rc):
    rc = twovar_rc
    return (rc.model, rc.dist, rc.ocp_cfg,
            ocp.build_prediction(rc.model, rc.dist, rc.ocp_cfg),
            target.TargetCalculator(rc.model, rc.dist))


def test_solver_matches_dense_kkt_reference(twovar):
    """Seeded twovar QPs whose states, disturbances and targets reach the
    input and state boxes, solved cold, from a shifted warm start, and
    from an infeasible warm start that forces phase 1: the prefactored solver ends on the reference's active
    set and input sequence, and fails where it fails."""
    m, dist, cfg, pred, calc = twovar
    (x_lo, x_hi), N, n_u = cfg.x_bounds, cfg.N, cfg.n_u
    rng = np.random.default_rng(2024)
    seen = {"phase1": 0, "infeasible": 0, "rows": 0, "solved": 0}
    for k in range(36):
        # every sixth state lies far outside the state box
        x_hat = rng.uniform(x_lo, x_hi) * (3.0 if k % 6 == 0 else 1.3)
        d = np.array([rng.uniform(-0.012, 0.004), rng.uniform(-1.0, 7.0)])
        r = np.array([rng.uniform(-0.05, 0.045), rng.uniform(-4.5, 5.0)])
        tgt = calc.solve(d, r)
        qp = ocp.condense(pred, cfg, x_hat, d, tgt)
        cold = outcome(lambda: ocp.solve_qp(qp))
        starts = [None, rng.uniform(-20.0, 20.0, size=N * n_u)]
        if not isinstance(cold, type):
            # the next interval's problem from a slightly moved state,
            # started from the shifted inputs
            shifted = np.concatenate([cold.u_seq[n_u:], tgt.u_bar])
            x_next = x_hat + rng.normal(scale=0.002, size=3)
            qp = ocp.condense(pred, cfg, x_next, d, tgt)
            starts += [shifted, shifted + rng.normal(scale=0.5, size=N * n_u)]
        for warm in starts:
            got = outcome(lambda: ocp.solve_qp(qp, warm_start=warm))
            ref = outcome(lambda: ref_solve_qp(qp, warm))
            if isinstance(ref, type):
                assert got is ref
                seen["infeasible"] += ref is ocp.Infeasible
                continue
            u_ref, W_ref, phase1 = ref
            assert not isinstance(got, type), got
            assert got.active_set == W_ref
            assert (np.abs(got.u_seq - u_ref)
                    <= 1e-9 * np.maximum(1.0, np.abs(u_ref))).all()
            seen["phase1"] += phase1
            seen["rows"] = max(seen["rows"], len(W_ref))
            seen["solved"] += 1
    # the draws cover what the sweep meets: phase 1, infeasible problems
    # and working sets of several rows
    assert seen["phase1"] >= 50 and seen["infeasible"] >= 3
    assert seen["rows"] >= 4 and seen["solved"] >= 100, seen


# ---- reference: the per-interval target solve and condense that the
# affine law replaced on unconstrained intervals, kept as its oracle ----

def ref_target(m, dist, d, r):
    """LU solve of the target equations with the right-hand side built
    from (d, r) on the interval."""
    M = np.block([[m.A - np.eye(m.n_x), m.B],
                  [m.H @ m.C, np.zeros((m.n_z, m.n_u))]])
    sol = numerics.solve_linear(M, np.concatenate([-dist.B_d @ d,
                                                   r - m.H @ dist.C_d @ d]))
    return target.TargetPair(sol[:m.n_x], sol[m.n_x:])


def ref_chain(m, dist, cfg, pred, theta):
    """(target, condensed QP, A_in u* - b_in) through the LU target and
    condense."""
    x_hat, d, r = np.split(theta, [m.n_x, m.n_x + dist.n_d])
    tgt = ref_target(m, dist, d, r)
    qp = ocp.condense(pred, cfg, x_hat, d, tgt)
    u_star = numerics.cho_solve(pred.factor.L, -2.0 * qp.f_j)
    return tgt, qp, qp.A_in @ u_star - qp.b_in


def test_affine_law_matches_target_condense_qp_chain(twovar):
    """Seeded theta = [x_hat; d; r] on twovar, with targets outside the box,
    predicted states past x_bounds, and theta scaled so that the largest
    slack of the unconstrained minimizer is +-1e-9: the affine law, read
    by ActiveSetTable.solve with an empty table as the loop reads it,
    takes its free path (an empty active set and no miss) exactly when
    the LU target -> condense -> solve_qp chain exits early, with the
    chain's input sequence, target and objective. Otherwise the table's
    miss ends where the chain's cold solve_qp does."""
    m, dist, cfg, pred, calc = twovar
    n_u_rows = 2 * cfg.N * cfg.n_u
    rng = np.random.default_rng(606)
    (u_lo, u_hi), (x_lo, x_hi) = cfg.u_bounds, cfg.x_bounds
    seen = {"exit": 0, "qp": 0, "edge_in": 0, "edge_out": 0,
            "x_rows": 0, "u_rows": 0, "target_out": 0}
    for _ in range(120):
        x_hat = rng.uniform(x_lo, x_hi) * rng.choice([0.02, 0.2, 1.3])
        d = np.array([rng.uniform(-0.012, 0.004), rng.uniform(-1.0, 7.0)])
        r = np.array([rng.uniform(-0.05, 0.045), rng.uniform(-4.5, 5.0)])
        theta = np.concatenate([x_hat, d, r])
        thetas = [theta]
        # the slack is linear in theta less b_box: scale theta so that its
        # largest entry is +-1e-9
        lin = ref_chain(m, dist, cfg, pred, theta)[2] + pred.b_box
        up = lin > 0.0
        for eps in (1e-9, -1e-9):
            thetas.append(theta * ((pred.b_box[up] + eps) / lin[up]).min())
        for j, th in enumerate(thetas):
            tgt_ref, qp, slack = ref_chain(m, dist, cfg, pred, th)
            if j:
                assert slack.max() == pytest.approx(
                    (1e-9, -1e-9)[j - 1], rel=1e-3)
            tgt = calc.solve(th[3:5], th[5:])
            for got, ref in ((tgt.x_bar, tgt_ref.x_bar),
                             (tgt.u_bar, tgt_ref.u_bar)):
                assert (np.abs(got - ref)
                        <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()
            seen["target_out"] += not ((u_lo <= tgt.u_bar).all()
                                       and (tgt.u_bar <= u_hi).all()
                                       and (x_lo <= tgt.x_bar).all()
                                       and (tgt.x_bar <= x_hi).all())
            table = ocp.ActiveSetTable(pred)
            fast = outcome(lambda: table_solve(table, th))
            sol = outcome(lambda: ocp.solve_qp(qp))
            exits = (slack <= 0.0).all()
            assert (table.misses == 0) == exits
            assert (not isinstance(sol, type) and sol.iterations == 0
                    and not sol.active_set) == exits
            if not exits:
                assert_same_solution(fast, sol)
                seen["qp"] += 1
                seen["x_rows"] += bool((slack[n_u_rows:] > 0.0).any())
                seen["u_rows"] += bool((slack[:n_u_rows] > 0.0).any())
                seen["edge_out"] += j == 1
                continue
            seen["exit"] += 1
            seen["edge_in"] += j == 2
            assert fast.active_set == [] and fast.iterations == 0
            assert (np.abs(fast.u_seq - sol.u_seq)
                    <= 1e-12 * np.maximum(1.0, np.abs(sol.u_seq))).all()
            assert fast.objective == pytest.approx(sol.objective, rel=1e-9,
                                                   abs=1e-12)
            assert fast.kkt_residual is None
            assert table_residual(twovar, th, fast) <= 1e-8
    assert min(seen.values()) >= 20, seen


def test_stacked_law_holds_the_target_and_the_law_as_read_only_rows(twovar):
    """law.P stacks [0 | T], S, K and Q; S, K and Q are its row views, so
    one product z = P theta gives them all, and none can be written."""
    m, dist, cfg, pred, calc = twovar
    law = pred.law
    n_t, n_s, n_k = m.n_x + m.n_u, pred.A_in.shape[0], cfg.N * cfg.n_u
    n_p = m.n_x + dist.n_d + m.n_z
    assert law.n_t == n_t and law.P.shape == (n_t + n_s + n_k + n_p, n_p)
    assert np.array_equal(law.P[:n_t],
                          np.hstack([np.zeros((n_t, m.n_x)), calc.T]))
    for view, rows in ((law.S, slice(n_t, n_t + n_s)),
                       (law.K, slice(n_t + n_s, n_t + n_s + n_k)),
                       (law.Q, slice(n_t + n_s + n_k, None))):
        assert view.base is law.P and np.array_equal(view, law.P[rows])
    assert law.S.shape == (n_s, n_p) and law.K.shape == (n_k, n_p)
    assert np.array_equal(law.Q, law.Q.T)
    for a in (law.P, law.S, law.K, law.Q):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


@pytest.mark.parametrize("x_box", [True, False], ids=["x_box", "no_x_box"])
def test_every_array_of_the_prediction_data_is_read_only(twovar, x_box):
    """Every loop of one command shares build_prediction's result, so each
    array it holds, in its own fields, in factor's and in law's, is
    read-only, a field added later included."""
    m, dist, cfg, _, _ = twovar
    if not x_box:
        cfg = dataclasses.replace(cfg, x_bounds=None)
    pred = ocp.build_prediction(m, dist, cfg)
    held = [(type(part).__name__, f.name, getattr(part, f.name))
            for part in (pred, pred.factor, pred.law)
            for f in dataclasses.fields(part)]
    arrays = [(owner, name, a) for owner, name, a in held
              if isinstance(a, np.ndarray)]
    assert len(arrays) == len(held) - 3    # all but factor, law and n_t
    for owner, name, a in arrays:
        assert not a.flags.writeable, (owner, name)
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


# ---- partial enumeration: ActiveSetTable lookups against condense ->
# solve_qp from a cold start ----

def constrained_thetas():
    """theta = [x_hat; d_total; r] on the intervals of the committed twovar
    runs that end with an active row."""
    thetas = []
    for mode in ("nominal", "learned"):
        records = cl.read_log_csv(
            str(ROOT / "out" / f"cstr_twovar_{mode}.csv"))
        thetas += [np.concatenate([rec.x_hat, rec.d_total, rec.r])
                   for rec in records if rec.active_set_size]
    assert len(thetas) >= 4
    return thetas


def condense_at(twovar, theta):
    m, dist, cfg, pred, calc = twovar
    x_hat, d, r = np.split(theta, [m.n_x, m.n_x + dist.n_d])
    return ocp.condense(pred, cfg, x_hat, d, calc.solve(d, r))


def table_solve(table, theta):
    """ActiveSetTable.solve as the control loop calls it, with the affine
    law's product z = P theta."""
    return table.solve(theta, table.pred.law.P @ theta)


def table_residual(twovar, theta, got):
    """The KKT residual of a table result on condense_at(theta), measured
    as solve_qp measures it; the multipliers of a hit come from the dense
    KKT solve of its working set, and the free path has none."""
    qp = condense_at(twovar, theta)
    W = got.active_set
    lam = (ref_kkt_solve(qp.H_j, qp.f_j, qp.A_in, qp.b_in, W)[1] if W
           else np.zeros(0))
    return ocp._kkt_residual(qp.H_j, qp.f_j, qp.A_in, qp.b_in, got.u_seq,
                             W, lam)


def assert_same_solution(got, ref):
    """A table result equals solve_qp's: the same exception, or the same
    active set, the input sequence within 1e-12 and the objective within
    1e-9, relative."""
    if isinstance(ref, type):
        assert got is ref
        return
    assert not isinstance(got, type), got
    assert got.active_set == ref.active_set
    assert (np.abs(got.u_seq - ref.u_seq)
            <= 1e-12 * np.maximum(1.0, np.abs(ref.u_seq))).all()
    assert got.objective == pytest.approx(ref.objective, rel=1e-9,
                                          abs=1e-12)


def test_table_misses_match_cold_solve_qp(twovar, monkeypatch):
    """On every constrained interval of the committed twovar runs, and on
    seeded draws around them, an empty table misses and solves the QP
    itself from the affine law's u* and slack: it ends on the active set,
    input sequence, objective and iteration count of condense -> solve_qp
    from a cold start, through phase 1 where solve_qp takes it, and stores
    that working set first."""
    pred = twovar[3]
    phase1 = []
    real = ocp._phase1

    def counted(*args):
        phase1.append(1)
        return real(*args)

    monkeypatch.setattr(ocp, "_phase1", counted)
    rng = np.random.default_rng(505)
    seen = collections.Counter()
    for theta0 in constrained_thetas():
        for theta in [theta0] + [
                theta0 * (1.0 + rng.normal(scale=0.3, size=theta0.size))
                for _ in range(7)]:
            del phase1[:]
            ref = outcome(lambda: ocp.solve_qp(condense_at(twovar, theta)))
            ref_phase1 = len(phase1)
            table = ocp.ActiveSetTable(pred)
            got = outcome(lambda: table_solve(table, theta))
            if not isinstance(ref, type) and not ref.active_set:
                assert table.misses == 0
                continue
            # phase 1 ran for the table's solve as often as for solve_qp
            assert table.misses == 1 and len(phase1) == 2 * ref_phase1
            assert_same_solution(got, ref)
            if isinstance(ref, type):
                seen["failed"] += 1
                continue
            assert got.iterations == ref.iterations
            assert got.kkt_residual is None
            assert table.entries[0].rows.tolist() == got.active_set
            seen["phase1"] += ref_phase1
            seen["solved"] += 1
    assert seen["solved"] >= 40 and seen["phase1"] >= 10, seen


def test_table_hits_match_cold_solve_qp(twovar):
    """Seeded theta around the committed twovar runs' constrained
    intervals, each fresh draw followed by three draws close to it: every
    table hit returns the active set that condense -> solve_qp finds from
    a cold start, its input sequence and objective, and a measured KKT
    residual. A miss stores its own working set."""
    pred = twovar[3]
    table = ocp.ActiveSetTable(pred)
    rng = np.random.default_rng(707)
    hit_rows = collections.Counter()
    residuals = set()
    for theta0 in constrained_thetas():
        for scale in (0.01, 0.1, 0.3, 0.6):
            for _ in range(4):
                base = theta0 * (1.0 + rng.normal(scale=scale,
                                                  size=theta0.size))
                for j in range(4):
                    theta = (base * (1.0 + rng.normal(scale=1e-3,
                                                      size=base.size))
                             if j else base)
                    ref = outcome(lambda: ocp.solve_qp(
                        condense_at(twovar, theta)))
                    hits = table.hits
                    got = outcome(lambda: table_solve(table, theta))
                    if table.hits == hits:
                        continue
                    assert not isinstance(ref, type), ref
                    assert got.active_set == ref.active_set
                    assert (np.abs(got.u_seq - ref.u_seq)
                            <= 1e-12 * np.maximum(1.0, np.abs(ref.u_seq))).all()
                    assert got.objective == pytest.approx(
                        ref.objective, rel=1e-9, abs=1e-12)
                    assert got.kkt_residual is None
                    res = table_residual(twovar, theta, got)
                    assert np.isfinite(res)
                    assert res <= 1e-8
                    assert got.iterations == 0
                    hit_rows[len(got.active_set)] += 1
                    residuals.add(res)
    assert sum(hit_rows.values()) == table.hits >= 300
    # single input rows, input pairs and sets with many state rows
    assert len(hit_rows) >= 3 and max(hit_rows) >= 5, hit_rows
    assert len(residuals) > 1


def test_table_hit_multipliers_match_the_cholesky_solve(twovar):
    """Each entry stores S_WW^-1, read-only. On every hit, its product with
    r_u[W] matches the multipliers of the Cholesky solve of S_WW (the form
    it replaced) within TOL_KKT, and the hit's inputs are K theta - Y_W lam
    for those multipliers."""
    pred = twovar[3]
    law, fac = pred.law, pred.factor
    table = ocp.ActiveSetTable(pred)
    rng = np.random.default_rng(909)
    hits = 0
    for theta0 in constrained_thetas():
        for _ in range(8):
            theta = theta0 * (1.0 + rng.normal(scale=0.3, size=theta0.size))
            before = table.hits
            got = outcome(lambda: table_solve(table, theta))
            if table.hits == before:
                continue
            W = got.active_set
            entry = table.entries[0]
            assert entry.rows.tolist() == W
            assert not entry.S_inv.flags.writeable
            r_W = (law.S @ theta - pred.b_box)[W]
            lam = numerics.cho_solve(
                numerics.cholesky(fac.S[np.ix_(W, W)]), r_W)
            assert np.abs(entry.S_inv @ r_W - lam).max() <= ocp.TOL_KKT
            u_ref = law.K @ theta - fac.Y[:, W] @ lam
            assert (np.abs(got.u_seq - u_ref)
                    <= 1e-12 * np.maximum(1.0, np.abs(u_ref))).all()
            hits += 1
    assert hits == table.hits >= 20


def test_table_misses_without_strict_complementarity(twovar):
    """theta scaled along its ray so that one multiplier of a stored working
    set W is within TOL_KKT of 0, or one row outside W within TOL_FEAS of
    its bound, with every other condition holding by ten tolerances: the
    lookup misses, and the table's own solve ends on the active set of a
    cold solve_qp. Scaled to twice the tolerance instead, it hits with W.
    Multipliers and slacks come from the dense KKT solve of W."""
    pred = twovar[3]
    n_rows = pred.A_in.shape[0]

    def kkt_on(theta, W):
        qp = condense_at(twovar, theta)
        x, lam = ref_kkt_solve(qp.H_j, qp.f_j, qp.A_in, qp.b_in, W)
        return lam, qp.A_in @ x - qp.b_in

    rng = np.random.default_rng(808)
    seen = collections.Counter()
    for theta0 in constrained_thetas():
        for _ in range(3):
            theta = theta0 * (1.0 + rng.normal(scale=0.3, size=theta0.size))
            sol = outcome(lambda: ocp.solve_qp(condense_at(twovar, theta)))
            if isinstance(sol, type) or not sol.active_set:
                continue
            W = sol.active_set
            out = np.setdiff1d(np.arange(n_rows), W)
            # both are affine in s along s * theta
            lam0, slack0 = kkt_on(0.0 * theta, W)
            lam1, slack1 = kkt_on(theta, W)
            cases = [("lam", i, ocp.TOL_KKT) for i in range(len(W))]
            cases += [("slack", j, -ocp.TOL_FEAS) for j in out]
            for kind, idx, tol in cases:
                v0, v1 = ((lam0, lam1) if kind == "lam"
                          else (slack0, slack1))
                if v1[idx] == v0[idx]:
                    continue
                for c, hit in ((0.5, False), (2.0, True)):
                    s = (c * tol - v0[idx]) / (v1[idx] - v0[idx])
                    if not 0.2 < s < 5.0:
                        continue
                    lam, slack = kkt_on(s * theta, W)
                    got_v = (lam if kind == "lam" else slack)[idx]
                    others_lam = np.delete(lam, idx) if kind == "lam" else lam
                    others_out = (out if kind == "lam"
                                  else out[out != idx])
                    if not (got_v == pytest.approx(c * tol, rel=1e-3)
                            and (others_lam > 10 * ocp.TOL_KKT).all()
                            and (slack[others_out]
                                 < -10 * ocp.TOL_FEAS).all()):
                        continue
                    table = ocp.ActiveSetTable(pred)
                    table.insert(W)
                    got = outcome(lambda: table_solve(table, s * theta))
                    if hit:
                        assert table.hits == 1 and got.active_set == W
                    else:
                        cold = outcome(lambda: ocp.solve_qp(
                            condense_at(twovar, s * theta)))
                        assert table.misses == 1
                        assert got.active_set == cold.active_set
                    seen[kind, hit] += 1
    assert len(seen) == 4 and min(seen.values()) >= 5, seen


def test_table_never_stores_a_dependent_working_set(twovar):
    """Working sets whose rows are dependent (an input's upper and lower
    row, a predicted state's upper and lower row, 21 rows in 20 inputs) are
    not stored, although rounding leaves some of them a Cholesky factor of
    S_WW; an independent set is stored."""
    m, dist, cfg, pred, calc = twovar
    n_in, n_x_rows = cfg.N * cfg.n_u, cfg.N * cfg.n_x
    x_up = 2 * n_in
    rng = np.random.default_rng(11)
    dependent = [[i, n_in + i] for i in range(n_in)]
    dependent += [[x_up + k, x_up + n_x_rows + k] for k in range(n_x_rows)]
    dependent += [sorted(rng.choice(pred.A_in.shape[0], size=n_in + 1,
                                    replace=False).tolist())
                  for _ in range(20)]
    table = ocp.ActiveSetTable(pred)
    for W in dependent:
        assert numerics.matrix_rank(pred.A_in[W]) < len(W)
        table.insert(W)
        assert table.entries == [], W
    table.insert([21, 23])
    assert [e.rows.tolist() for e in table.entries] == [[21, 23]]


def test_table_keeps_the_most_recent_sets_first(twovar):
    """At most TABLE_SIZE entries, most recently inserted or hit first; a
    set inserted again moves to the front and is not stored twice, and an
    empty set is not stored."""
    pred = twovar[3]
    table = ocp.ActiveSetTable(pred)
    for i in range(ocp.TABLE_SIZE + 5):
        table.insert([i])
    order = [e.rows[0] for e in table.entries]
    assert order == list(range(ocp.TABLE_SIZE + 4, 4, -1))
    table.insert([10])
    assert [e.rows[0] for e in table.entries] == [10] + [i for i in order
                                                      if i != 10]
    table.insert([])
    assert len(table.entries) == ocp.TABLE_SIZE
    # the committed runs' first constrained interval has the one row 21
    # active: a hit on the second entry moves it to the front
    table = ocp.ActiveSetTable(pred)
    table.insert([21])
    table.insert([21, 23])
    assert table_solve(table, constrained_thetas()[0]).active_set == [21]
    assert table.hits == 1
    assert [e.rows.tolist() for e in table.entries] == [[21], [21, 23]]


def ratio_cases():
    """(Gp, Gx, h, W) with ties: equal ratios, zero ratios, rows exactly at
    their bound, ratios within the 1e-12 band of each other or of a full
    step, rows barely moving, and random draws from a coarse grid."""
    h = np.array([1.0, 1.0, 0.0, 2.0, 1.0, 3.0])
    cases = [
        (np.array([2.0, 2.0, 1.0, 4.0, 1.0, 1.0]),      # 0, 1, 3: ratio 0.5
         np.zeros(6), h, []),
        (np.array([2.0, 2.0, 1.0, 4.0, 1.0, 1.0]),      # row 2 at its bound
         np.zeros(6), h, [2]),                          # but in W
        (np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),      # 1 and 4 at bound: 0
         np.array([0.5, 1.0, -1.0, 1.0, 1.0, 0.0]), h, []),
        (np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]),      # slightly past: clamp
         np.array([0.0, 1.0 + 1e-14, 0.0, 2.0 + 1e-13, 0.9, 0.0]), h, []),
        (np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),      # inside the tie band
         np.array([0.3, 0.3 - 5e-13, 0.0, 1.7 + 2e-12, 0.0, 0.0]), h, []),
        (np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),      # 1e-12 short of 1
         np.array([1e-12, 5e-13, -1.0, 1.0 + 2e-12, 0.0, 2.0]), h, []),
        (np.array([1e-14, 2e-13, 1e-13, -1.0, 1.0, 0.0]),   # barely moving
         np.zeros(6), np.array([1e-15, 1e-14, 0.0, 0.0, 0.0, 0.0]), []),
    ]
    rng = np.random.default_rng(3)
    for _ in range(3000):
        k = int(rng.integers(1, 12))
        cases.append((rng.integers(-2, 3, size=k) / 2.0,
                      rng.integers(-2, 3, size=k) / 4.0,
                      rng.integers(-1, 3, size=k) / 4.0,
                      sorted(rng.choice(k, size=int(rng.integers(0, k)),
                                        replace=False).tolist())))
    return cases


def test_ratio_test_matches_sequential_loop():
    for Gp, Gx, h, W in ratio_cases():
        assert ocp._ratio_test(Gp, Gx, h, W) == ref_ratio_test(Gp, Gx, h, W), \
            (Gp, Gx, h, W)


@pytest.mark.parametrize("case", ["equal ratios", "zero ratio",
                                  "row at bound", "phase 1 ties",
                                  "leaving rows"])
def test_blocker_sequence_matches_reference(case, monkeypatch):
    """Hand-built QPs with tied blockers: both solvers take the same steps
    and add the same rows in the same order."""
    n = 4
    H, f = np.eye(n), -np.full(n, 2.0)     # unconstrained minimizer at 2
    G = np.vstack([np.eye(n), np.eye(n)])   # rows i and i + 4 coincide
    h = np.ones(2 * n)
    warm, W0 = None, []
    if case == "leaving rows":
        # minimizer at -2, start at the upper bounds with all four rows in
        # the working set: every multiplier is negative, and the rows leave
        # lowest index first
        f, G = -f, np.vstack([np.eye(n), -np.eye(n)])
        warm, W0 = np.ones(n), [0, 1, 2, 3]
    elif case == "zero ratio":
        warm = np.array([1.0, 0.0, 1.0, 0.0])   # rows 0, 2 (and 4, 6) at 1
    elif case == "row at bound":
        G = np.vstack([G, np.ones((1, n))])     # sum <= 1 holds with equality
        h = np.append(h, 1.0)
        warm = np.array([0.25, 0.25, 0.25, 0.25])
    elif case == "phase 1 ties":
        warm = np.full(n, 3.0)                  # every row violated equally
    qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=G, b_in=h)
    steps = []
    real = ocp._ratio_test

    def recorded(*args):
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(ocp, "_ratio_test", recorded)
    ref_steps = []
    if W0:
        # solve_qp starts from an empty working set, so a given one is
        # passed to the core of each solver
        fac = ocp.factor_qp(H, G)
        x_u = numerics.cho_solve(fac.L, -2.0 * f)
        itmax = 50 * (n + G.shape[0] + 1)
        u, W, _, _ = ocp._active_set_core(G, h, fac.Y, fac.S, x_u,
                                          G @ x_u - h, warm, W0, itmax)
        u_ref, W_ref, _, _ = ref_active_set_core(H, f, G, h, warm, W0,
                                                 itmax, ref_steps)
    else:
        sol = ocp.solve_qp(qp, warm_start=warm)
        u, W = sol.u_seq, sol.active_set
        u_ref, W_ref, _ = ref_solve_qp(qp, warm, ref_steps)
    assert [b for _, b in steps] == [b for _, b in ref_steps]
    assert np.allclose([a for a, _ in steps], [a for a, _ in ref_steps],
                       rtol=0.0, atol=1e-12)
    assert steps
    assert W == W_ref
    assert np.allclose(u, u_ref, rtol=0.0, atol=1e-12)
