"""End-to-end acceptance gate.

Each test covers one numbered shipping criterion and prints exactly one
PASS/FAIL line with the measured quantities.  Thresholds are frozen; do
not loosen them to make a regression green.
"""

import dataclasses
import itertools
import math
import pathlib
import time

import numpy as np
import pytest

from offsetmpc import cli, grnn, numerics, ocp, plant, target
from offsetmpc import closed_loop as cl
from offsetmpc import estimator as est_mod

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def load_setpoint_file(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(t) for t in line.split()])
    return rows


def fresh_plant(rc):
    s = plant.PlantState(*rc.op.x_ss)
    return cl.NonlinearPlant(s, rc.params, rc.op, dt=rc.model.dt)


def deviations(rows, op):
    return [np.array([c - op.x_ss[0], T - op.x_ss[1]]) for c, T in rows]


def build_map(samples, capacity, sigma):
    g = grnn.make_model(capacity=capacity, n_out=2)
    for s in samples:
        g = grnn.add_sample(g, s.r, s.d_ss)
    return grnn.with_sigma(g, sigma)


def worst_terminal(log, start_from=None):
    out = []
    for s, e in cl.segment_bounds(log.records):
        rec = log.records[e - 1]
        if start_from is not None and log.records[s].time < start_from:
            continue
        out.append(float(np.abs(rec.z_p - rec.r).max()))
    return max(out)


def verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} {detail}"


@pytest.fixture(scope="session")
def sweep50(tracking_rc):
    rc = tracking_rc
    rows = load_setpoint_file(CONFIGS / "sweep_c_50.txt")
    t0 = time.monotonic()
    samples, _ = cl.sweep_harvest(rc.model, rc.dist, rc.make_gains(),
                                  rc.ocp_cfg, fresh_plant(rc),
                                  deviations(rows, rc.op),
                                  cap=rc.sweep_cap)
    return samples, time.monotonic() - t0


@pytest.fixture(scope="session")
def tracking_logs(tracking_rc, sweep50):
    rc = tracking_rc
    gains = rc.make_gains()
    samples, _ = sweep50
    out = {}
    for mode in (cl.ControllerMode.NOMINAL, cl.ControllerMode.LEARNED):
        g = None
        if mode is cl.ControllerMode.LEARNED:
            g = build_map(samples, rc.scenario.grnn_capacity,
                          rc.scenario.grnn_sigma)
        sc = dataclasses.replace(rc.scenario, mode=mode)
        t0 = time.monotonic()
        log = cl.run_scenario(sc, rc.model, rc.dist, gains, rc.ocp_cfg,
                              fresh_plant(rc), grnn=g)
        out[mode] = (log, time.monotonic() - t0)
        assert log.aborted is None
    return out


@pytest.fixture(scope="session")
def drift_log(drift_rc, sweep50):
    rc = drift_rc
    samples, _ = sweep50
    g = build_map(samples, rc.scenario.grnn_capacity, rc.scenario.grnn_sigma)
    log = cl.run_scenario(rc.scenario, rc.model, rc.dist, rc.make_gains(),
                          rc.ocp_cfg, fresh_plant(rc), grnn=g)
    assert log.aborted is None
    return log


@pytest.fixture(scope="session")
def twovar_results(twovar_rc, twovar400_rc):
    rc, rc4 = twovar_rc, twovar400_rc
    gains = rc.make_gains()
    rows100 = load_setpoint_file(CONFIGS / "sweep_ct_100.txt")
    rows400 = load_setpoint_file(CONFIGS / "sweep_ct_400.txt")
    s100, _ = cl.sweep_harvest(rc.model, rc.dist, gains, rc.ocp_cfg,
                               fresh_plant(rc), deviations(rows100, rc.op),
                               cap=rc.sweep_cap)
    s400, _ = cl.sweep_harvest(rc4.model, rc4.dist, gains, rc4.ocp_cfg,
                               fresh_plant(rc4), deviations(rows400, rc4.op),
                               cap=rc4.sweep_cap)

    logs = {}
    nom = dataclasses.replace(rc.scenario, mode=cl.ControllerMode.NOMINAL)
    logs["nominal"] = cl.run_scenario(nom, rc.model, rc.dist, gains,
                                      rc.ocp_cfg, fresh_plant(rc))
    g100 = build_map(s100, rc.scenario.grnn_capacity, rc.scenario.grnn_sigma)
    logs["learned100"] = cl.run_scenario(rc.scenario, rc.model, rc.dist,
                                         gains, rc.ocp_cfg, fresh_plant(rc),
                                         grnn=g100)
    g400 = build_map(s400, rc4.scenario.grnn_capacity,
                     rc4.scenario.grnn_sigma)
    logs["learned400"] = cl.run_scenario(rc4.scenario, rc4.model, rc4.dist,
                                         gains, rc4.ocp_cfg, fresh_plant(rc4),
                                         grnn=g400)
    for name, log in logs.items():
        assert log.aborted is None, name
    return logs


def test_criterion_01_admissibility(tracking_rc):
    t0 = time.monotonic()
    ok, results, _ = cli.run_checks(tracking_rc)
    elapsed = time.monotonic() - t0
    n_pass = sum(1 for status, _ in results if status == "PASS")
    verdict("CRITERION 1", ok and n_pass == 4 and elapsed < 1.0,
            f"({n_pass}/4 checks, {elapsed:.3f}s < 1s)")


def test_criterion_02_segment_end_offsets(tracking_logs):
    worsts = {}
    ok = True
    for mode, (log, elapsed) in tracking_logs.items():
        worsts[mode.value] = worst_terminal(log)
        ok = ok and worsts[mode.value] < 1e-4 and elapsed < 30.0
    verdict("CRITERION 2", ok,
            "(worst segment-end |e|: "
            + ", ".join(f"{k}={v:.3e}" for k, v in worsts.items())
            + " < 1e-4)")


def test_criterion_03_ise_reduction(tracking_logs):
    ise = {}
    for mode, (log, _) in tracking_logs.items():
        ise[mode.value] = cl.metrics(log)["total_ise"]
    red = 1.0 - ise["learned"] / ise["nominal"]
    verdict("CRITERION 3", red >= 0.30,
            f"(ISE {ise['nominal']:.4f} -> {ise['learned']:.4f}, "
            f"reduction {red:.1%} >= 30%)")


def test_criterion_04_supplementary_share(tracking_logs):
    log, _ = tracking_logs[cl.ControllerMode.LEARNED]
    for rec in log.records:
        assert np.array_equal(rec.d_total, rec.d_learned + rec.d_supp)
    ratios = []
    for s, e in cl.segment_bounds(log.records):
        rec = log.records[e - 1]
        ratios.append(np.abs(rec.d_supp).max() / np.abs(rec.d_total).max())
    verdict("CRITERION 4", max(ratios) <= 0.2,
            f"(max |d_supp|/|d_total| at segment ends "
            f"{max(ratios):.4f} <= 0.2, split exact on "
            f"{len(log.records)} records)")


def test_criterion_05_harvest_quality(sweep50, tracking_rc):
    samples, _ = sweep50
    worst_res = max(s.residual for s in samples)
    g = build_map(samples, 50, 0.5)
    sigma = grnn.select_sigma(g)
    g = grnn.with_sigma(g, sigma)
    rel = 0.0
    for s in samples:
        err = np.abs(grnn.predict(g, s.r) - s.d_ss).max()
        rel = max(rel, err / max(np.abs(s.d_ss).max(), 1e-12))
    ok = worst_res <= 1e-4 and rel <= 0.01
    verdict("CRITERION 5", ok,
            f"(cross-check residual {worst_res:.3e} <= 1e-4, "
            f"self-prediction {rel:.3e} <= 1% at sigma={sigma:g}, "
            f"{len(samples)} samples)")


def test_criterion_06_event_recovery(drift_log, drift_rc):
    log = drift_log
    event_t = log.events_applied[0][0]
    worst = worst_terminal(log, start_from=event_t)
    pre = np.array([s.d_ss for s in log.harvested if s.time < event_t])
    post = np.array([s.d_ss for s in log.harvested if s.time >= event_t])
    deltas = post - pre.mean(axis=0)
    signs_ok = all(len(set(np.sign(deltas[:, j]))) == 1 for j in range(2))
    moved = np.abs(deltas).min(axis=0).min() > 1e-3
    h_abs = np.array([rec.y_p[2] for rec in log.records]) + drift_rc.op.x_ss[2]
    level_ok = (h_abs >= 0.4).all() and (h_abs <= 1.2).all()
    ok = worst < 1e-4 and signs_ok and moved and level_ok
    verdict("CRITERION 6", ok,
            f"(post-event worst segment-end |e| {worst:.3e} < 1e-4, "
            f"{len(post)} post-event harvests drift sign-consistently, "
            f"level in [{h_abs.min():.3f}, {h_abs.max():.3f}])")


def test_criterion_07_richer_map_saturates(twovar_results):
    ise = {k: cl.metrics(v)["total_ise"] for k, v in twovar_results.items()}
    delta = abs(ise["learned400"] - ise["learned100"]) / ise["learned100"]
    ok = ise["learned100"] < ise["nominal"] and delta < 0.05
    verdict("CRITERION 7", ok,
            f"(ISE nominal {ise['nominal']:.2f}, learned100 "
            f"{ise['learned100']:.2f}, learned400 {ise['learned400']:.2f}, "
            f"saturation delta {delta:.2%} < 5%)")


def oracle_qp(H, f, A, b):
    """Global minimum of u'Hu + 2f'u s.t. Au <= b by active-set enumeration."""
    n, m = H.shape[0], A.shape[0]
    best_u, best_j = None, math.inf
    for size in range(0, min(n, m) + 1):
        for idx in itertools.combinations(range(m), size):
            W = A[list(idx)]
            K = np.block([[2.0 * H, W.T],
                          [W, np.zeros((size, size))]])
            rhs = np.concatenate([-2.0 * f, b[list(idx)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:n], sol[n:]
            if (lam < -1e-9).any():
                continue
            if (A @ u > b + 1e-9).any():
                continue
            j = u @ H @ u + 2.0 * f @ u
            if j < best_j - 1e-12:
                best_j, best_u = j, u
    return best_u, best_j


def test_criterion_08_qp_solver_vs_enumeration():
    rng = np.random.default_rng(17)
    n_feasible = n_infeasible = 0
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        R = rng.normal(size=(n, n))
        H = R @ R.T + 0.1 * np.eye(n)
        f = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = A @ rng.normal(size=n) + rng.uniform(-0.5, 1.5, size=m)
        if case % 7 == 3 and m >= 2:
            # contradictory pair guarantees an empty feasible set
            A[0] = -A[1]
            b[0], b[1] = -1.0, -1.0
        u_ref, j_ref = oracle_qp(H, f, A, b)
        qp = ocp.CondensedQp(H_j=H, f_j=f, c_j=0.0, A_in=A, b_in=b)
        if u_ref is None:
            n_infeasible += 1
            with pytest.raises(ocp.Infeasible):
                ocp.solve_qp(qp)
            continue
        n_feasible += 1
        sol = ocp.solve_qp(qp)
        worst = max(worst, float(np.abs(sol.u_seq - u_ref).max()))
        assert sol.objective == pytest.approx(j_ref, rel=1e-6, abs=1e-9)
    ok = worst <= 1e-6 and n_feasible >= 10 and n_infeasible >= 10
    verdict("CRITERION 8", ok,
            f"({n_feasible} feasible + {n_infeasible} infeasible cases, "
            f"max |u - u_ref| {worst:.2e} <= 1e-6)")


def test_criterion_09_lyapunov_descent(committed):
    m, dist, gains, cfg = committed
    d_star = np.array([0.01, -0.5])
    r = np.array([0.002, 0.3])
    g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                        np.zeros(2), d_star)
    sc = cl.ScenarioConfig(duration=100.0, schedule=((0.0, r),),
                           mode=cl.ControllerMode.LEARNED)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=d_star), grnn=g)
    pred = ocp.build_prediction(m, dist, cfg)
    tgt = target.TargetCalculator(m, dist).solve(d_star, r)
    trace = cl.lyapunov_trace(log, pred, cfg, tgt, d_star)
    margins = np.array(trace.margins)
    ok = (not trace.truncated and len(trace.values) == 100
          and margins.max() <= 1e-8
          and min(trace.values) >= -1e-12)
    verdict("CRITERION 9", ok,
            f"(100 steps on the matched linear loop, max descent margin "
            f"{margins.max():.2e} <= 1e-8)")


def test_criterion_10_corrupted_map_still_converges(tracking_rc, sweep50):
    rc = tracking_rc
    samples, _ = sweep50
    g = grnn.make_model(capacity=rc.scenario.grnn_capacity, n_out=2)
    for s in samples:
        g = grnn.add_sample(g, s.r, 2.0 * s.d_ss)  # doubled outputs
    g = grnn.with_sigma(g, rc.scenario.grnn_sigma)
    log = cl.run_scenario(rc.scenario, rc.model, rc.dist, rc.make_gains(),
                          rc.ocp_cfg, fresh_plant(rc), grnn=g)
    assert log.aborted is None
    worst = worst_terminal(log)
    verdict("CRITERION 10", worst < 1e-4,
            f"(doubled-map worst segment-end |e| {worst:.3e} < 1e-4)")


def test_criterion_11_numerical_foundations(committed):
    # integrator order via step halving
    p = plant.CstrParams(substeps=1)
    s0 = plant.PlantState(c=0.9, T=320.0, h=0.7)
    u = np.array([295.0, 0.11])

    def advance(dt, n):
        st = s0
        for _ in range(n):
            st = plant.step(st, u, p, dt)
        return st.as_array()

    ratio = (np.linalg.norm(advance(0.125, 1) - advance(0.0625, 2))
             / np.linalg.norm(advance(0.0625, 2) - advance(0.03125, 4)))
    order_ok = 12.0 <= ratio <= 20.0

    # pseudoinverse identities
    rng = np.random.default_rng(41)
    pinv_ok = True
    for _ in range(10):
        A = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
        P = numerics.pseudoinverse(A)
        pinv_ok &= np.allclose(A @ P @ A, A, atol=1e-8)
        pinv_ok &= np.allclose(P @ A @ P, P, atol=1e-8)
        pinv_ok &= np.allclose((A @ P).T, A @ P, atol=1e-8)
        pinv_ok &= np.allclose((P @ A).T, P @ A, atol=1e-8)

    # observer update superposition
    m, dist, gains, _ = committed
    est = est_mod.DisturbanceEstimator(m, dist, gains)

    def vec(e):
        return np.concatenate([e.x_hat, e.d_hat])

    lin_ok = True
    zero = np.zeros(2)
    for _ in range(5):
        xa, xb = rng.normal(size=3), rng.normal(size=3)
        da, db = rng.normal(size=2), rng.normal(size=2)
        ua, ub = rng.normal(size=2), rng.normal(size=2)
        ya, yb = rng.normal(size=3), rng.normal(size=3)
        both = est.learned_step(est_mod.AugmentedEstimate(xa + xb, da + db),
                                ua + ub, ya + yb, zero)
        one = est.learned_step(est_mod.AugmentedEstimate(xa, da), ua, ya, zero)
        two = est.learned_step(est_mod.AugmentedEstimate(xb, db), ub, yb, zero)
        lin_ok &= np.allclose(vec(both), vec(one) + vec(two), atol=1e-10)

    # kernel regression: hull confinement and kernel-width limits
    g = grnn.make_model(capacity=20, n_out=1)
    outs = rng.normal(size=8)
    for k in range(8):
        g = grnn.add_sample(g, rng.normal(size=2), np.array([outs[k]]))
    hull_ok = True
    for _ in range(20):
        y = grnn.predict(g, rng.normal(scale=4.0, size=2))[0]
        hull_ok &= outs.min() - 1e-12 <= y <= outs.max() + 1e-12
    wide = grnn.predict(grnn.with_sigma(g, 1e7), np.array([0.3, -0.4]))[0]
    mean_ok = abs(wide - outs.mean()) < 1e-6

    ok = order_ok and pinv_ok and lin_ok and hull_ok and mean_ok
    verdict("CRITERION 11", ok,
            f"(integration ratio {ratio:.1f} in [12, 20], pseudoinverse, "
            f"observer linearity, kernel hull and wide-width limits)")
