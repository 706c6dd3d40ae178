import collections
import dataclasses
import pathlib
import re
import types
import warnings

import numpy as np
import pytest

from offsetmpc import cli
from offsetmpc import closed_loop as cl
from offsetmpc import estimator as est_mod
from offsetmpc import grnn, kernels, ocp, plant
from offsetmpc import model as model_mod

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def scenario(duration, schedule, mode, **kw):
    return cl.ScenarioConfig(duration=duration, schedule=tuple(schedule),
                             mode=mode, **kw)


def zrec(time=0.0, r=None, y_p=None, z_p=None, u=None, steady=False):
    z2, z3 = np.zeros(2), np.zeros(3)
    return cl.StepRecord(
        time=time, r=z2 if r is None else r, y_p=z3 if y_p is None else y_p,
        z_p=z2 if z_p is None else z_p, u=z2 if u is None else u,
        x_hat=z3, d_learned=z2, d_supp=z2, d_total=z2,
        x_bar=z3, u_bar=z2, qp_objective=0.0, active_set_size=0,
        steady=steady, harvested=False)


def test_schedule_validation():
    nominal = cl.ControllerMode.NOMINAL
    z, one = np.zeros(2), np.ones(2)
    for duration, schedule in (
            (10.0, [(5.0, z)]),
            (10.0, [(0.0, z), (0.0, one)]),
            # a NaN time compares false with its neighbours
            (10.0, [(np.nan, z), (4.0, one)]),
            (10.0, [(0.0, z), (np.nan, one), (4.0, z)]),
            (10.0, [(0.0, z), (4.0, one), (np.nan, z)]),
            (np.nan, [(0.0, z)]),
            (np.inf, [(0.0, z), (4.0, one)]),
            (-np.inf, [(0.0, z)]),
            (3.9, [(0.0, z), (4.0, one)]),
            # setpoints: non-finite at the first or a later entry, and of
            # unequal lengths
            (10.0, [(0.0, (np.nan, 0.0))]),
            (10.0, [(0.0, z), (4.0, (0.0, np.inf))]),
            (10.0, [(0.0, z), (4.0, (-np.inf, 0.0))]),
            (10.0, [(0.0, z), (4.0, (0.0, 0.0, 0.0))]),
            (10.0, [(0.0, (0.0,)), (4.0, z)])):
        with pytest.raises(ValueError):
            scenario(duration, schedule, nominal)
    sc = scenario(10.0, [(0.0, z), (4.0, one)], nominal)
    assert [(t, r.tolist()) for t, r in sc.schedule] == [
        (0.0, [0.0, 0.0]), (4.0, [1.0, 1.0])]


def count_intervals(monkeypatch):
    """A list to which each ControlLoop.control_step call appends its k."""
    calls = []
    control_step = cl.ControlLoop.control_step

    def counted(loop):
        calls.append(loop.k)
        return control_step(loop)
    monkeypatch.setattr(cl.ControlLoop, "control_step", counted)
    return calls


def assert_event_time_rejected(committed, time):
    """run_scenario raises the CLI's message for an event at time, the
    second of a 10-interval run, before its first interval."""
    m, dist, gains, cfg = committed
    events = ((2.0, {"d_star": (0.0, 0.0)}), (time, {"d_star": (0.1, 0.0)}))
    sc = scenario(10 * m.dt, [(0.0, np.zeros(2))], cl.ControllerMode.NOMINAL,
                  events=events)
    plant = cl.LinearPlant(m, dist, np.zeros(2))
    # an interval or an event would call one of these
    plant.step = plant.apply_event = None
    with pytest.raises(ValueError, match="^" + re.escape(
            f"scenario.events[1].time: {time:.17g} is outside the run; an "
            f"event must fall in [0, {9 * m.dt:.17g}], the first to the "
            "last interval's start") + "$"):
        cl.run_scenario(sc, m, dist, gains, cfg, plant)


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_an_event_at_a_non_finite_time_is_rejected(committed, time):
    """An event whose time is not finite would never fire at its time, so
    run_scenario rejects it as it rejects one outside the run."""
    assert_event_time_rejected(committed, time)


@pytest.mark.parametrize("periods", [50.0, 9.5, -3.0])
def test_run_scenario_rejects_an_event_no_interval_reaches(committed,
                                                          periods):
    """An event past the last interval's start, 9 dt in a 10-interval
    run, or before 0 would not fire at its time: run_scenario raises the
    CLI's message before its first interval."""
    assert_event_time_rejected(committed, periods * committed[0].dt)


BAD_API_EVENTS = {
    "unknown key": ("nonlinear", {"foo": 1.0}, plant.UnknownEvent),
    "k0: -1": ("nonlinear", {"k0": -1.0}, ValueError),
    "linear x": ("linear", {"x": 1.0}, plant.UnknownEvent),
    "linear d_star of 3 entries": ("linear", {"d_star": [0.01, -0.5, 0.3]},
                                   ValueError),
    "linear d_star nan": ("linear", {"d_star": [np.nan, 0.0]}, ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_API_EVENTS))
def test_run_scenario_rejects_a_bad_event_before_the_first_interval(
        tracking_rc, monkeypatch, case):
    """An event at t = 5 that the plant cannot apply raises, naming the
    event, before the first interval, and the plant keeps its state and
    parameters."""
    kind, event, error = BAD_API_EVENTS[case]
    rc = tracking_rc
    sc = dataclasses.replace(rc.scenario, events=((5.0, event),))
    if kind == "nonlinear":
        plant_ = cli._fresh_plant(rc)
        def snapshot(): return plant_.state, plant_.params
    else:
        plant_ = cl.LinearPlant(rc.model, rc.dist, np.array([0.01, -0.5]))
        def snapshot(): return plant_.x.tolist(), plant_.d_star.tolist()
    before = snapshot()
    intervals = count_intervals(monkeypatch)
    with pytest.raises(error, match=r"^scenario\.events\[0\]: "):
        cl.run_scenario(sc, rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                        plant_)
    assert intervals == [] and snapshot() == before


@pytest.mark.parametrize("d_star", [[np.nan, 0.0], [0.0, np.inf],
                                    [0.01, -0.5, 0.3], [[0.01, -0.5]]])
def test_linear_plant_checks_its_d_star(committed, d_star):
    m, dist, _, _ = committed
    with pytest.raises(ValueError, match="^d_star must be 2 finite entries"):
        cl.LinearPlant(m, dist, d_star)


def test_linear_plant_keeps_a_copy_of_its_d_star(committed):
    m, dist, _, _ = committed
    d_star = np.array([0.01, -0.5])
    plant_ = cl.LinearPlant(m, dist, d_star)
    d_star[0] = np.nan
    assert plant_.d_star.tolist() == [0.01, -0.5]


@pytest.mark.parametrize("bad, message", [
    ([np.nan, 0.0], "setpoint [nan, 0.0] is not finite"),
    ([0.01, 0.0, 0.0], "setpoint has 3 entries, the model controls 2")])
def test_sweep_checks_every_setpoint_before_the_first_interval(
        tracking_rc, monkeypatch, bad, message):
    """A bad second setpoint raises set_setpoint's message before the
    sweep's first interval, the plant untouched; a generator of setpoints
    is read once."""
    rc = tracking_rc
    plant_ = cli._fresh_plant(rc)
    before = plant_.state, plant_.params
    intervals = count_intervals(monkeypatch)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        cl.sweep_harvest(rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                         plant_, (r for r in ([0.01, 0.0], bad)))
    assert intervals == [] and (plant_.state, plant_.params) == before


def test_sweep_reads_a_generator_of_setpoints_once(committed):
    m, dist, gains, cfg = committed
    rows = [np.zeros(2), np.array([0.001, 0.1])]
    samples = [cl.sweep_harvest(m, dist, gains, cfg,
                                cl.LinearPlant(m, dist, np.zeros(2)),
                                setpoints, cap=150)[0]
               for setpoints in (rows, (r for r in rows))]
    assert len(samples[0]) == 2
    assert [s.time for s in samples[0]] == [s.time for s in samples[1]]


@pytest.mark.parametrize("run", ["run_scenario", "sweep_harvest"])
def test_a_plant_that_steps_another_dt_is_refused(tracking_rc, monkeypatch,
                                                  run):
    """A plant stepping 0.5 under a model with dt = 1.0 would part the
    log's time column from the plant's clock: the loop refuses it before
    the first interval, the plant untouched."""
    rc = tracking_rc
    plant_ = plant.NonlinearPlant(plant.PlantState(*rc.op.x_ss), rc.params,
                                  rc.op, dt=0.5)
    before = plant_.state, plant_.params
    intervals = count_intervals(monkeypatch)
    args = (rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg, plant_)
    with pytest.raises(ValueError, match=r"^the plant steps 0\.5, the "
                       r"model's dt is 1\.0$"):
        if run == "run_scenario":
            cl.run_scenario(rc.scenario, *args)
        else:
            cl.sweep_harvest(*args, [np.zeros(2)])
    assert intervals == [] and (plant_.state, plant_.params) == before


def scan_setpoint(schedule, t):
    """The setpoint at t by a scan of the whole schedule: the last entry
    whose start, less 1e-9, is <= t, else the first."""
    r = schedule[0][1]
    for ts, rv in schedule:
        if t >= ts - 1e-9:
            r = rv
    return r


def test_run_scenario_walks_the_schedule_as_the_linear_scan(committed):
    """The r column of run_scenario's log at interval k is the setpoint the
    scan gives at k dt, on a schedule with starts on, 1e-10 and 2e-9 past,
    and 1e-9 and 2e-9 before interval starts and two entries inside one
    interval, and on 60 random schedules drawn from such starts."""
    m, dist, gains, cfg = committed
    dt = m.dt
    offsets = (0.0, 1e-10, 2e-9, -1e-9, -2e-9, 0.25 * dt, 0.5 * dt)
    schedules = [[0.0, dt + 1e-10, 2 * dt + 2e-9, 3.25 * dt, 3.5 * dt,
                  5 * dt - 1e-9, 6 * dt - 2e-9]]
    rng = np.random.default_rng(0)
    for _ in range(60):
        starts = {k * dt + offsets[int(rng.integers(len(offsets)))]
                  for k in rng.integers(1, 30, int(rng.integers(1, 25)))}
        schedules.append([0.0] + sorted(t for t in starts if t > 0.0))
    columns = []
    for times in schedules:
        sc = scenario(30 * dt,
                      [(t, [0.001 * i, 0.01 * i]) for i, t in enumerate(times)],
                      cl.ControllerMode.NOMINAL)
        log = cl.run_scenario(sc, m, dist, gains, cfg,
                              cl.LinearPlant(m, dist, np.zeros(2)))
        want = [scan_setpoint(sc.schedule, k * dt) for k in range(30)]
        assert np.array_equal(log.records.column("r"), want), times
        columns.append(log.records.column("r"))
    # interval 1 takes the start 1e-10 past it, interval 3 the one 2e-9
    # past interval 2, interval 4 the second of two inside one interval,
    # and intervals 5 and 6 the starts 1e-9 and 2e-9 before them
    assert columns[0][:7, 0].tolist() == [
        0.001 * i for i in (0, 1, 1, 2, 4, 5, 6)]


def test_origin_is_closed_loop_equilibrium(committed):
    m, dist, gains, cfg = committed
    sc = scenario(30.0, [(0.0, np.zeros(2))], cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.zeros(2)))
    assert len(log.records) == 30
    for rec in log.records:
        assert np.abs(rec.u).max() < 1e-12
        assert np.abs(rec.z_p).max() < 1e-12
        assert np.abs(rec.x_hat).max() < 1e-12


def test_modeled_disturbance_is_rejected_without_offset(committed):
    """On the linear plant the disturbance lies in the modeled subspace, so
    tracking must become exact and the estimate must find d_star."""
    m, dist, gains, cfg = committed
    d_star = np.array([0.01, -0.5])
    r = np.array([0.002, 0.3])
    sc = scenario(200.0, [(0.0, r)], cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=d_star))
    tail = log.records[-1]
    assert np.abs(tail.z_p - r).max() < 1e-6
    assert np.allclose(tail.d_total, d_star, atol=1e-6)
    assert tail.steady


# ---- steady detection: SteadyDetector's counter against the window rule it
# replaced, kept here as the oracle ----

def _same(a, b):
    """a == b for two lists of floats of one length; False on a NaN."""
    for x, y in zip(a, b):
        if not x == y:
            return False
    return True


def _within(a, b, tol):
    """max |a - b| <= tol for two lists of floats of one length; False on
    a NaN."""
    for x, y in zip(a, b):
        if not abs(x - y) <= tol:
            return False
    return True


class SteadyDetector:
    """Steady when the last M+1 intervals share one setpoint and both y and
    u moved at most the tolerances between consecutive intervals. That is a
    count of consecutive quiet transitions against the previous interval,
    steady once it reaches M: exact equality is transitive, and the
    largest move over the window is the largest over its transitions.
    ControlLoop runs the same count in the kernel record, against the
    log's previous row; this standalone form is the oracle for it."""

    def __init__(self, M=5, tol_y=1e-5, tol_u=1e-5):
        if M < 2:
            raise ValueError("M must be >= 2")
        self.M = M
        self.tol_y = float(tol_y)
        self.tol_u = float(tol_u)
        self.count = 0
        self._last = None            # (r, y_p, u) of the previous interval

    def update(self, r, y_p, u):
        """Take one interval's r, y_p and u, each a list of floats; True
        if it ends a steady window."""
        last = self._last
        if (last is not None and _same(r, last[0])
                and _within(y_p, last[1], self.tol_y)
                and _within(u, last[2], self.tol_u)):
            self.count += 1
        else:
            self.count = 0
        self._last = (r, y_p, u)
        return self.count >= self.M


def ref_steady_window(rs, ys, us, M, tol_y, tol_u):
    """True iff there are M+1 entries (the caller passes at most that many),
    they share one setpoint, and both y and u moved less than the tolerances
    between consecutive entries."""
    if len(ys) < M + 1:
        return False
    R = np.array(rs)
    if (R != R[0]).any():
        return False
    Y = np.array(ys)
    U = np.array(us)
    return (np.abs(np.diff(Y, axis=0)).max() <= tol_y
            and np.abs(np.diff(U, axis=0)).max() <= tol_u)


def ref_detect_steady(records, tol_y=1e-5, tol_u=1e-5, M=5):
    if M < 2:
        raise ValueError("M must be >= 2")
    window = records[-(M + 1):]
    return ref_steady_window([rec.r for rec in window],
                             [rec.y_p for rec in window],
                             [rec.u for rec in window], M, tol_y, tol_u)


def counter_flags(seq, M, tol_y, tol_u):
    """SteadyDetector's answer after each (r, y_p, u) of seq."""
    det = SteadyDetector(M, tol_y, tol_u)
    return [det.update(np.asarray(r, float).tolist(),
                       np.asarray(y, float).tolist(),
                       np.asarray(u, float).tolist()) for r, y, u in seq]


def oracle_flags(seq, M, tol_y, tol_u):
    """The window rule on the last M+1 entries of every prefix of seq."""
    out = []
    for k in range(len(seq)):
        window = seq[max(0, k - M):k + 1]
        out.append(bool(ref_steady_window([w[0] for w in window],
                                          [w[1] for w in window],
                                          [w[2] for w in window],
                                          M, tol_y, tol_u)))
    return out


def test_detect_steady_window():
    def steady_after(recs, M=5):
        flags = counter_flags([(rec.r, rec.y_p, rec.u) for rec in recs],
                              M, 1e-5, 1e-5)
        assert bool(flags and flags[-1]) == ref_detect_steady(recs, M=M)
        return bool(flags and flags[-1])

    recs = [zrec(time=float(k)) for k in range(6)]
    assert steady_after(recs, M=5)
    assert not steady_after(recs[:5], M=5)  # needs M+1 records
    moved = recs[:-1] + [zrec(time=5.0, y_p=np.array([1e-3, 0.0, 0.0]))]
    assert not steady_after(moved, M=5)
    wiggly_u = recs[:-1] + [zrec(time=5.0, u=np.array([1e-3, 0.0]))]
    assert not steady_after(wiggly_u, M=5)
    # setpoint change inside the window disqualifies it
    switched = recs[:-1] + [zrec(time=5.0, r=np.array([0.01, 0.0]))]
    assert not steady_after(switched, M=5)
    with pytest.raises(ValueError):
        SteadyDetector(M=1)


TOL = 2.0 ** -10          # moves of exactly TOL are representable


def walk(rng, n, steps, r_choices):
    """n intervals of (r, y_p, u): r drawn from r_choices with long runs,
    y_p (3) and u (2) moving by steps drawn from `steps` per channel."""
    r = r_choices[0]
    y, u = np.zeros(3), np.zeros(2)
    seq = []
    for _ in range(n):
        if rng.random() < 0.1:
            r = r_choices[rng.integers(len(r_choices))]
        y = y + rng.choice(steps, size=3) * rng.choice([-1.0, 1.0], size=3)
        u = u + rng.choice(steps, size=2) * rng.choice([-1.0, 1.0], size=2)
        seq.append((np.array(r, float), y.copy(), u.copy()))
    return seq


def adversarial_sequences():
    z2, z3 = np.zeros(2), np.zeros(3)
    r0, r1 = np.array([0.001, 0.1]), np.array([0.002, 0.1])
    nan = float("nan")
    ramp = [(r0, np.full(3, k * TOL), np.full(2, -k * TOL)) for k in range(9)]
    over = [(r0, np.full(3, k * TOL * (1 + 2 ** -40)), z2) for k in range(9)]
    switch = ([(r0, z3, z2)] * 4 + [(r1, z3, z2)] + [(r0, z3, z2)] * 8)
    cases = {
        "|dy| == tol and |du| == tol": (ramp, 5),
        "|dy| just above tol": (over, 5),
        "setpoint switch inside the window": (switch, 5),
        "setpoint switch and back, M = 2": (switch, 2),
        "M = 2 ramp": (ramp, 2),
        "fewer than M+1 entries": ([(r0, z3, z2)] * 5, 5),
        "exactly M+1 entries": ([(r0, z3, z2)] * 6, 5),
        "NaN in y": ([(r0, z3, z2)] * 3 + [(r0, np.array([nan, 0, 0]), z2)]
                     + [(r0, z3, z2)] * 8, 2),
        "NaN in u": ([(r0, z3, z2)] * 6 + [(r0, z3, np.array([0, nan]))]
                     + [(r0, z3, z2)] * 6, 5),
        "NaN in r": ([(r0, z3, z2)] * 3 + [(np.array([nan, 0.1]), z3, z2)] * 4
                     + [(r0, z3, z2)] * 4, 2),
        "NaN held in y": ([(r0, np.array([nan, 0, 0]), z2)] * 8, 2),
        "negative zero setpoint": ([(np.array([0.0, 0.1]), z3, z2),
                                    (np.array([-0.0, 0.1]), z3, z2)] * 4, 3),
    }
    return cases


@pytest.mark.parametrize("case", sorted(adversarial_sequences()))
def test_steady_counter_matches_the_window_on_adversarial_prefixes(case):
    seq, M = adversarial_sequences()[case]
    flags = counter_flags(seq, M, TOL, TOL)
    assert flags == oracle_flags(seq, M, TOL, TOL)


def test_steady_counter_matches_the_window_on_random_prefixes():
    rng = np.random.default_rng(11)
    steps = np.array([0.0, 0.0, 0.5 * TOL, TOL, TOL, 2.0 * TOL])
    r_choices = [np.array([0.001, 0.1]), np.array([0.002, 0.1]),
                 np.array([0.001, -0.1])]
    n_steady = 0
    for M in (2, 3, 5):
        for _ in range(20):
            seq = walk(rng, 120, steps, r_choices)
            flags = counter_flags(seq, M, TOL, TOL)
            assert flags == oracle_flags(seq, M, TOL, TOL)
            n_steady += sum(flags)
    # the walks reach steady windows, so both answers are exercised
    assert 0 < n_steady


def test_harvest_matches_true_disturbance(committed):
    m, dist, gains, cfg = committed
    d_star = np.array([0.015, 0.8])
    sc = scenario(150.0, [(0.0, np.array([0.001, -0.2]))],
                  cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=d_star))
    rec = log.records[-1]
    assert rec.steady
    est = est_mod.DisturbanceEstimator(m, dist, gains)
    sample = cl.harvest_sample(est, rec.time, rec.r, rec.y_p, rec.u,
                               rec.d_total)
    assert sample.residual <= 1e-4
    assert np.allclose(sample.d_ss, d_star, atol=1e-6)
    assert np.array_equal(sample.r, rec.r)


def test_run_scenario_harvests_on_steady(committed):
    m, dist, gains, cfg = committed
    sc = scenario(80.0, [(0.0, np.array([0.001, 0.1]))],
                  cl.ControllerMode.NOMINAL, harvest=True)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.array([0.005, -0.1])))
    assert len(log.harvested) >= 1
    flagged = [rec for rec in log.records if rec.harvested]
    assert len(flagged) == len(log.harvested)


def stacked(recs):
    """The columns of a non-empty list of StepRecords."""
    out = cl.Records({name: np.size(getattr(recs[0], name))
                      for name in cl.FIELDS}, len(recs))
    for i, rec in enumerate(recs):
        out.values[i] = np.concatenate(
            [np.atleast_1d(getattr(rec, name)) for name in cl.FIELDS])
    out.n = len(recs)
    return out


def recs_to_log(recs):
    """What metrics reads of a ControlLoop: its records and its model's
    dt, here 1."""
    return types.SimpleNamespace(records=stacked(recs),
                                 model=types.SimpleNamespace(dt=1.0))


def test_metrics_closed_forms():
    offset = np.array([0.1, 0.0])
    recs = [zrec(time=float(k), z_p=offset) for k in range(50)]
    m = cl.metrics(recs_to_log(recs))
    seg = m["segments"][0]
    assert len(m["segments"]) == 1
    assert seg.ise == pytest.approx(50 * 0.01)
    assert seg.peak == pytest.approx(0.1)
    assert seg.settling is None
    assert np.allclose(seg.terminal_e, [0.1, 0.0])


def test_metrics_settling_time():
    big = np.array([0.05, 0.0])
    recs = [zrec(time=float(k), z_p=big if k < 10 else np.zeros(2))
            for k in range(30)]
    m = cl.metrics(recs_to_log(recs))
    assert m["segments"][0].settling == pytest.approx(10.0)


def test_segment_bounds_split_on_setpoint():
    recs = ([zrec(time=float(k)) for k in range(5)]
            + [zrec(time=float(5 + k), r=np.array([0.01, 0.0]))
               for k in range(5)])
    bounds = cl.segment_bounds(stacked(recs))
    assert bounds == [(0, 5), (5, 10)]


def test_bookkeeping_identity_is_enforced():
    with pytest.raises(ValueError):
        cl.StepRecord(
            time=0.0, r=np.zeros(2), y_p=np.zeros(3), z_p=np.zeros(2),
            u=np.zeros(2), x_hat=np.zeros(3),
            d_learned=np.array([0.1, 0.0]), d_supp=np.zeros(2),
            d_total=np.zeros(2), x_bar=np.zeros(3), u_bar=np.zeros(2),
            qp_objective=0.0, active_set_size=0, steady=False, harvested=False)


def test_csv_round_trip(committed, tmp_path):
    m, dist, gains, cfg = committed
    sc = scenario(25.0, [(0.0, np.zeros(2)), (10.0, np.array([0.002, 0.1]))],
                  cl.ControllerMode.NOMINAL, harvest=True)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.2])))
    path = tmp_path / "log.csv"
    cl.write_log_csv(log.records, str(path))
    back = cl.read_log_csv(str(path))
    assert len(back) == len(log.records)
    for a, b in zip(log.records, back):
        assert a.time == b.time
        for field in ("r", "y_p", "z_p", "u", "x_hat", "d_learned",
                      "d_supp", "d_total", "x_bar", "u_bar"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.qp_objective == b.qp_objective
        assert a.active_set_size == b.active_set_size
        assert a.steady == b.steady
        assert a.harvested == b.harvested


def test_runs_are_deterministic(committed, tmp_path):
    m, dist, gains, cfg = committed
    sc = scenario(40.0, [(0.0, np.array([0.001, -0.1]))],
                  cl.ControllerMode.NOMINAL, harvest=True)

    def run_once(tag):
        log = cl.run_scenario(sc, m, dist, gains, cfg,
                              cl.LinearPlant(m, dist,
                                             d_star=np.array([0.01, -0.3])))
        p = tmp_path / f"{tag}.csv"
        cl.write_log_csv(log.records, str(p))
        return p.read_text()

    assert run_once("a") == run_once("b")


def test_zero_duration_yields_empty_log(committed):
    m, dist, gains, cfg = committed
    sc = scenario(0.0, [(0.0, np.zeros(2))], cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.zeros(2)))
    assert len(log.records) == 0 and list(log.records) == []
    assert log.aborted is None


def test_empty_log_round_trips_with_the_full_header(committed, tmp_path):
    """A log without rows writes every column name; reading it back keeps
    the widths, and writing it again gives the same bytes."""
    m, dist, gains, cfg = committed
    sc = scenario(0.0, [(0.0, np.zeros(2))], cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.zeros(2)))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    cl.write_log_csv(log.records, str(first))
    back = cl.read_log_csv(str(first))
    assert len(back) == 0
    assert back.widths == log.records.widths
    cl.write_log_csv(back, str(second))
    assert second.read_bytes() == first.read_bytes()
    header = first.read_text().splitlines()
    assert len(header) == 1
    assert header[0].split(",")[:3] == ["time", "r_0", "r_1"]
    assert header[0].endswith(",qp_objective,active_set_size,steady,harvested")


def test_sweep_insufficient_cap_stops_the_sweep(committed):
    """A setpoint not steady within cap intervals stops the sweep as an
    abort does: the rows and samples before it are kept, and aborted
    gives the first interval without a row and the reason."""
    m, dist, gains, cfg = committed
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg, cl.LinearPlant(m, dist, d_star=np.zeros(2)),
        [np.zeros(2), np.array([0.001, 0.1])], cap=8,
        steady=cl.SteadyTest(M=5))
    assert len(samples) == 1 and len(log.records) == log.k == 6 + 8
    assert log.aborted == {
        "time": log.k * m.dt,
        "reason": "no steady state within 8 steps at setpoint [0.001 0.1  ]"}


def test_sweep_collects_one_sample_per_setpoint(committed):
    m, dist, gains, cfg = committed
    setpoints = [np.array([0.0, 0.0]), np.array([0.001, 0.1]),
                 np.array([-0.001, -0.1])]
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg,
        cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.3])),
        setpoints, cap=150)
    assert len(samples) == 3
    for sp, s in zip(setpoints, samples):
        assert np.array_equal(s.r, sp)
        assert s.residual <= 1e-4
        assert np.allclose(s.d_ss, [0.01, 0.3], atol=1e-5)


SWEEP_SETPOINTS = [np.array([0.0, 0.0]), np.array([0.001, 0.1]),
                   np.array([-0.001, -0.1])]


def test_harvest_equals_harvest_sample_on_its_logged_row(committed):
    """The loop hands harvest_sample the interval's own arrays; the sample
    is the one harvest_sample makes from the StepRecord of the row it
    logged, and owns its arrays."""
    m, dist, gains, cfg = committed
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg,
        cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.3])),
        SWEEP_SETPOINTS, cap=150)
    rows = np.flatnonzero(log.records.column("harvested"))
    assert len(rows) == len(samples) == 3
    est = est_mod.DisturbanceEstimator(m, dist, gains)
    for k, got in zip(rows.tolist(), samples):
        rec = log.records[k]
        want = cl.harvest_sample(est, rec.time, rec.r, rec.y_p, rec.u,
                                 rec.d_total)
        assert (got.time, got.residual) == (want.time, want.residual)
        assert np.array_equal(got.r, want.r)
        assert np.array_equal(got.d_ss, want.d_ss)
        assert not np.shares_memory(got.r, log.records.values)
        assert not np.shares_memory(got.d_ss, log.records.values)


def test_harvest_calls_the_module_and_class_attributes(committed,
                                                       monkeypatch):
    """perfbench times and counts each harvest by replacing
    closed_loop.harvest_sample and DisturbanceEstimator.steady_state_from_io;
    a loop that reached either another way would leave its counts at 0."""
    counts = {"harvest_sample": 0, "steady_state_from_io": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cl, "harvest_sample",
                        counting("harvest_sample", cl.harvest_sample))
    monkeypatch.setattr(est_mod.DisturbanceEstimator, "steady_state_from_io",
                        counting("steady_state_from_io",
                                 est_mod.DisturbanceEstimator
                                 .steady_state_from_io))
    m, dist, gains, cfg = committed
    harvested, _ = cl.sweep_harvest(
        m, dist, gains, cfg,
        cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.3])),
        SWEEP_SETPOINTS, cap=150)
    assert len(harvested) == 3
    assert counts == {"harvest_sample": 3, "steady_state_from_io": 3}


def test_learned_mode_with_exact_map_tracks_immediately(committed):
    """A single-sample map that already stores d_star makes the learned loop
    a perfect feedforward: the supplementary estimate stays at zero."""
    m, dist, gains, cfg = committed
    d_star = np.array([0.01, -0.5])
    g = grnn.make_model(capacity=5, n_out=2)
    g = grnn.add_sample(g, np.zeros(2), d_star)
    sc = scenario(60.0, [(0.0, np.array([0.002, 0.3]))],
                  cl.ControllerMode.LEARNED)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=d_star),
                          grnn=g)
    for rec in log.records:
        assert np.array_equal(rec.d_learned, d_star)
        assert np.abs(rec.d_supp).max() < 1e-10
    assert np.abs(log.records[-1].z_p - log.records[-1].r).max() < 1e-8


class FailingPlant(cl.LinearPlant):
    """Linear plant whose step raises NonPhysicalState at interval k_fail."""

    def __init__(self, model, dist, d_star, k_fail):
        super().__init__(model, dist, d_star)
        self.k = 0
        self.k_fail = k_fail

    def step(self, u_dev):
        if self.k == self.k_fail:
            raise plant.NonPhysicalState("left the physical region")
        super().step(u_dev)
        self.k += 1


def test_failure_part_way_keeps_the_log(committed):
    m, dist, gains, cfg = committed
    sc = scenario(10.0, [(0.0, np.array([0.001, 0.1]))],
                  cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          FailingPlant(m, dist, np.zeros(2), k_fail=3))
    assert len(log.records) == 3
    assert log.aborted == {"time": 3.0, "reason": "left the physical region"}


def test_sweep_failure_part_way_keeps_the_samples(committed):
    m, dist, gains, cfg = committed
    setpoints = [np.array([0.0, 0.0]), np.array([0.001, 0.1])]
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg, FailingPlant(m, dist, np.zeros(2), k_fail=10),
        setpoints, cap=150)
    assert len(log.records) == log.k == 10
    assert len(samples) == 1 and log.harvested == samples
    assert log.aborted == {"time": log.k * m.dt,
                           "reason": "left the physical region"}


def test_sweep_abort_time_is_in_minutes(tracking_rc):
    """A sweep's abort time is the failing interval's start k dt, as a
    run's is, not the interval index k."""
    rc = tracking_rc
    m = model_mod.LinearModel(rc.model.A, rc.model.B, rc.model.C,
                              rc.model.H, 0.5)
    gains = model_mod.EstimatorGains(rc.L_x, rc.L_d, m, rc.dist)
    samples, log = cl.sweep_harvest(
        m, rc.dist, gains, rc.ocp_cfg,
        FailingPlant(m, rc.dist, np.zeros(2), k_fail=9),
        [np.array([0.001, 0.1])], cap=150)
    assert len(log.records) == 9 and samples == []
    assert log.aborted == {"time": 4.5, "reason": "left the physical region"}


def test_nominal_loop_never_reads_or_grows_the_map(committed, monkeypatch):
    """A map handed to a nominal loop that harvests is neither looked up
    nor grown: only learned mode keeps it."""
    m, dist, gains, cfg = committed
    g = grnn.from_samples(5, 2, 0.5, [(np.zeros(2), np.array([0.01, 0.3]))])

    def forbidden(*args):
        raise AssertionError("the map was used in nominal mode")

    monkeypatch.setattr(grnn, "predict", forbidden)
    monkeypatch.setattr(grnn, "add_sample", forbidden)
    loop = cl.ControlLoop(m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.3])),
                          cl.ControllerMode.NOMINAL, grnn=g, harvest=True)
    loop.set_setpoint(np.array([0.001, 0.1]))
    for _ in range(150):
        if loop.control_step()[1]:
            break
    assert len(loop.harvested) == 1
    assert not loop.records.column("d_learned").any()


def test_failing_step_leaves_no_orphan_sample(committed):
    """The plant fails on the interval that would harvest at the origin: that
    interval has no record, so it has no sample either."""
    m, dist, gains, cfg = committed
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg, FailingPlant(m, dist, np.zeros(2), k_fail=5),
        [np.array([0.0, 0.0])], cap=150)
    assert len(log.records) == 5
    assert samples == [] and log.harvested == []
    assert log.aborted == {"time": 5, "reason": "left the physical region"}


def test_failing_interval_counts_no_target_excursion(committed):
    """Every target of this setpoint leaves the box; the interval whose
    plant step fails has no row, so its excursion is not counted either."""
    m, dist, gains, cfg = committed
    sc = scenario(10.0, [(0.0, np.array([0.04, 0.0]))],
                  cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          FailingPlant(m, dist, np.zeros(2), k_fail=3))
    assert len(log.records) == log.excursions.count == 3
    assert np.array_equal(log.excursions.last.u_bar,
                          log.records[-1].u_bar)


def test_summary_uses_the_runs_dt(committed, tmp_path):
    """A loop whose model steps 0.5 min writes its segment ends and ISE at
    0.5, as the per-record metrics at 0.5 give them."""
    m, dist, gains, cfg = committed
    m = model_mod.LinearModel(m.A, m.B, m.C, m.H, 0.5)
    sc = scenario(10.0, [(0.0, np.array([0.002, 0.3])),
                         (5.0, np.array([-0.002, -0.3]))],
                  cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.array([0.01, -0.5])))
    path = tmp_path / "summary.txt"
    got = cl.write_summary(log, path)
    want = ref_metrics(list(log.records), dt=0.5)
    lines = path.read_text().splitlines()
    ends = [float(line.split()[5]) for line in lines
            if line.startswith("segment ")]
    assert ends == [seg.end for seg in want["segments"]] == [5.0, 10.0]
    assert f"total_ise {want['total_ise']:.17g}" in lines
    assert got["total_ise"] == cl.metrics(log)["total_ise"] \
        == want["total_ise"]


def test_summary_counts_target_excursions_only_when_present(committed,
                                                            tmp_path):
    """A setpoint whose target needs a coolant move past the box gives one
    summary line with the count and the first and last offending pairs;
    a run inside the box gives none."""
    m, dist, gains, cfg = committed
    path = tmp_path / "summary.txt"
    for r, expect in ((np.zeros(2), 0), (np.array([0.04, 0.0]), 5)):
        sc = scenario(5.0, [(0.0, r)], cl.ControllerMode.NOMINAL)
        log = cl.run_scenario(sc, m, dist, gains, cfg,
                              cl.LinearPlant(m, dist, d_star=np.zeros(2)))
        assert log.excursions.count == expect
        cl.write_summary(log, path)
        lines = [line for line in path.read_text().splitlines()
                 if line.startswith("target_bound_excursions")]
        if not expect:
            assert lines == []
            continue
        first = log.excursions.first
        assert np.array_equal(first.u_bar, log.records[0].u_bar)
        assert np.array_equal(log.excursions.last.u_bar,
                              log.records[-1].u_bar)
        assert lines == ["target_bound_excursions 5 first %s last %s"
                         % (first.text(), log.excursions.last.text())]


def test_qp_runs_exactly_on_the_constrained_intervals(twovar_rc,
                                                      monkeypatch):
    """The committed twovar scenario in nominal mode: the loop calls
    neither condense nor solve_qp, since the ActiveSetTable solves its own
    misses, and the misses and hits together are the records with a
    non-empty active set. A strictly convex QP whose unconstrained
    minimizer violates a row ends with an active row, so the affine law
    takes exactly the unconstrained intervals, and the table the
    constrained ones."""
    rc = twovar_rc
    calls = {"condense": 0, "solve_qp": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ocp, name, counted(name, getattr(ocp, name)))
    sc = dataclasses.replace(rc.scenario, mode=cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(
        sc, rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
        cl.NonlinearPlant(plant.PlantState(*rc.op.x_ss), rc.params, rc.op,
                          dt=rc.model.dt))
    assert log.aborted is None
    constrained = sum(rec.active_set_size > 0 for rec in log.records)
    assert 0 < constrained < len(log.records)
    assert calls == {"condense": 0, "solve_qp": 0}
    assert log.table.misses + log.table.hits == constrained
    assert log.table.hits >= 1 and log.table.misses >= 1


def test_failed_table_miss_aborts_the_run_and_stores_no_entry(twovar_rc,
                                                              monkeypatch):
    """A MaxIterations raised while the ActiveSetTable solves a miss ends
    run_scenario at that interval: the log keeps the rows before it, says
    why it stopped, and the table counts the miss but stores no working
    set. The first constrained interval is a miss, since the table starts
    empty."""
    rc = twovar_rc
    sc = dataclasses.replace(rc.scenario, mode=cl.ControllerMode.NOMINAL)

    def run():
        return cl.run_scenario(
            sc, rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
            cl.NonlinearPlant(plant.PlantState(*rc.op.x_ss), rc.params,
                              rc.op, dt=rc.model.dt))

    full = run()
    k = int(np.flatnonzero(full.records.column("active_set_size"))[0])
    assert k > 0
    tables = []

    class Recorded(ocp.ActiveSetTable):
        def __init__(self, pred):
            super().__init__(pred)
            tables.append(self)

    def stuck(*args, **kwargs):
        raise ocp.MaxIterations("active set did not converge")

    monkeypatch.setattr(ocp, "ActiveSetTable", Recorded)
    monkeypatch.setattr(ocp, "_active_set_core", stuck)
    log = run()
    assert log.aborted == {"time": k * rc.model.dt,
                           "reason": "active set did not converge"}
    assert len(log.records) == k
    assert np.array_equal(log.records.values[:k], full.records.values[:k])
    assert (log.table.misses, log.table.hits) == (1, 0)
    assert len(tables) == 1 and tables[0].entries == []


def test_sweep_log_counts_table_hits_and_misses(twovar_rc):
    """The first ten setpoints of the committed twovar sweep: the log
    carries the loop's table counts, and they add up to the records with
    a non-empty active set."""
    rc = twovar_rc
    # the file holds absolute (c, T); the loop takes deviations
    setpoints = (np.loadtxt(CONFIGS / "sweep_ct_100.txt", ndmin=2)[:10]
                 - rc.op.x_ss[:2])
    _, log = cl.sweep_harvest(
        rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
        cl.NonlinearPlant(plant.PlantState(*rc.op.x_ss), rc.params, rc.op,
                          dt=rc.model.dt),
        setpoints, cap=rc.sweep_cap)
    assert log.aborted is None
    constrained = sum(rec.active_set_size > 0 for rec in log.records)
    assert log.table.hits + log.table.misses == constrained
    assert log.table.hits >= 1 and log.table.misses >= 1


def test_loops_sharing_prediction_data_count_excursions_apart(committed):
    """Loops given one build_prediction result each count their own target
    excursions, as many as a loop that builds its own."""
    m, dist, gains, cfg = committed
    # the coolant move this setpoint needs lies past the input box
    sc = scenario(20.0, [(0.0, np.array([0.04, 0.0]))],
                  cl.ControllerMode.NOMINAL)
    pred = ocp.build_prediction(m, dist, cfg)
    logs = [cl.run_scenario(sc, m, dist, gains, cfg,
                            cl.LinearPlant(m, dist, d_star=np.zeros(2)),
                            pred=shared)
            for shared in (pred, pred, None)]
    counts = [log.excursions.count for log in logs]
    assert counts == [20, 20, 20]
    assert logs[0].excursions is not logs[1].excursions


def test_learned_map_is_looked_up_once_per_setpoint(twovar_rc, monkeypatch):
    """The committed twovar learned run: the model does not change without a
    harvest, so grnn.predict runs once per distinct schedule setpoint, in
    schedule order, all before the first interval; the last entry, which
    repeats the first setpoint, reads the prediction the map kept."""
    rc = twovar_rc
    g = cli._build_grnn(rc)
    _, lookups = counted_lookups(monkeypatch)
    log = cl.run_scenario(
        rc.scenario, rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
        cl.NonlinearPlant(plant.PlantState(*rc.op.x_ss), rc.params, rc.op,
                          dt=rc.model.dt), grnn=g)
    assert log.aborted is None and not rc.scenario.harvest
    distinct = []
    for _, r in rc.scenario.schedule:
        if r.tolist() not in distinct:
            distinct.append(r.tolist())
    assert len(distinct) == len(rc.scenario.schedule) - 1 == 11
    assert lookups == [(None, r) for r in distinct]


def test_learned_map_is_looked_up_again_after_a_harvest(committed,
                                                        monkeypatch):
    """A harvest gives the loop a new model, so the next interval predicts
    again even at an unchanged setpoint."""
    m, dist, gains, cfg = committed
    g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                        np.array([0.003, -0.2]), np.zeros(2))
    loop = cl.ControlLoop(m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.array([0.01, -0.5])),
                          cl.ControllerMode.LEARNED, grnn=g, harvest=True)
    looked_up = []
    real = grnn.predict

    def counted(model, r):
        looked_up.append(loop.k)
        return real(model, r)

    monkeypatch.setattr(grnn, "predict", counted)
    harvested = []
    for k in range(200):
        if k in (0, 100):
            loop.set_setpoint([0.001, 0.1] if k == 0 else [-0.001, -0.1])
        if loop.control_step()[1]:
            harvested.append(k)
    assert len(harvested) == 2 and len(loop.grnn.X) == 3
    assert looked_up == sorted({0, 100} | {k + 1 for k in harvested})


@pytest.mark.parametrize("case", ["A, B, A, B", "A, B, A, B harvesting",
                                  "cstr_drift.yaml"])
def test_the_store_never_serves_a_stale_map(committed, drift_rc,
                                            either_interval, case):
    """Every logged row's d_learned is, bit for bit, grnn.predict at the
    row's setpoint of the map in force at that interval: the map the run
    started from, grown by each sample harvested on an earlier interval.
    The schedules revisit their setpoints, without harvests and with one
    per entry, and cstr_drift.yaml harvests in learned mode."""
    if case == "cstr_drift.yaml":
        rc = drift_rc
        g = cli._build_grnn(rc)
        log = cl.run_scenario(rc.scenario, rc.model, rc.dist,
                              rc.make_gains(), rc.ocp_cfg,
                              cli._fresh_plant(rc), grnn=g)
    else:
        m, dist, gains, cfg = committed
        g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                            np.array([0.003, -0.2]), np.zeros(2))
        sc = scenario(160.0, [(0.0, A), (40.0, B), (80.0, A), (120.0, B)],
                      cl.ControllerMode.LEARNED,
                      harvest=case.endswith("harvesting"))
        log = cl.run_scenario(
            sc, m, dist, gains, cfg,
            cl.LinearPlant(m, dist, d_star=np.array([0.01, -0.5])), grnn=g)
    assert log.aborted is None
    assert len(log.harvested) == {"A, B, A, B": 0, "A, B, A, B harvesting": 4,
                                  "cstr_drift.yaml": 16}[case]
    samples = iter(log.harvested)
    R, d_l = log.records.column("r"), log.records.column("d_learned")
    for k, harvested in enumerate(log.records.column("harvested")):
        assert d_l[k].tobytes() == grnn.predict(g, R[k]).tobytes(), k
        if harvested:
            s = next(samples)
            g = grnn.add_sample(g, s.r, s.d_ss)
    assert next(samples, None) is None


def test_a_setpoint_the_map_cannot_predict_is_refused(committed,
                                                      monkeypatch):
    """A schedule setpoint at which the learned map's prediction is not
    finite raises ValueError naming the entry before the first interval,
    with the plant untouched and no numpy warning; a nominal run of the
    same schedule does not read the map, and reaches that entry."""
    m, dist, gains, cfg = committed
    g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                        np.array([0.003, -0.2]), np.zeros(2))
    g = grnn.add_sample(g, np.array([0.001, 0.1]), np.zeros(2))
    sc = scenario(20.0, [(0.0, A), (5.0, B), (10.0, (1e200, 0.0))],
                  cl.ControllerMode.LEARNED)
    plant = cl.LinearPlant(m, dist, np.zeros(2))
    # an interval would call it
    plant.step = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "scenario.schedule[2]: the learned map's prediction at this "
                "setpoint, [nan, nan], is not finite")):
            cl.run_scenario(sc, m, dist, gains, cfg, plant, grnn=g)
        with pytest.raises(ValueError, match=r"^scenario\.schedule\[2\]: "):
            cl.check_map(sc, g)
    calls = count_intervals(monkeypatch)
    plant = cl.LinearPlant(m, dist, np.zeros(2))
    sc.mode = cl.ControllerMode.NOMINAL
    monkeypatch.setattr(grnn, "predict", None)
    cl.run_scenario(sc, m, dist, gains, cfg, plant, grnn=g)
    assert calls[:11] == list(range(11))


def test_a_map_of_other_inputs_than_the_setpoint_is_refused(committed):
    """A learned run whose map takes 1 input, on a model that controls 2
    outputs, raises ValueError before the first interval; before predict
    checked the setpoint's length, it ran on a prediction broadcast over
    the setpoint."""
    m, dist, gains, cfg = committed
    g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2), [0.003],
                        np.zeros(2))
    plant = cl.LinearPlant(m, dist, np.zeros(2))
    # an interval would call it
    plant.step = None
    sc = scenario(5.0, [(0.0, A)], cl.ControllerMode.LEARNED)
    with pytest.raises(ValueError, match=r"^setpoint has 2 entries, the map "
                       r"takes 1 inputs$"):
        cl.run_scenario(sc, m, dist, gains, cfg, plant, grnn=g)


# ---- the columnar log: the per-record metrics it replaced, kept here as
# the oracle ----

def ref_segment_bounds(records):
    bounds = []
    start = 0
    for i in range(1, len(records)):
        if not np.array_equal(records[i].r, records[start].r):
            bounds.append((start, i))
            start = i
    if records:
        bounds.append((start, len(records)))
    return bounds


def ref_metrics(records, dt=1.0, settle_tol=1e-3):
    segments = []
    total_ise = 0.0
    for a, b in ref_segment_bounds(records):
        recs = records[a:b]
        errs = np.array([rec.z_p - rec.r for rec in recs])
        ise = float((errs ** 2).sum() * dt)
        peak = float(np.abs(errs).max())
        below = np.abs(errs).max(axis=1) <= settle_tol
        settling = None
        for i in range(len(recs)):
            if below[i:].all():
                settling = recs[i].time - recs[0].time
                break
        segments.append(cl.SegmentSummary(
            start=recs[0].time, end=recs[-1].time + dt, r=recs[0].r.copy(),
            terminal_e=np.abs(errs[-1]), ise=ise, peak=peak,
            settling=settling))
        total_ise += ise
    return {"segments": segments, "total_ise": total_ise}


COMMITTED_LOGS = sorted((ROOT / "out").glob("*.csv"))


@pytest.mark.parametrize("drop", ["r", "harvested", "d_supp"])
def test_log_without_a_column_names_it(tmp_path, drop):
    """A CSV that lacks a field's columns, as a header of `time` alone
    does, raises ValueError naming the file and the first field of FIELDS
    it lacks."""
    lines = (ROOT / "out" / "cstr_tracking_nominal.csv").read_text() \
        .splitlines()[:3]
    table = [line.split(",") for line in lines]
    keep = [i for i, name in enumerate(table[0])
            if name != drop and name.rsplit("_", 1)[0] != drop]
    path = tmp_path / "short.csv"
    path.write_text("".join(",".join(row[i] for i in keep) + "\n"
                            for row in table))
    with pytest.raises(ValueError, match=f"short.csv: no column '{drop}'"):
        cl.read_log_csv(str(path))
    path.write_text("time\n")
    with pytest.raises(ValueError, match="short.csv: no column 'r'"):
        cl.read_log_csv(str(path))


@pytest.mark.parametrize("edit, message", [
    (lambda row: row[:-1], "expected {n} fields, got {m}"),
    (lambda row: row[:4] + ["abc"] + row[5:],
     "could not convert string to float: 'abc'"),
], ids=["short row", "non-numeric field"])
def test_bad_log_row_names_the_file_and_line(tmp_path, edit, message):
    """A committed log with its second data row cut short, or with a field
    that is not a number, raises ValueError naming the file and the line."""
    lines = (ROOT / "out" / "cstr_tracking_nominal.csv").read_text() \
        .splitlines()[:4]
    row = edit(lines[2].split(","))
    lines[2] = ",".join(row)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    n = len(lines[0].split(","))
    with pytest.raises(ValueError) as exc:
        cl.read_log_csv(str(path))
    assert str(exc.value) == (f"{path}: line 3: "
                              + message.format(n=n, m=len(row)))


@pytest.mark.parametrize("path", COMMITTED_LOGS, ids=lambda p: p.name)
def test_committed_log_reads_back_to_the_same_bytes(path, tmp_path):
    records = cl.read_log_csv(str(path))
    assert len(records) > 0
    out = tmp_path / path.name
    cl.write_log_csv(records, str(out))
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("path", COMMITTED_LOGS, ids=lambda p: p.name)
def test_column_metrics_equal_the_per_record_metrics(path, monkeypatch):
    records = cl.read_log_csv(str(path))
    recs = list(records)
    assert cl.segment_bounds(records) == ref_segment_bounds(recs)
    for dt, settle_tol in ((1.0, 1e-3), (0.5, 1e-5), (1.0, 1e-12)):
        log = types.SimpleNamespace(records=records,
                                    model=types.SimpleNamespace(dt=dt))
        monkeypatch.setattr(cl, "SETTLE_TOL", settle_tol)
        got = cl.metrics(log)
        want = ref_metrics(recs, dt=dt, settle_tol=settle_tol)
        assert got["total_ise"] == want["total_ise"]
        assert len(got["segments"]) == len(want["segments"])
        for g, w in zip(got["segments"], want["segments"]):
            assert (g.start, g.end, g.ise, g.peak, g.settling) == \
                (w.start, w.end, w.ise, w.peak, w.settling)
            assert type(g.settling) is type(w.settling)
            assert np.array_equal(g.r, w.r)
            assert np.array_equal(g.terminal_e, w.terminal_e)


def test_broken_invariant_raises_before_anything_is_written(committed,
                                                            tmp_path):
    m, dist, gains, cfg = committed
    sc = scenario(10.0, [(0.0, np.array([0.001, 0.1]))],
                  cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.2])))
    log.records.values[7, log.records.slices["d_total"].start] += 1e-9
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("an earlier log\n")
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="d_total"):
            cl.write_log_csv(log.records, str(path))
    assert not fresh.exists()
    assert kept.read_text() == "an earlier log\n"
    with pytest.raises(ValueError, match="d_total"):
        log.records[7]             # a row view checks its own row


def test_sweep_keeps_every_row_as_the_log_grows(committed, monkeypatch):
    """Each interval's row, flags included, copied as control_step
    returns, is the sweep log's row at the end, although the block was
    reallocated on the way."""
    m, dist, gains, cfg = committed
    rows, capacities = [], set()
    real = cl.ControlLoop.control_step

    def copied(loop):
        out = real(loop)
        rec = loop.records
        k = loop.k - 1
        rows.append(rec.values[k].copy())
        capacities.add(len(rec.values))
        return out

    monkeypatch.setattr(cl.ControlLoop, "control_step", copied)
    # consecutive setpoints differ
    setpoints = [np.array([0.001 * (i % 3 - 1), 0.1 * (i % 4 - 1.5)])
                 for i in range(12)]
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg,
        cl.LinearPlant(m, dist, d_star=np.array([0.01, 0.3])), setpoints,
        cap=150)
    assert len(samples) == 12 and len(capacities) >= 3
    recs = log.records
    assert len(recs) == len(rows) > min(capacities)
    assert np.array_equal(recs.column("time"), np.arange(len(rows)) * m.dt)
    for i, vals in enumerate(rows):
        assert np.array_equal(recs.values[i], vals)
    assert recs.column("harvested").sum() == 12
    assert [rec.time for rec in recs[-3:]] == recs.column("time")[-3:].tolist()
    with pytest.raises(IndexError):
        recs[len(rows)]


def test_aborted_run_writes_its_rows_up_to_the_failure(committed, tmp_path):
    """The rows of a run that fails at interval 6 are the first six rows
    of the same run on a plant that does not fail."""
    m, dist, gains, cfg = committed
    sc = scenario(10.0, [(0.0, np.array([0.001, 0.1]))],
                  cl.ControllerMode.NOMINAL)
    texts = []
    for plant_ in (cl.LinearPlant(m, dist, np.zeros(2)),
                   FailingPlant(m, dist, np.zeros(2), k_fail=6)):
        log = cl.run_scenario(sc, m, dist, gains, cfg, plant_)
        path = tmp_path / "log.csv"
        cl.write_log_csv(log.records, str(path))
        texts.append(path.read_text().splitlines())
    assert log.aborted == {"time": 6.0, "reason": "left the physical region"}
    assert len(texts[0]) == 11
    assert texts[1] == texts[0][:7]


# ---- the free-path interval: compiled, with its numpy form as the oracle ----

def test_a_switch_of_the_kernels_is_never_undone(tracking_rc, monkeypatch):
    """Kernels set before any load are the ones that run: the first
    control_step neither loads the compiled module nor replaces them."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    switched = types.SimpleNamespace(
        **{name: counted(name, fn)
           for name, fn in vars(kernels.PYTHON_KERNELS).items()})
    monkeypatch.setattr(kernels, "active", switched)
    rc = tracking_rc
    loop = cl.ControlLoop(rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                          cli._fresh_plant(rc), cl.ControllerMode.NOMINAL)
    loop.set_setpoint(np.zeros(rc.model.n_z))
    loop.control_step()
    assert kernels.active is switched
    assert calls == {"advance": 1, "interval": 1, "record": 1}


def test_a_draining_tank_aborts_the_run_and_keeps_the_last_state(
        tracking_rc, either_interval):
    """The committed tracking run with the outlet doubled from t = 10 on a
    real plant: the tank drains, and the step of interval 11 leaves the
    physical region. The run aborts with the plant's message, the log
    holds the 11 rows before, as the run without the event wrote them, and
    the plant keeps the state after interval 10, which one-shot steps over
    the logged inputs reach too."""
    rc = tracking_rc
    event = {"outlet_factor": 2.0}
    sc = dataclasses.replace(rc.scenario, events=((10.0, event),))
    plant_ = cli._fresh_plant(rc)
    log = cl.run_scenario(sc, rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                          plant_)
    assert log.aborted == {
        "time": 11.0,
        "reason": "state (-0.1921818059104219, 468.73443803099156, "
                  "-0.014158154763513031) left the physical region"}
    assert len(log.records) == 11
    full = cl.run_scenario(rc.scenario, rc.model, rc.dist, rc.make_gains(),
                           rc.ocp_cfg, cli._fresh_plant(rc))
    assert np.array_equal(log.records.values[:11], full.records.values[:11])
    assert plant_.state == plant.PlantState(
        c=0.9267052082128819, T=351.6543382086857, h=0.03271381642503414)
    s, params = plant.PlantState(*rc.op.x_ss), rc.params
    for k, rec in enumerate(log.records):
        if k == 10:
            params = plant.apply_event(params, event)
        s = plant.step(s, rc.op.u_ss + rec.u, params, rc.model.dt)
    assert plant_.state == s
    assert np.array_equal(plant_.measure(), s.as_array() - rc.op.x_ss)


def test_a_setpoint_written_after_it_was_set_changes_no_row(committed):
    """The loop keeps a copy of the setpoint it is given: the caller's
    array, written between two intervals, or a view of it, changes no
    logged row; the loop tracks the new value once it is set again."""
    m, dist, gains, cfg = committed
    logs = []
    for kind in ("kept", "written", "view written"):
        loop = cl.ControlLoop(m, dist, gains, cfg,
                              cl.LinearPlant(m, dist, np.zeros(2)),
                              cl.ControllerMode.NOMINAL)
        data = np.array([0.001, 0.1])
        loop.set_setpoint(data if kind != "view written" else data[:])
        loop.control_step()
        if kind != "kept":
            data[:] = [0.002, -0.1]
        loop.control_step()
        loop.set_setpoint([0.002, -0.1])
        loop.control_step()
        logs.append(loop.records)
    assert logs[0].column("r").tolist() == [[0.001, 0.1], [0.001, 0.1],
                                            [0.002, -0.1]]
    assert all(np.array_equal(log.values, logs[0].values) for log in logs)


def test_a_non_finite_setpoint_is_rejected(twovar_rc):
    """A setpoint with a NaN or an infinite entry raises one ValueError
    naming it, and the loop keeps tracking the setpoint it had, where a
    NaN setpoint ran the active set into MaxIterations. A schedule entry
    with one is rejected as the scenario is built, before any interval
    runs, not as it starts."""
    rc = twovar_rc
    loop = cl.ControlLoop(rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                          cli._fresh_plant(rc), cl.ControllerMode.NOMINAL)
    loop.set_setpoint((0.0, 0.0))
    for r in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, np.nan)):
        with pytest.raises(ValueError, match=r"^setpoint .* is not finite$"):
            loop.set_setpoint(r)
    loop.control_step()
    assert loop.records.column("r").tolist() == [[0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^schedule setpoint \[nan, 0.0\] "
                       r"at t = 2 is not finite$"):
        scenario(4.0, [(0.0, (0.0, 0.0)), (2.0, (np.nan, 0.0))],
                 cl.ControllerMode.NOMINAL)


def counted_lookups(monkeypatch):
    """The calls of grnn.predict as (interval, setpoint as a list): the
    index of the ControlLoop.control_step call that made it, or None for
    a call before the first interval; a call between intervals fails the
    test."""
    steps, lookups = [], []
    step, predict = cl.ControlLoop.control_step, grnn.predict

    def counted_step(loop):
        steps.append(loop.k)
        try:
            return step(loop)
        finally:
            steps.append(None)

    def counted_predict(model, r):
        assert not steps or steps[-1] is not None, "a lookup between intervals"
        lookups.append((steps[-1] if steps else None, np.asarray(r).tolist()))
        return predict(model, r)

    monkeypatch.setattr(cl.ControlLoop, "control_step", counted_step)
    monkeypatch.setattr(grnn, "predict", counted_predict)
    return steps, lookups


def test_the_map_is_looked_up_once_per_setpoint_and_harvest(committed,
                                                           monkeypatch):
    """run_scenario predicts the map once per distinct schedule setpoint
    before its first interval. Inside control_step the map is predicted
    only on the interval after each harvest, which gives the loop a new
    map without predictions, and on the first visit to a setpoint after
    one; in nominal mode never. Two entries of 100 intervals each take 2
    harvests in either mode, one in each entry."""
    m, dist, gains, cfg = committed
    steps, lookups = counted_lookups(monkeypatch)
    a, b = [0.001, 0.1], [-0.001, -0.1]
    for mode in cl.ControllerMode:
        steps.clear()
        lookups.clear()
        g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                            np.array([0.003, -0.2]), np.zeros(2))
        sc = scenario(200.0, [(0.0, (0.001, 0.1)), (100.0, (-0.001, -0.1))],
                      mode, harvest=True)
        log = cl.run_scenario(
            sc, m, dist, gains, cfg,
            cl.LinearPlant(m, dist, d_star=np.array([0.01, -0.5])), grnn=g)
        h1, h2 = np.flatnonzero(log.records.column("harvested")).tolist()
        assert h1 + 1 < 100 < h2
        assert lookups == ([(None, a), (None, b), (h1 + 1, a), (100, b),
                            (h2 + 1, b)]
                           if mode is cl.ControllerMode.LEARNED else [])


A, B = (0.001, 0.1), (-0.001, -0.1)


@pytest.mark.parametrize("schedule, times", [
    ([(0.0, A), (50.0, B), (52.0, A)], [14.0, 64.0]),
    ([(0.0, A), (50.0, A)], [14.0, 50.0])], ids=["A, B, A", "A, A"])
def test_each_schedule_entry_owes_one_sample(committed, schedule, times):
    """Every schedule entry owes one sample, also one whose setpoint an
    earlier entry sampled: A after a B of 2 intervals, too short to
    settle, is sampled again once steady; an entry that repeats A, which
    keeps the count of quiet intervals, on its first interval."""
    m, dist, gains, cfg = committed
    sc = scenario(100.0, schedule, cl.ControllerMode.NOMINAL, harvest=True)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.array([0.01, -0.5])))
    assert [s.time for s in log.harvested] == times
    assert (np.flatnonzero(log.records.column("harvested")).tolist()
            == [int(t) for t in times])


def test_a_loop_that_does_not_harvest_never_harvests(committed):
    """set_setpoint arms a sample only in a loop that harvests: a loop
    without harvest, given A, A again and B, goes steady on each and takes
    no sample, where one that harvests takes one on each."""
    m, dist, gains, cfg = committed
    for harvest in (True, False):
        loop = cl.ControlLoop(m, dist, gains, cfg,
                              cl.LinearPlant(m, dist, np.array([0.01, -0.5])),
                              cl.ControllerMode.NOMINAL, harvest=harvest)
        taken = []
        for k in range(90):
            if k % 30 == 0:
                loop.set_setpoint(B if k == 60 else A)
            if loop.control_step()[1]:
                taken.append(k)
        assert taken == ([14, 30, 72] if harvest else [])
        assert len(loop.harvested) == len(taken)
        assert loop.records.column("steady")[[29, 59, 89]].all()


def test_a_rejected_sample_stays_owed(committed, monkeypatch, tmp_path):
    """A sample whose cross-check fails is counted and leaves the
    setpoint's sample owed: the next steady interval takes it, and the
    summary reports the rejection."""
    real = est_mod.DisturbanceEstimator.steady_state_from_io
    calls = []

    def off_once(self, y_p, u):
        io = real(self, y_p, u)
        calls.append(len(calls))
        if len(calls) == 1:
            return est_mod.AugmentedEstimate(io.x_hat, io.d_hat + 2e-4)
        return io

    monkeypatch.setattr(est_mod.DisturbanceEstimator, "steady_state_from_io",
                        off_once)
    m, dist, gains, cfg = committed
    sc = scenario(40.0, [(0.0, A)], cl.ControllerMode.NOMINAL, harvest=True)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.array([0.01, -0.5])))
    assert log.rejected_harvests == 1 and calls == [0, 1]
    assert [s.time for s in log.harvested] == [15.0]
    assert np.flatnonzero(log.records.column("harvested")).tolist() == [15]
    path = tmp_path / "summary.txt"
    cl.write_summary(log, str(path))
    assert "rejected_harvests 1\n" in path.read_text()


def test_the_drivers_run_one_control_step_per_logged_row(committed,
                                                        monkeypatch):
    """The benchmark times ControlLoop.control_step as one interval:
    run_scenario and sweep_harvest call it once per row they log, and
    grnn.predict runs inside it or, in check_map's lookups once per
    distinct setpoint, before the first interval."""
    m, dist, gains, cfg = committed
    steps, lookups = counted_lookups(monkeypatch)
    g = grnn.add_sample(grnn.make_model(capacity=5, n_out=2),
                        np.array([0.003, -0.2]), np.zeros(2))
    sc = scenario(150.0, [(0.0, (0.001, 0.1)), (60.0, (-0.001, -0.1))],
                  cl.ControllerMode.LEARNED, harvest=True)
    log = cl.run_scenario(sc, m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, np.array([0.01, -0.5])),
                          grnn=g)
    assert len(log.records) == 150 and log.harvested
    assert steps[::2] == list(range(150))
    assert lookups[:2] == [(None, [0.001, 0.1]), (None, [-0.001, -0.1])]
    assert len(lookups) > 2 and None not in [k for k, _ in lookups[2:]]
    steps.clear()
    samples, log = cl.sweep_harvest(
        m, dist, gains, cfg, cl.LinearPlant(m, dist, np.zeros(2)),
        [np.array([0.001, 0.1]), np.zeros(2)], cap=150)
    assert len(samples) == 2
    assert steps[::2] == list(range(len(log.records)))


def test_a_schedule_keeps_its_own_read_only_setpoints():
    r = np.array([0.001, 0.1])
    sc = scenario(10.0, [(0.0, r)], cl.ControllerMode.NOMINAL)
    r[0] = 0.5
    kept = sc.schedule[0][1]
    assert kept.tolist() == [0.001, 0.1]
    assert not kept.flags.writeable and kept.base is None


def test_returned_values_never_change_afterwards(twovar_rc, either_interval):
    """The loop reuses its v, w and theta buffers across intervals, and u
    on the free path is a view of z: every returned u, every record view,
    every sample and the counted targets keep the values they had when
    they were made. The loop visits sweep setpoints 0, 60 and 61: 216
    intervals, 119 of them with a violated row (113 table hits, 6
    misses) and 118 with a target outside the box."""
    rc = twovar_rc
    loop = cl.ControlLoop(rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                          cli._fresh_plant(rc), cl.ControllerMode.NOMINAL,
                          harvest=True)
    made = []                        # (object, its arrays' values then)

    def keep(obj, *arrays):
        made.append((obj, [np.array(a) for a in arrays]))

    setpoints = cli._load_setpoints(str(CONFIGS / "sweep_ct_100.txt"),
                                    rc.op, rc.params)
    exc = loop.excursions
    for r in (setpoints[0], setpoints[60], setpoints[61]):
        loop.set_setpoint(r)
        for _ in range(rc.sweep_cap):
            counted = exc.count
            u, harvested = loop.control_step()
            rec = loop.records[loop.k - 1]
            keep(u, u)
            keep(rec, *(getattr(rec, f) for f in cl.FIELDS
                        if isinstance(getattr(rec, f), np.ndarray)))
            if exc.count > counted:
                keep(exc.last, exc.last.x_bar, exc.last.u_bar)
            if harvested:
                s = loop.harvested[-1]
                keep(s, s.r, s.d_ss)
                break
    assert (len(loop.harvested), loop.k, exc.count) == (3, 216, 118)
    assert (loop.table.hits, loop.table.misses) == (113, 6)
    for obj, then in made:
        if isinstance(obj, np.ndarray):
            now = [obj]
        elif isinstance(obj, cl.HarvestSample):
            now = [obj.r, obj.d_ss]
        elif isinstance(obj, cl.StepRecord):
            now = [getattr(obj, f) for f in cl.FIELDS
                   if isinstance(getattr(obj, f), np.ndarray)]
        else:
            now = [obj.x_bar, obj.u_bar]
        assert all(np.array_equal(a, b) for a, b in zip(now, then)), obj


@pytest.mark.parametrize("r", [[0.0], [0.0, 0.0, 0.0]], ids=["1", "3"])
def test_setpoint_of_the_wrong_size_raises(committed, r):
    """A setpoint with another number of entries than the controlled
    outputs raises, never broadcasts, and leaves the loop's setpoint."""
    model, dist, gains, ocp_cfg = committed
    loop = cl.ControlLoop(model, dist, gains, ocp_cfg,
                          cl.LinearPlant(model, dist, np.zeros(dist.n_d)),
                          cl.ControllerMode.NOMINAL)
    loop.set_setpoint([0.001, 0.1])
    with pytest.raises(ValueError, match="setpoint has"):
        loop.set_setpoint(np.array(r))
    loop.control_step()
    assert loop.records.column("r").tolist() == [[0.001, 0.1]]


def interval_arguments(rc):
    """The fixed arguments of the twovar loop's interval, M_step, P, b_box,
    lo and hi, with n_x and n_t, and the box of v = [w; u; y; d_l; d_l; r]
    that draws cover: states and outputs over the state box, inputs over
    the input box, disturbances over [-0.01, 0.01] x [-6, 6] (the sweep's
    harvested disturbances lie within [-0.008, 0.0003] x [1.0, 5.1]) and
    setpoints over the (c, T) box."""
    loop = cl.ControlLoop(rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                          cli._fresh_plant(rc), cl.ControllerMode.NOMINAL)
    x_box, u_box = rc.ocp_cfg.x_bounds, rc.ocp_cfg.u_bounds
    d_box = (np.array([-0.01, -6.0]), np.array([0.01, 6.0]))
    v_box = [np.concatenate([x[side] for x in (x_box, d_box, u_box, x_box,
                                               d_box, d_box)]
                            + [x_box[side][:2]]) for side in (0, 1)]
    fixed = (loop.estimator.M_step, loop.pred.law.P, loop.pred.b_box,
             loop.pred.lo, loop.pred.hi)
    return fixed, rc.model.n_x, loop.pred.law.n_t, v_box


def run_interval(fn, fixed, v, n_x):
    """(flag, objective, excursion, w, theta, z) of one call into new
    buffers."""
    M_step, P = fixed[0], fixed[1]
    w, theta, z = (np.empty(len(M_step)), np.empty(P.shape[1]),
                   np.empty(len(P)))
    return (*fn(*fixed, v, w, theta, z, n_x), w, theta, z)


def same_floats(a, b):
    """a and b hold the same floats: NaN at the same places, and equal with
    the same sign everywhere else, so +0.0 and -0.0 differ."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def test_compiled_interval_matches_numpy_on_20000_draws(twovar_rc,
                                                        compiled_kernels):
    """The two forms give the same floats: w, theta and z, zeros' signs
    included, and the same flag, objective and excursion, on every draw.
    Both sum each product left to right, so against numpy's matmul, which
    the two do not share, the Python form's w = M_step v[:n_in] and z = P
    theta agree within 1e-12 relative to max(1, |value|). 2 786 draws take
    the free path and 8 857 leave the target box."""
    fixed, n_x, _, (lo, hi) = interval_arguments(twovar_rc)
    M_step, P = fixed[0], fixed[1]
    rng = np.random.default_rng(22)
    free = outside = 0
    for _ in range(20000):
        v = rng.uniform(lo, hi)
        got = run_interval(compiled_kernels.interval, fixed, v, n_x)
        want = run_interval(kernels._interval_python, fixed, v, n_x)
        assert got[:3] == want[:3]
        assert all(same_floats(a, b) for a, b in zip(got[3:], want[3:]))
        w, theta, z = want[3:]
        for a, b in ((w, M_step @ v[:M_step.shape[1]]), (z, P @ theta)):
            assert (np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))).all()
        free += want[0] == 1
        outside += want[2]
    assert (free, outside) == (2786, 8857)


def test_learned_step_is_the_interval_update_bit_for_bit(twovar_rc,
                                                        compiled_kernels):
    """DisturbanceEstimator.learned_step, the package's one Python
    estimator update, gives the w of both forms of interval on every draw,
    zeros' signs included. numpy's matmul, which sums in BLAS's order,
    differs from them in the last bits on 1897 of the 2000 draws."""
    rc = twovar_rc
    fixed, n_x, _, (lo, hi) = interval_arguments(rc)
    estimator = est_mod.DisturbanceEstimator(rc.model, rc.dist,
                                             rc.make_gains())
    M_step = estimator.M_step
    assert np.array_equal(M_step, fixed[0])
    n_w = len(M_step)
    cuts = np.cumsum([n_x, n_w - n_x, rc.model.n_u, rc.model.n_y,
                      n_w - n_x])
    rng = np.random.default_rng(27)
    blas = 0
    for _ in range(2000):
        v = rng.uniform(lo, hi)
        x_hat, d_hat, u, y_p, d_l = np.split(v, cuts)[:5]
        est = est_mod.AugmentedEstimate(x_hat, d_hat)
        got = estimator.learned_step(est, u, y_p, d_l).w
        for fn in (kernels._interval_python, compiled_kernels.interval):
            assert same_floats(got, run_interval(fn, fixed, v, n_x)[3])
        blas += not same_floats(got, M_step @ v[:M_step.shape[1]])
    assert blas == 1897


def test_non_finite_estimate_gives_flag_0_and_stops_the_loop(
        twovar_rc, either_interval):
    """An estimate that is not finite is flag 0 in both forms, and
    control_step raises ValueError('non-finite estimate') at the interval
    whose update reads the non-finite measurement."""
    rc = twovar_rc
    model, dist = rc.model, rc.dist
    fixed, n_x, _, (lo, hi) = interval_arguments(rc)
    for bad in (np.nan, np.inf, -np.inf):
        v = (lo + hi) / 2
        v[9] = bad                   # an entry of y_{k-1}
        with np.errstate(invalid="ignore"):
            assert run_interval(kernels.active.interval, fixed, v, n_x)[0] == 0

    class BrokenSensor(cl.LinearPlant):
        def measure(self):
            return np.full(model.n_y, np.inf)

    loop = cl.ControlLoop(model, dist, rc.make_gains(), rc.ocp_cfg,
                          BrokenSensor(model, dist, np.zeros(dist.n_d)),
                          cl.ControllerMode.NOMINAL)
    loop.set_setpoint(np.zeros(model.n_z))
    with np.errstate(invalid="ignore"):
        loop.control_step()
        with pytest.raises(ValueError, match="non-finite estimate"):
            loop.control_step()
    assert loop.k == 1 and len(loop.records) == 1


def test_compiled_interval_rejects_buffers_that_do_not_fit(twovar_rc,
                                                           compiled_kernels):
    """The kernel reads and writes raw buffers, so it refuses any that is
    not a C-contiguous float64 array of the size the others imply, and an
    output it cannot write."""
    fixed, n_x, _, (lo, hi) = interval_arguments(twovar_rc)
    interval = compiled_kernels.interval
    M_step, P = fixed[0], fixed[1]

    def call(**swap):
        buffers = dict(zip(("M_step", "P", "b_box", "lo", "hi"), fixed),
                       v=(lo + hi) / 2, w=np.empty(len(M_step)),
                       theta=np.empty(P.shape[1]), z=np.empty(len(P)))
        buffers.update(swap)
        return interval(*buffers.values(), n_x)

    assert call()[0] in (1, 2)
    read_only = np.empty(len(M_step))
    read_only.flags.writeable = False
    for swap, error in (
            ({"v": np.zeros(2 * len(lo))[::2]}, ValueError),
            ({"v": ((lo + hi) / 2).astype(np.float32)}, TypeError),
            ({"v": ((lo + hi) / 2).tolist()}, TypeError),
            ({"w": read_only}, ValueError),
            ({"z": np.empty(len(P) - 1)}, ValueError),
            ({"theta": np.empty(P.shape[1] + 1)}, ValueError),
            ({"hi": fixed[4][:-1]}, ValueError)):
        with pytest.raises(error):
            call(**swap)
    with pytest.raises(TypeError, match="10 arguments"):
        interval(*fixed)


# ---- the log row, steady count and carry: compiled, with its numpy form
# as the oracle ----

def record_arguments(rc):
    """The twovar loop's H, n_x and n_d, the width of its log rows, and
    the boxes that record's draws cover: v over interval_arguments' box,
    y_p over the state box and u over the input box."""
    fixed, n_x, n_t, v_box = interval_arguments(rc)
    model, n_d = rc.model, rc.dist.n_d
    width = sum(cl.ControlLoop(model, rc.dist, rc.make_gains(), rc.ocp_cfg,
                               cli._fresh_plant(rc),
                               cl.ControllerMode.NOMINAL).records.widths
                .values())
    boxes = dict(v=v_box, y_p=rc.ocp_cfg.x_bounds, u=rc.ocp_cfg.u_bounds)
    return model.H, n_x, n_d, width, boxes


def test_compiled_record_matches_python_on_20000_draws(twovar_rc,
                                                      compiled_kernels):
    """Each draw fills a 3-row block with noise and writes row k in {0, 1,
    2} through both forms. The previous row (at k = 0 the last) holds the same r (a zero with
    the other sign), or one that differs in one entry's last ulp or
    anywhere, and y_p and u moved by 0 or up to 1e-4; the tolerances are
    1e-5 or exactly the largest moves, and a tenth of the draws put a NaN,
    +0.0 or -0.0 into y_p, u or r. With the twovar loop's 0/1 selector H
    and with a dense H, the blocks, v and counts are the same floats.
    8 035 draws are quiet and 5 085 steady; 2 840 are quiet with a move
    exactly at its tolerance and 192 with a +0.0 against a -0.0 in r; no
    r that differs in its last ulp is quiet, and no row 0 is, though the
    block's last row, which row 0 must not read, would be."""
    H, n_x, n_d, width, boxes = record_arguments(twovar_rc)
    n_y, n_z = H.shape[1], H.shape[0]
    n_u, n_w = len(boxes["u"][0]), n_x + n_d
    r_at, y_at, zp_at = 1, 1 + n_z, 1 + n_z + n_y
    u_at = zp_at + n_z
    rng = np.random.default_rng(24)
    tally = collections.Counter()
    for _ in range(20000):
        v, y_p, u = (rng.uniform(*boxes[name]) for name in ("v", "y_p", "u"))
        r = v[len(v) - n_z:]
        w = v[:n_w].copy()
        theta = np.concatenate([w, r])
        z = rng.uniform(-10.0, 10.0, n_x + n_u + 3)
        if rng.uniform() < 0.1:
            x = (y_p, u, r)[int(rng.integers(0, 3))]
            x[int(rng.integers(0, len(x)))] = rng.choice([np.nan, 0.0, -0.0])
        values = rng.uniform(-1.0, 1.0, (3, width))
        k = int(rng.integers(0, 3))
        tol_y = tol_u = 1e-5
        edge = False
        # at k = 0, the block's last row: no row precedes row 0
        prev = values[k - 1]
        which = rng.uniform()
        if which < 0.9:
            # the same r, where a zero may have the other sign
            prev[r_at:y_at] = np.where(r == 0.0, -r, r)
        ulp = 0.8 <= which < 0.9
        if which >= 0.8:
            j = r_at + int(rng.integers(0, n_z))
            prev[j] = np.nextafter(prev[j], rng.choice([-np.inf, np.inf]))
        for at, x in ((y_at, y_p), (u_at, u)):
            prev[at:at + len(x)] = x + rng.choice(
                [0.0, 1e-6, 1e-5, 1e-4]) * rng.uniform(-1, 1, len(x))
        if rng.uniform() < 0.5:
            with np.errstate(invalid="ignore"):
                tol_y, tol_u = (
                    float(np.abs(x - prev[at:at + len(x)]).max())
                    for at, x in ((y_at, y_p), (u_at, u)))
            edge = tol_y > 0.0 and tol_u > 0.0
        args = (k, float(rng.uniform(0, 1e3)), float(rng.normal()),
                int(rng.integers(0, 5)), int(rng.integers(0, 8)),
                int(rng.integers(2, 7)), tol_y, tol_u, n_x)
        for H_draw in (H, rng.uniform(-1.0, 1.0, H.shape)):
            got_values, got_v = values.copy(), v.copy()
            want_values, want_v = values.copy(), v.copy()
            got = compiled_kernels.record(got_values, H_draw, y_p, u, w,
                                          theta, z, got_v, *args)
            with np.errstate(invalid="ignore"):
                want = kernels._record_python(want_values, H_draw, y_p, u,
                                              w, theta, z, want_v, *args)
            assert got == want
            assert same_floats(got_v, want_v)
            assert same_floats(got_values, want_values)
        tally["quiet"] += want > 0
        tally["steady"] += want >= args[5]
        tally["ulp, quiet"] += ulp and want > 0
        tally["edge, quiet"] += edge and want > 0
        tally["signed zero in r, quiet"] += (r == 0.0).any() and want > 0
        tally["k = 0, quiet"] += k == 0 and want > 0
    assert tally == {"quiet": 8035, "steady": 5085, "ulp, quiet": 0,
                     "edge, quiet": 2840, "signed zero in r, quiet": 192,
                     "k = 0, quiet": 0}


def test_compiled_record_rejects_buffers_that_do_not_fit(twovar_rc,
                                                         compiled_kernels):
    """record, like interval, refuses any buffer that is not a
    C-contiguous float64 array of the size the others imply, a block that
    is not 2-D or has no row k, and an output it cannot write."""
    H, n_x, n_d, width, boxes = record_arguments(twovar_rc)
    v_lo, v_hi = boxes["v"]
    n_w, n_z = n_x + n_d, H.shape[0]
    record = compiled_kernels.record

    def call(k=1, **swap):
        buffers = dict(values=np.zeros((4, width)), H=H,
                       y_p=np.zeros(H.shape[1]), u=np.zeros(2),
                       w=np.zeros(n_w), theta=np.zeros(n_w + n_z),
                       z=np.zeros(n_x + 2), v=(v_lo + v_hi) / 2)
        buffers.update(swap)
        return record(*buffers.values(), k, 1.0, 0.0, 0, 0, 5, 1e-5, 1e-5,
                      n_x)

    assert call() == 0
    read_only = np.zeros(len(v_lo))
    read_only.flags.writeable = False
    for k, swap, error in (
            (4, {}, ValueError),
            (-1, {}, ValueError),
            (1, {"values": np.zeros(4 * width)}, ValueError),
            (1, {"values": np.zeros((4, width + 1))}, ValueError),
            (1, {"values": np.zeros((width, 4)).T}, ValueError),
            (1, {"values": np.zeros((4, width), np.float32)}, TypeError),
            (1, {"y_p": np.zeros(3).tolist()}, TypeError),
            (1, {"u": np.zeros(4)[::2]}, ValueError),
            (1, {"v": read_only}, ValueError),
            (1, {"v": np.zeros(len(v_lo) + 1)}, ValueError),
            (1, {"H": H[:, :2].copy()}, ValueError),
            (1, {"theta": np.zeros(n_w + n_z + 1)}, ValueError),
            (1, {"z": np.zeros(n_x + 1)}, ValueError)):
        with pytest.raises(error):
            call(k, **swap)
    with pytest.raises(TypeError, match="17 arguments"):
        record(np.zeros((4, width)))


def test_steady_column_matches_the_detector(twovar_rc, drift_rc,
                                            either_interval):
    """The steady column, which record writes from row k-1 of the log
    block, is SteadyDetector's answer on the rows' (r, y_p, u): on the
    committed sweep_ct_100 sweep, whose block grows from 64 rows to 8192
    on the way, and on the drift run in learned mode, whose harvests
    change the map."""
    rc = twovar_rc
    setpoints = cli._load_setpoints(str(CONFIGS / "sweep_ct_100.txt"), rc.op,
                                    rc.params)
    samples, sweep = cl.sweep_harvest(
        rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg, cli._fresh_plant(rc),
        setpoints, cap=rc.sweep_cap, steady=rc.scenario.steady)
    assert (len(samples), len(sweep.records)) == (100, 4366)
    assert len(sweep.records.values) == 8192
    rc = drift_rc
    scenario = dataclasses.replace(rc.scenario,
                                   mode=cl.ControllerMode.LEARNED)
    run = cl.run_scenario(scenario, rc.model, rc.dist, rc.make_gains(),
                          rc.ocp_cfg, cli._fresh_plant(rc),
                          grnn=cli._build_grnn(rc))
    assert (len(run.harvested), len(run.records)) == (16, 1120)
    for log, sc in ((sweep, twovar_rc.scenario), (run, scenario)):
        recs = log.records
        rows = zip(recs.column("r"), recs.column("y_p"), recs.column("u"))
        flags = counter_flags(list(rows), sc.steady.M, sc.steady.tol_y,
                              sc.steady.tol_u)
        assert flags == recs.column("steady").astype(bool).tolist()
        assert 0 < sum(flags) < len(flags)


# steady settings that SteadyTest rejects: M is an integer >= 2 (not a
# float or a bool), each tolerance >= 0 and not NaN
BAD_STEADY = {"M = 1": {"M": 1}, "M = 5.0": {"M": 5.0},
              "M = True": {"M": True},
              "tol_y = -1": {"tol_y": -1.0}, "tol_y = nan": {"tol_y": np.nan},
              "tol_u = -1": {"tol_u": -1.0}, "tol_u = nan": {"tol_u": np.nan}}


@pytest.mark.parametrize("case", sorted(BAD_STEADY))
def test_the_steady_settings_are_checked_once_for_both_kernels(
        committed, either_interval, case):
    """A bad steady setting is one ValueError from SteadyTest, whether it
    is given to ScenarioConfig, ControlLoop or sweep_harvest, with the
    kernels on and off; a numpy integer M is kept as the int that record
    reads, and steps as M = 5 does."""
    m, dist, gains, cfg = committed

    def loop(steady):
        return cl.ControlLoop(m, dist, gains, cfg,
                              cl.LinearPlant(m, dist, d_star=np.zeros(2)),
                              cl.ControllerMode.NOMINAL, steady=steady)

    sites = (lambda steady: steady,
             lambda steady: cl.ScenarioConfig(
                 duration=10.0, schedule=((0.0, (0.0, 0.0)),),
                 mode="nominal", steady=steady),
             loop,
             lambda steady: cl.sweep_harvest(
                 m, dist, gains, cfg,
                 cl.LinearPlant(m, dist, d_star=np.zeros(2)),
                 [np.zeros(2)], steady=steady))
    for site in sites:
        with pytest.raises(ValueError, match=r"^steady\.(M|tol_y|tol_u) "):
            site(cl.SteadyTest(**BAD_STEADY[case]))
    steady = cl.SteadyTest(M=np.int64(5))
    assert type(steady.M) is int and steady == cl.SteadyTest()
    logs = []
    for test in (steady, cl.SteadyTest()):
        run = loop(test)
        run.set_setpoint((0.0, 0.0))
        for _ in range(8):
            run.control_step()
        logs.append(run.records)
    assert logs[0].column("steady").tolist() == [0.0] * 5 + [1.0] * 3
    assert logs[0].values.tobytes() == logs[1].values.tobytes()
