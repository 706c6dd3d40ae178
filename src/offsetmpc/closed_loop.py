"""Closed-loop orchestration: estimator update, learned-map lookup, target
solve, QP solve, plant step; plus steady-state data harvesting, per-segment
metrics, value-function diagnostics, and log (de)serialization.

Within a control interval k the order is: read y_p(k); look up the learned
disturbance at the current setpoint; advance the estimator one step using
the stored (u, y_p, learned d) from interval k-1; solve the target problem
and the finite-horizon QP with the combined disturbance; apply the first
input. The estimator is not updated at k=0 (nothing stored yet).
"""

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import grnn as grnn_mod
from . import ocp as ocp_mod
from . import plant as plant_mod
from .estimator import DisturbanceEstimator
from .target import BoundExcursions, TargetCalculator


class CrossCheckFailed(Exception):
    pass


class SteadyNotReached(Exception):
    pass


# failures part-way through a run: the log keeps the intervals before them
ABORTS = (ocp_mod.Infeasible, ocp_mod.MaxIterations, plant_mod.NonPhysicalState)


class ControllerMode(enum.Enum):
    NOMINAL = "nominal"
    LEARNED = "learned"


@dataclass
class ScenarioConfig:
    duration: float                  # minutes
    schedule: tuple                  # ((start time, r vector), ...)
    mode: ControllerMode
    grnn_capacity: int = 50
    grnn_sigma: object = "auto"      # float or "auto"
    events: tuple = ()               # ((time, {param: value}), ...)
    harvest: bool = False
    steady_M: int = 5
    steady_tol_y: float = 1e-5
    steady_tol_u: float = 1e-5

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = ControllerMode(self.mode)
        sched = []
        for t, r in self.schedule:
            sched.append((float(t), np.asarray(r, dtype=float).reshape(-1)))
        self.schedule = tuple(sched)
        times = [t for t, _ in self.schedule]
        if not times or times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must be strictly increasing")
        if self.duration < times[-1]:
            raise ValueError("duration does not cover the schedule")
        if self.steady_M < 2:
            raise ValueError("steady.M must be >= 2")
        if self.grnn_capacity < 1:
            raise ValueError("grnn.capacity must be >= 1")
        if self.steady_tol_y < 0:
            raise ValueError("steady.tol_y must be >= 0")
        if self.steady_tol_u < 0:
            raise ValueError("steady.tol_u must be >= 0")

    def setpoint_at(self, t):
        r = self.schedule[0][1]
        for ts, rv in self.schedule:
            if t >= ts - 1e-9:
                r = rv
        return r


@dataclass
class StepRecord:
    time: float
    r: np.ndarray
    y_p: np.ndarray
    z_p: np.ndarray
    u: np.ndarray
    x_hat: np.ndarray
    d_learned: np.ndarray
    d_supp: np.ndarray
    d_total: np.ndarray
    x_bar: np.ndarray
    u_bar: np.ndarray
    qp_objective: float
    active_set_size: int
    steady: bool
    harvested: bool

    def __post_init__(self):
        if not np.array_equal(self.d_total, self.d_learned + self.d_supp):
            raise ValueError("d_total must equal d_learned + d_supp exactly")


@dataclass
class HarvestSample:
    r: np.ndarray
    d_ss: np.ndarray
    residual: float
    time: float


@dataclass
class ClosedLoopLog:
    records: list = field(default_factory=list)
    harvested: list = field(default_factory=list)
    rejected_harvests: int = 0
    target_excursions: BoundExcursions = field(default_factory=BoundExcursions)
    table_hits: int = 0              # the loop's ActiveSetTable counts
    table_misses: int = 0
    events_applied: list = field(default_factory=list)
    aborted: Optional[dict] = None


class NonlinearPlant:
    """CSTR truth in deviation coordinates around an operating point."""

    def __init__(self, state, params, op, dt=1.0):
        self.state = state
        self.params = params
        self.op = op
        self.dt = dt

    def measure(self):
        return plant_mod.measure(self.state, self.op)

    def step(self, u_dev):
        u_abs = self.op.u_ss + np.asarray(u_dev, dtype=float)
        self.state = plant_mod.step(self.state, u_abs, self.params, self.dt)

    def apply_event(self, event):
        self.params = plant_mod.apply_event(self.params, event)


class LinearPlant:
    """The controller's own model driven by a constant modeled disturbance;
    lets exactness claims be tested without plant-model mismatch."""

    def __init__(self, model, dist, d_star, x0=None):
        self.model = model
        self.dist = dist
        self.d_star = np.asarray(d_star, dtype=float)
        self.x = np.zeros(model.n_x) if x0 is None else np.asarray(x0, dtype=float).copy()

    def measure(self):
        return self.model.C @ self.x + self.dist.C_d @ self.d_star

    def step(self, u_dev):
        self.x = (self.model.A @ self.x + self.model.B @ np.asarray(u_dev, dtype=float)
                  + self.dist.B_d @ self.d_star)

    def apply_event(self, event):
        if "d_star" in event and len(event) == 1:
            self.d_star = np.asarray(event["d_star"], dtype=float)
        else:
            raise plant_mod.UnknownEvent(
                f"linear plant only supports d_star overrides, got {event}")


def _steady_window(rs, ys, us, M, tol_y, tol_u):
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


def detect_steady(records, tol_y=1e-5, tol_u=1e-5, M=5):
    if M < 2:
        raise ValueError("M must be >= 2")
    window = records[-(M + 1):]
    return _steady_window([rec.r for rec in window],
                          [rec.y_p for rec in window],
                          [rec.u for rec in window], M, tol_y, tol_u)


def harvest_sample(estimator, record):
    """Training sample (r, steady combined disturbance) from a steady record,
    cross-checked against the algebraic steady-state inversion."""
    io = estimator.steady_state_from_io(record.y_p, record.u)
    residual = float(np.abs(record.d_total - io.d_hat).max())
    if residual > 1e-4:
        raise CrossCheckFailed(f"steady-state cross-check residual {residual:.3e}")
    return HarvestSample(record.r.copy(), record.d_total.copy(), residual,
                         record.time)


class ControlLoop:
    """State of one running scenario; control_step advances it one interval."""

    def __init__(self, model, dist, gains, ocp_cfg, plant, mode,
                 grnn=None, harvest=False, steady_M=5,
                 steady_tol_y=1e-5, steady_tol_u=1e-5, pred=None):
        """pred is ocp.build_prediction(model, dist, ocp_cfg), built here
        when None; loops of one command share it read-only."""
        self.model = model
        self.dist = dist
        self.cfg = ocp_cfg
        self.estimator = DisturbanceEstimator(model, dist, gains)
        self.pred = (ocp_mod.build_prediction(model, dist, ocp_cfg)
                     if pred is None else pred)
        self.targets = TargetCalculator(model, dist,
                                        u_bounds=ocp_cfg.u_bounds,
                                        x_bounds=ocp_cfg.x_bounds,
                                        T=self.pred.T)
        self.table = ocp_mod.ActiveSetTable(self.pred)
        self.plant = plant
        self.mode = mode
        self.grnn = grnn
        self.harvest = harvest
        self.steady_M = steady_M
        self.steady_tol_y = steady_tol_y
        self.steady_tol_u = steady_tol_u
        self.k = 0
        self.estimate = self.estimator.initial()
        self._prev = None            # (u, y_p, d_learned) at k-1
        # the steady detector reads only the last M+1 intervals
        self._rs, self._ys, self._us = (deque(maxlen=steady_M + 1)
                                        for _ in range(3))
        self._last_harvest_r = None
        self._lookup = None          # (grnn, r, d_learned) of the last predict
        self.harvested = []
        self.rejected_harvests = 0

    def control_step(self, r):
        r = np.asarray(r, dtype=float).reshape(-1)
        y_p = self.plant.measure()
        if self.mode is ControllerMode.LEARNED and self.grnn is not None:
            # models are immutable, so the map changes only with the model
            # (a harvest) or the setpoint
            if (self._lookup is None or self._lookup[0] is not self.grnn
                    or not np.array_equal(self._lookup[1], r)):
                self._lookup = (self.grnn, r.copy(),
                                grnn_mod.predict(self.grnn, r))
            d_l = self._lookup[2]
        else:
            d_l = np.zeros(self.dist.n_d)
        if self.k > 0:
            u1, y1, dl1 = self._prev
            self.estimate = self.estimator.learned_step(self.estimate, u1, y1, dl1)
        d_s = self.estimate.d_hat
        d_tot = d_l + d_s
        tgt = self.targets.solve(d_tot, r)
        x_hat = self.estimate.x_hat
        sol = self.table.solve(np.concatenate([x_hat, d_tot, r]))
        if sol is None:
            qp = ocp_mod.condense(self.pred, self.cfg, x_hat, d_tot, tgt)
            sol = ocp_mod.solve_qp(qp)
            self.table.insert(sol.active_set)
        u = sol.u_seq[:self.cfg.n_u].copy()
        z_p = self.model.H @ y_p

        self._rs.append(r.copy())
        self._ys.append(y_p.copy())
        self._us.append(u.copy())
        steady = _steady_window(self._rs, self._ys, self._us, self.steady_M,
                                self.steady_tol_y, self.steady_tol_u)
        record = StepRecord(
            time=self.k * self.model.dt, r=r.copy(), y_p=y_p, z_p=z_p, u=u,
            x_hat=x_hat.copy(), d_learned=d_l.copy(),
            d_supp=d_s.copy(), d_total=d_l + d_s, x_bar=tgt.x_bar.copy(),
            u_bar=tgt.u_bar.copy(), qp_objective=sol.objective,
            active_set_size=len(sol.active_set), steady=steady,
            harvested=False)

        self._prev = (u.copy(), y_p.copy(), d_l.copy())
        # harvest only once the interval has completed, so a failing plant
        # step leaves no sample without its record
        self.plant.step(u)
        if (self.harvest and steady
                and (self._last_harvest_r is None
                     or not np.array_equal(self._last_harvest_r, r))):
            try:
                sample = harvest_sample(self.estimator, record)
                self.harvested.append(sample)
                self._last_harvest_r = r.copy()
                record.harvested = True
                if self.mode is ControllerMode.LEARNED and self.grnn is not None:
                    self.grnn = grnn_mod.add_sample(self.grnn, sample.r, sample.d_ss)
            except CrossCheckFailed:
                self.rejected_harvests += 1
        self.k += 1
        return u, record


def run_scenario(scenario, model, dist, gains, ocp_cfg, plant, grnn=None,
                 pred=None):
    """Deterministic replay of one scenario; events fire between intervals;
    the run aborts with a diagnostic on any of ABORTS. pred as for
    ControlLoop."""
    loop = ControlLoop(model, dist, gains, ocp_cfg, plant, scenario.mode,
                       grnn=grnn, harvest=scenario.harvest,
                       steady_M=scenario.steady_M,
                       steady_tol_y=scenario.steady_tol_y,
                       steady_tol_u=scenario.steady_tol_u, pred=pred)
    log = ClosedLoopLog()
    n_steps = int(round(scenario.duration / model.dt))
    pending = sorted(scenario.events, key=lambda e: e[0])
    for k in range(n_steps):
        t = k * model.dt
        while pending and t >= pending[0][0] - 1e-9:
            _, event = pending.pop(0)
            plant.apply_event(event)
            log.events_applied.append((t, dict(event)))
        r = scenario.setpoint_at(t)
        try:
            _, record = loop.control_step(r)
        except ABORTS as exc:
            log.aborted = {"time": t, "reason": str(exc)}
            break
        log.records.append(record)
    log.harvested = loop.harvested
    log.rejected_harvests = loop.rejected_harvests
    log.target_excursions = loop.targets.excursions
    log.table_hits, log.table_misses = loop.table.hits, loop.table.misses
    return log


def sweep_harvest(model, dist, gains, ocp_cfg, plant, setpoints, cap=200,
                  steady_M=5, steady_tol_y=1e-5, steady_tol_u=1e-5,
                  pred=None):
    """Visit each setpoint until steady and harvest one sample there;
    plant and estimator state carry over between setpoints. Any of ABORTS
    ends the sweep with the samples harvested so far. pred as for
    ControlLoop."""
    loop = ControlLoop(model, dist, gains, ocp_cfg, plant,
                       ControllerMode.NOMINAL, harvest=True,
                       steady_M=steady_M, steady_tol_y=steady_tol_y,
                       steady_tol_u=steady_tol_u, pred=pred)
    log = ClosedLoopLog()
    try:
        for r in setpoints:
            for _ in range(cap):
                _, record = loop.control_step(r)
                log.records.append(record)
                if record.harvested:
                    break
            else:
                raise SteadyNotReached(f"no steady state within {cap} steps at "
                                       f"setpoint {np.asarray(r)}")
    except ABORTS as exc:
        # control_step raised before advancing k: k is the failing interval
        log.aborted = {"time": loop.k, "reason": str(exc)}
    log.harvested = loop.harvested
    log.rejected_harvests = loop.rejected_harvests
    log.target_excursions = loop.targets.excursions
    log.table_hits, log.table_misses = loop.table.hits, loop.table.misses
    return loop.harvested, log


# ---- metrics ----

@dataclass
class SegmentSummary:
    start: float
    end: float
    r: np.ndarray
    terminal_e: np.ndarray     # componentwise |z - r| at the last record
    ise: float
    peak: float
    settling: Optional[float]  # time from segment start; None if never


def segment_bounds(records):
    bounds = []
    start = 0
    for i in range(1, len(records)):
        if not np.array_equal(records[i].r, records[start].r):
            bounds.append((start, i))
            start = i
    if records:
        bounds.append((start, len(records)))
    return bounds


def metrics(log, dt=1.0, settle_tol=1e-3):
    if not log.records:
        raise ValueError("empty log")
    segments = []
    total_ise = 0.0
    for a, b in segment_bounds(log.records):
        recs = log.records[a:b]
        errs = np.array([rec.z_p - rec.r for rec in recs])
        ise = float((errs ** 2).sum() * dt)
        peak = float(np.abs(errs).max())
        below = np.abs(errs).max(axis=1) <= settle_tol
        settling = None
        for i in range(len(recs)):
            if below[i:].all():
                settling = recs[i].time - recs[0].time
                break
        segments.append(SegmentSummary(
            start=recs[0].time, end=recs[-1].time + dt, r=recs[0].r.copy(),
            terminal_e=np.abs(errs[-1]), ise=ise, peak=peak,
            settling=settling))
        total_ise += ise
    return {"segments": segments, "total_ise": total_ise}


@dataclass
class LyapunovTrace:
    values: list
    margins: list              # J(k+1) - J(k) + stage(k)
    truncated: bool


def lyapunov_trace(log, pred, cfg, tgt, d_hat):
    """Value function along the logged estimates against one fixed target
    and disturbance (the frozen learned map's steady values)."""
    values = []
    truncated = False
    for rec in log.records:
        try:
            values.append(ocp_mod.value_function(pred, cfg, rec.x_hat, d_hat, tgt))
        except ocp_mod.Infeasible:
            truncated = True
            break
    margins = []
    for k in range(len(values) - 1):
        rec = log.records[k]
        dx = rec.x_hat - tgt.x_bar
        du = rec.u - tgt.u_bar
        stage = float(dx @ (cfg.q_x * dx) + du @ (cfg.q_u * du))
        margins.append(values[k + 1] - values[k] + stage)
    return LyapunovTrace(values, margins, truncated)


# ---- serialization ----

def _columns(rec):
    cols = [("time", np.array([rec.time]))]
    for name in ("r", "y_p", "z_p", "u", "x_hat", "d_learned", "d_supp",
                 "d_total", "x_bar", "u_bar"):
        cols.append((name, getattr(rec, name)))
    cols.append(("qp_objective", np.array([rec.qp_objective])))
    return cols


def write_log_csv(log, path):
    """One record per row, full double precision; stable column order:
    time, r, y_p, z_p, u, x_hat, d_learned, d_supp, d_total, x_bar, u_bar,
    qp_objective, active_set_size, steady, harvested."""
    with open(path, "w") as fh:
        if log.records:
            header = []
            for name, vec in _columns(log.records[0]):
                if vec.shape[0] == 1:
                    header.append(name)
                else:
                    header.extend(f"{name}_{i}" for i in range(vec.shape[0]))
            header += ["active_set_size", "steady", "harvested"]
        else:
            header = ["time"]
        fh.write(",".join(header) + "\n")
        for rec in log.records:
            vals = []
            for _, vec in _columns(rec):
                vals.extend("%.17g" % v for v in vec)
            vals.append(str(rec.active_set_size))
            vals.append(str(int(rec.steady)))
            vals.append(str(int(rec.harvested)))
            fh.write(",".join(vals) + "\n")


def read_log_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    groups = {}
    for idx, name in enumerate(header):
        base = name.rsplit("_", 1)[0] if name.rsplit("_", 1)[-1].isdigit() else name
        groups.setdefault(base, []).append(idx)
    log = ClosedLoopLog()
    for row in rows:
        vec = lambda base: np.array([float(row[i]) for i in groups[base]])
        log.records.append(StepRecord(
            time=float(row[groups["time"][0]]),
            r=vec("r"), y_p=vec("y_p"), z_p=vec("z_p"), u=vec("u"),
            x_hat=vec("x_hat"), d_learned=vec("d_learned"),
            d_supp=vec("d_supp"), d_total=vec("d_total"),
            x_bar=vec("x_bar"), u_bar=vec("u_bar"),
            qp_objective=float(row[groups["qp_objective"][0]]),
            active_set_size=int(row[groups["active_set_size"][0]]),
            steady=bool(int(row[groups["steady"][0]])),
            harvested=bool(int(row[groups["harvested"][0]]))))
    return log


def write_summary(log, path, dt=1.0, settle_tol=1e-3):
    with open(path, "w") as fh:
        fh.write("# closed-loop summary\n")
        fh.write(f"steps {len(log.records)}\n")
        if log.aborted:
            fh.write("aborted time %.17g reason %s\n"
                     % (log.aborted["time"], log.aborted["reason"]))
        for t, event in log.events_applied:
            kv = " ".join(f"{k}={v}" for k, v in sorted(event.items()))
            fh.write("event time %.17g %s\n" % (t, kv))
        if log.records:
            m = metrics(log, dt=dt, settle_tol=settle_tol)
            for i, seg in enumerate(m["segments"]):
                fh.write("segment %d start %.17g end %.17g r %s "
                         "terminal_e %s ise %.17g peak %.17g settling %s\n"
                         % (i, seg.start, seg.end,
                            " ".join("%.17g" % v for v in seg.r),
                            " ".join("%.17g" % v for v in seg.terminal_e),
                            seg.ise, seg.peak,
                            "none" if seg.settling is None
                            else "%.17g" % seg.settling))
            fh.write("total_ise %.17g\n" % m["total_ise"])
        fh.write(f"harvested {len(log.harvested)}\n")
        for s in log.harvested:
            fh.write("sample time %.17g r %s d %s residual %.17g\n"
                     % (s.time, " ".join("%.17g" % v for v in s.r),
                        " ".join("%.17g" % v for v in s.d_ss), s.residual))
        if log.rejected_harvests:
            fh.write(f"rejected_harvests {log.rejected_harvests}\n")
        exc = log.target_excursions
        if exc.count:
            fh.write("target_bound_excursions %d first %s last %s\n"
                     % (exc.count, exc.first.text(), exc.last.text()))
