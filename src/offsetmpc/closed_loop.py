"""Closed-loop orchestration: estimator update, learned-map lookup, target
solve, QP solve, plant step; plus steady-state data harvesting, per-segment
metrics, value-function diagnostics, and log (de)serialization.

Within a control interval k the order is: take the learned disturbance
at the setpoint from grnn.lookup, on the first interval after the
setpoint or the map changed; read y_p(k); advance the estimator one step
using the stored (u, y_p, learned d) from interval k-1; solve the target
problem and the finite-horizon QP with the combined disturbance; apply
the first input. At k=0 the stored values are zeros, from which the
update gives the initial (zero) estimate. A map keeps its lookups, so
after check_map's at the schedule's setpoints before the first interval,
an interval predicts only once a harvest has replaced the map. The
update, the affine law's product and its free-path tests run in one call
of the compiled kernel interval (see kernels.py); the log row, the steady
test against the row before and the carry of [w; u; y_p; d_l] into the
next interval's input run in one call of the kernel record, after
interval or after the active-set table when a row is violated; where the
kernels cannot be built, both run in their Python forms. The plant is a
plant.NonlinearPlant, whose step is one call of the kernel advance, or a
LinearPlant. write_log_csv formats the log's rows in one call of the
kernel log_text.
"""

import collections.abc
import copy
import enum
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import grnn as grnn_mod
from . import kernels
from . import ocp as ocp_mod
from . import plant as plant_mod
from .estimator import DisturbanceEstimator
# callers may name the loop's CSTR closed_loop.NonlinearPlant
from .plant import NonlinearPlant
from .target import BoundExcursions, TargetPair


class CrossCheckFailed(Exception):
    pass


# failures part-way through a run: the log keeps the intervals before them
ABORTS = (ocp_mod.Infeasible, ocp_mod.MaxIterations, plant_mod.NonPhysicalState)


class ControllerMode(enum.Enum):
    NOMINAL = "nominal"
    LEARNED = "learned"


@dataclass(frozen=True)
class SteadyTest:
    """When the loop counts an interval steady: once M >= 2 (an int, as
    the kernel record reads it) consecutive intervals kept the setpoint and
    moved no entry of y_p or u more than tol_y or tol_u (>= 0, not NaN)."""
    M: int = 5
    tol_y: float = 1e-5
    tol_u: float = 1e-5

    def __post_init__(self):
        M = self.M
        if not isinstance(M, numbers.Integral) or isinstance(M, bool):
            raise ValueError(f"steady.M must be an integer, got {M!r}")
        if M < 2:
            raise ValueError("steady.M must be >= 2")
        object.__setattr__(self, "M", int(M))
        for name in ("tol_y", "tol_u"):
            tol = float(getattr(self, name))
            if not tol >= 0:
                raise ValueError(f"steady.{name} must be >= 0")
            object.__setattr__(self, name, tol)


@dataclass(eq=False, repr=False)
class ScenarioConfig:
    """A run; check_scenario checks its events against the run's dt."""
    duration: float                  # minutes
    schedule: tuple                  # ((start time, r vector), ...)
    mode: ControllerMode
    grnn_capacity: int = 50
    grnn_sigma: object = "auto"      # float or "auto"
    events: tuple = ()               # ((time, {param: value}), ...)
    harvest: bool = False
    steady: SteadyTest = SteadyTest()

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = ControllerMode(self.mode)
        sched = []
        for t, r in self.schedule:
            # a read-only copy, so the schedule stays as it was checked, and
            # checked here, so that no run stops part-way on a bad setpoint
            r = np.asarray(r, dtype=float).reshape(-1).copy()
            if not np.isfinite(r).all():
                raise ValueError(f"schedule setpoint {r.tolist()} at t = "
                                 f"{float(t):g} is not finite")
            r.flags.writeable = False
            sched.append((float(t), r))
        self.schedule = tuple(sched)
        if len({len(r) for _, r in sched}) > 1:
            raise ValueError("schedule setpoints must have one length")
        times = [t for t, _ in self.schedule]
        if not times or times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        # not b > a, so that a NaN time fails too
        if any(not b > a for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must be strictly increasing")
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        if self.duration < times[-1]:
            raise ValueError("duration does not cover the schedule")
        if self.grnn_capacity < 1:
            raise ValueError("grnn.capacity must be >= 1")


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


@dataclass(eq=False, repr=False)
class HarvestSample:
    r: np.ndarray
    d_ss: np.ndarray
    residual: float
    time: float


# the fields of a log row in CSV order, as StepRecord declares them, and
# their types: a vector takes one column per entry, a number or flag one
# column (the flags are small integers, which floats hold exactly)
_TYPES = {f.name: f.type for f in fields(StepRecord)}
FIELDS = tuple(_TYPES)


class Records(collections.abc.Sequence):
    """The log of a run as one float block, one row per interval: `values`
    holds the FIELDS side by side, widths[name] columns each. Rows [0, n)
    are written; the block may hold more. Indexing gives StepRecord row
    views, whose arrays are views of `values`."""

    def __init__(self, widths, capacity):
        self.widths = dict(widths)
        self.slices = {}
        start = 0
        for name, width in self.widths.items():
            self.slices[name] = slice(start, start + width)
            start += width
        self.values = np.zeros((capacity, start))
        self.n = 0

    def reserve(self, capacity):
        """Room for capacity rows; the written rows are kept. A block
        that cannot be allocated raises MemoryError."""
        if capacity <= len(self.values):
            return
        try:
            values = np.zeros((capacity, self.values.shape[1]))
        except ValueError as exc:
            # numpy's refusal of a size beyond its index range
            raise MemoryError(f"no room for {capacity} log rows: {exc}")
        values[:self.n] = self.values[:self.n]
        self.values = values

    def column(self, name):
        """The written rows of one field: an (n, width) view of a vector
        field, an (n,) view of a number or flag."""
        sl = self.slices[name]
        return self.values[:self.n,
                           sl if _TYPES[name] is np.ndarray else sl.start]

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.n))]
        if not -self.n <= i < self.n:
            raise IndexError("record index out of range")
        i %= self.n
        row = self.values[i]
        return StepRecord(**{
            name: row[sl] if _TYPES[name] is np.ndarray
            else _TYPES[name](row[sl.start])
            for name, sl in self.slices.items()})


class LinearPlant:
    """The controller's own model, stepped at its dt, driven by a constant
    modeled disturbance d_star of n_d finite entries, checked as it is
    set; lets exactness claims be tested without plant-model mismatch."""

    def __init__(self, model, dist, d_star):
        self.model, self.dt = model, model.dt
        self.C_d, self.B_d = dist.C_d, dist.B_d
        self.apply_event({"d_star": d_star})
        self.x = np.zeros(model.n_x)

    def measure(self):
        return self.model.C @ self.x + self.C_d @ self.d_star

    def step(self, u_dev):
        self.x = (self.model.A @ self.x + self.model.B @ np.asarray(u_dev, dtype=float)
                  + self.B_d @ self.d_star)

    def apply_event(self, event):
        if "d_star" not in event or len(event) != 1:
            raise plant_mod.UnknownEvent(
                f"linear plant only supports d_star overrides, got {event}")
        # a copy, so that the caller's array cannot undo the check
        d_star = np.array(event["d_star"], dtype=float)
        n_d = self.B_d.shape[1]
        if d_star.shape != (n_d,) or not np.isfinite(d_star).all():
            raise ValueError(f"d_star must be {n_d} finite entries, got "
                             f"{d_star.tolist()}")
        self.d_star = d_star


def harvest_sample(estimator, time, r, y_p, u, d_total):
    """Training sample (r, steady combined disturbance) from the values of
    a steady interval, cross-checked against the algebraic steady-state
    inversion; the sample keeps copies of r and d_total."""
    io = estimator.steady_state_from_io(y_p, u)
    residual = float(np.abs(d_total - io.d_hat).max())
    if residual > 1e-4:
        raise CrossCheckFailed(f"steady-state cross-check residual {residual:.3e}")
    return HarvestSample(r.copy(), d_total.copy(), residual, time)


class ControlLoop:
    """State and log of one running scenario: set_setpoint gives it the
    setpoint to track, 0 until then, and arms its map lookup and its one
    sample; control_step advances the loop one interval. A run's result
    is read here: records, harvested, rejected_harvests, excursions and
    table.hits/misses, and events_applied and aborted, which run_scenario
    and sweep_harvest write."""

    def __init__(self, model, dist, gains, ocp_cfg, plant, mode,
                 grnn=None, harvest=False, steady=SteadyTest(), pred=None):
        """pred is ocp.build_prediction(model, dist, ocp_cfg), built here
        when None; loops of one command share it read-only. A plant that
        steps other than model.dt is a ValueError."""
        if plant.dt != model.dt:
            raise ValueError(f"the plant steps {plant.dt!r}, the model's dt "
                             f"is {model.dt!r}")
        self.model = model
        self.estimator = DisturbanceEstimator(model, dist, gains)
        self.pred = (ocp_mod.build_prediction(model, dist, ocp_cfg)
                     if pred is None else pred)
        self.excursions = BoundExcursions()
        self.table = ocp_mod.ActiveSetTable(self.pred)
        self.plant = plant
        # the learned map is looked up and grown only in learned mode
        self.grnn = grnn if mode is ControllerMode.LEARNED else None
        self.harvest = harvest
        self.k = 0
        # the interval's input v = [w_{k-1}; u_{k-1}; y_{k-1}; d_l_{k-1};
        # d_l_k; r_k], written in place: its last two parts here, the
        # first four by record at the end of the interval before; and the
        # estimate w = [x_hat; d_hat] and theta = [x_hat; d_l_k + d_hat;
        # r_k] it gives
        n_w = model.n_x + dist.n_d
        d_l_at = n_w + model.n_u + model.n_y + dist.n_d
        self._d_l_part = slice(d_l_at, d_l_at + dist.n_d)
        self._r_part = slice(d_l_at + dist.n_d, None)
        self._v = np.zeros(d_l_at + dist.n_d + model.n_z)
        self._w = np.empty(n_w)
        self._theta = np.empty(n_w + model.n_z)
        law = self.pred.law
        u_row = law.n_t + law.S.shape[0]
        self._u_rows = slice(u_row, u_row + model.n_u)   # u* in z
        self.steady = steady
        self._count = 0              # consecutive quiet intervals
        self.records = Records(
            {"time": 1, "r": model.n_z, "y_p": model.n_y, "z_p": model.n_z,
             "u": model.n_u, "x_hat": model.n_x, "d_learned": dist.n_d,
             "d_supp": dist.n_d, "d_total": dist.n_d, "x_bar": model.n_x,
             "u_bar": model.n_u, "qp_objective": 1, "active_set_size": 1,
             "steady": 1, "harvested": 1}, 64)
        self._y_p_cols = self.records.slices["y_p"]
        self.harvested = []
        self.rejected_harvests = 0
        self.events_applied = []     # (time, event) as the run fired them
        self.aborted = None          # {"time", "reason"} of a stopped run
        self.set_setpoint(np.zeros(model.n_z))

    def set_setpoint(self, r):
        """Track r (n_z finite entries, copied) from the next interval on:
        arm a map lookup at r and, when the loop harvests, one sample."""
        r = np.asarray(r, dtype=float).reshape(-1)
        if len(r) != self.model.n_z:
            # v takes r by slice assignment, which would broadcast one entry
            raise ValueError(f"setpoint has {len(r)} entries, the model "
                             f"controls {self.model.n_z}")
        if not np.isfinite(r).all():
            raise ValueError(f"setpoint {r.tolist()} is not finite")
        self._v[self._r_part] = r
        # what the next intervals owe r
        self._lookup = self.grnn is not None
        self._harvest_due = self.harvest

    def control_step(self):
        """Advance one interval and write its row k of self.records;
        returns (u, whether the interval harvested a sample). The first
        interval after set_setpoint, or after a harvest grew the map,
        writes v's d_l part from the map (zero without one), its
        grnn.lookup at the setpoint; the first steady one takes the armed
        sample, unless the cross-check fails."""
        if self._lookup:
            self._v[self._d_l_part] = grnn_mod.lookup(self.grnn,
                                                      self._v[self._r_part])
            self._lookup = False
        k = self.k
        # the plant's own buffer for a NonlinearPlant, which its step
        # overwrites: read from row k after the step
        y_p = self.plant.measure()
        v, w, theta = self._v, self._w, self._theta
        n_x = self.model.n_x
        # the estimate, theta, z = P theta (target, slacks, u*, Q theta)
        # and the free-path tests; z is new every interval, since u and a
        # counted target are views of it
        law = self.pred.law
        z = np.empty(len(law.P))
        active = kernels.active or kernels.load()
        flag, objective, excursion = active.interval(
            self.estimator.M_step, law.P, self.pred.b_box, self.pred.lo,
            self.pred.hi, v, w, theta, z, n_x)
        if not flag:
            raise ValueError("non-finite estimate")
        if flag == 1:
            u, n_active = z[self._u_rows], 0
        else:
            # a violated row: the table's entries or its own QP; u_seq is
            # a new array
            sol = self.table.solve(theta, z)
            u = sol.u_seq[:self.model.n_u]
            objective, n_active = sol.objective, len(sol.active_set)
        # row k of the log, the steady count and v's parts for the next
        # interval's update
        log = self.records
        if k == len(log.values):
            log.reserve(2 * k)
        time = k * self.model.dt
        s = self.steady
        self._count = active.record(
            log.values, self.model.H, y_p, u, w, theta, z, v, k, time,
            objective, n_active, self._count, s.M, s.tol_y, s.tol_u, n_x)
        # the row counts, its target excursion is counted and a sample is
        # taken only once the plant step has completed, so a failing step
        # leaves none of them
        self.plant.step(u)
        log.n = k + 1
        if excursion:
            self.excursions.add(TargetPair(z[:n_x], z[n_x:law.n_t]))
        harvested = False
        if self._harvest_due and self._count >= s.M:
            try:
                sample = harvest_sample(self.estimator, time, v[self._r_part],
                                        log.values[k, self._y_p_cols], u,
                                        theta[n_x:len(w)])
                self.harvested.append(sample)
                self._harvest_due = False
                log.values[k, -1] = harvested = True
                if self.grnn is not None:
                    self.grnn = grnn_mod.add_sample(self.grnn, sample.r, sample.d_ss)
                    self._lookup = True
            except CrossCheckFailed:
                self.rejected_harvests += 1
        self.k = k + 1
        return u, harvested


def check_scenario(scenario, plant):
    """The pre-flight of a run of scenario on plant, at interval dt =
    plant.dt: returns its interval count n = round(duration / dt) once n is
    finite, every event falls in [0, (n - 1) dt], the first to the last
    interval's start, and a copy of plant takes the events in firing order;
    else raises ValueError, or the plant's UnknownEvent, naming the field."""
    dt = plant.dt
    if not math.isfinite(scenario.duration / dt):
        raise ValueError(
            f"dt: {dt!r} is too small: scenario.duration / dt is not "
            f"finite for duration {scenario.duration!r}")
    n_steps = round(scenario.duration / dt)
    # run_scenario fires an event at the first interval start k dt at or
    # past its time less 1e-9, so one past the last start never fires and
    # one before 0 would fire at 0; a NaN time falls in no range
    last_start = (n_steps - 1) * dt
    events = scenario.events
    for i, (time, _) in enumerate(events):
        if not 0.0 <= time <= last_start + 1e-9:
            raise ValueError(
                f"scenario.events[{i}].time: {time:.17g} is outside the run; "
                f"an event must fall in [0, {last_start:.17g}], the first "
                "to the last interval's start")
    trial = copy.copy(plant)
    for i in sorted(range(len(events)), key=lambda i: events[i][0]):
        try:
            trial.apply_event(events[i][1])
        except (plant_mod.UnknownEvent, ValueError) as exc:
            raise type(exc)(f"scenario.events[{i}]: {exc}") from None
    return n_steps


def check_map(scenario, grnn):
    """The pre-flight of a learned run of scenario with map grnn: raises
    ValueError naming the first schedule entry at which the map's
    grnn.lookup, which the map keeps for its loop, is not finite."""
    # a setpoint far outside the window overflows its distances; the
    # prediction is refused below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (_, r) in enumerate(scenario.schedule):
            d_l = grnn_mod.lookup(grnn, r)
            if not np.isfinite(d_l).all():
                raise ValueError(
                    f"scenario.schedule[{i}]: the learned map's prediction "
                    f"at this setpoint, {d_l.tolist()}, is not finite")


def run_scenario(scenario, model, dist, gains, ocp_cfg, plant, grnn=None,
                 pred=None):
    """Deterministic replay of one scenario; returns its ControlLoop.
    Events fire between intervals. check_scenario and check_map, which
    the CLI runs too, give the interval count and check the learned map,
    whose predictions then stay with it; their errors raise before the
    first interval with the plant untouched. Any of ABORTS stops the run
    and sets loop.aborted, its rows kept. pred as for ControlLoop."""
    n_steps = check_scenario(scenario, plant)
    loop = ControlLoop(model, dist, gains, ocp_cfg, plant, scenario.mode,
                       grnn=grnn, harvest=scenario.harvest,
                       steady=scenario.steady, pred=pred)
    if loop.grnn is not None:
        check_map(scenario, loop.grnn)
    loop.records.reserve(n_steps)
    pending = sorted(scenario.events, key=lambda e: e[0])
    entries = collections.deque(scenario.schedule)
    for k in range(n_steps):
        t = k * model.dt
        while pending and t >= pending[0][0] - 1e-9:
            _, event = pending.pop(0)
            plant.apply_event(event)
            loop.events_applied.append((t, dict(event)))
        # a schedule entry starts as an event fires; of several starting
        # in one interval, the last holds
        r = None
        while entries and t >= entries[0][0] - 1e-9:
            _, r = entries.popleft()
        if r is not None:
            loop.set_setpoint(r)
        try:
            loop.control_step()
        except ABORTS as exc:
            loop.aborted = {"time": t, "reason": str(exc)}
            break
    return loop


def sweep_harvest(model, dist, gains, ocp_cfg, plant, setpoints, cap=200,
                  steady=SteadyTest(), pred=None):
    """Visit each setpoint, a repeated one included, until steady and
    harvest one sample there; plant and estimator state carry over
    between setpoints. Returns (samples, loop). A setpoint that
    set_setpoint refuses raises before the first interval. A setpoint
    not steady within cap intervals, or any of ABORTS, stops the sweep
    as it stops a run: loop.aborted is set and the samples so far are
    kept. pred as for ControlLoop."""
    setpoints = list(setpoints)
    loop = ControlLoop(model, dist, gains, ocp_cfg, plant,
                       ControllerMode.NOMINAL, harvest=True,
                       steady=steady, pred=pred)
    # each call replaces the last, and the sweep's own calls follow
    for r in setpoints:
        loop.set_setpoint(r)
    reason = None
    try:
        for r in setpoints:
            loop.set_setpoint(r)
            if not any(loop.control_step()[1] for _ in range(cap)):
                reason = (f"no steady state within {cap} steps at "
                          f"setpoint {np.asarray(r)}")
                break
    except ABORTS as exc:
        reason = str(exc)
    if reason is not None:
        # a failing control_step does not advance k: k is the first
        # interval without a row
        loop.aborted = {"time": loop.k * model.dt, "reason": reason}
    return loop.harvested, loop


# ---- metrics ----

# a segment has settled once no |z - r| entry exceeds this for good
SETTLE_TOL = 1e-3


@dataclass(eq=False, repr=False)
class SegmentSummary:
    start: float
    end: float
    r: np.ndarray
    terminal_e: np.ndarray     # componentwise |z - r| at the last record
    ise: float
    peak: float
    settling: Optional[float]  # time from segment start; None if never


def segment_bounds(records):
    """(start, end) row ranges of the runs of one setpoint."""
    if not len(records):
        return []
    R = records.column("r")
    cuts = (np.flatnonzero((R[1:] != R[:-1]).any(axis=1)) + 1).tolist()
    edges = [0] + cuts + [len(R)]
    return list(zip(edges, edges[1:]))


def metrics(log):
    """Per-segment and total tracking metrics of log, a ControlLoop, at
    its model's dt; a segment has settled from the row after the last one
    above SETTLE_TOL."""
    records, dt = log.records, log.model.dt
    if not len(records):
        raise ValueError("empty log")
    time = records.column("time")
    R, Z = records.column("r"), records.column("z_p")
    segments = []
    total_ise = 0.0
    for a, b in segment_bounds(records):
        # row by row in C order, so the sum adds in the order of the rows
        errs = np.subtract(Z[a:b], R[a:b], order="C")
        ise = float((errs ** 2).sum() * dt)
        abs_errs = np.abs(errs)
        peak = float(abs_errs.max())
        above = np.flatnonzero(abs_errs.max(axis=1) > SETTLE_TOL)
        i = int(above[-1]) + 1 if above.size else 0
        settling = float(time[a + i] - time[a]) if i < b - a else None
        segments.append(SegmentSummary(
            start=float(time[a]), end=float(time[b - 1]) + dt, r=R[a].copy(),
            terminal_e=abs_errs[-1], ise=ise, peak=peak, settling=settling))
        total_ise += ise
    return {"segments": segments, "total_ise": total_ise}


@dataclass(eq=False, repr=False)
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

def write_log_csv(records, path):
    """One record per row, full double precision; stable column order:
    time, r, y_p, z_p, u, x_hat, d_learned, d_supp, d_total, x_bar, u_bar,
    qp_objective, active_set_size, steady, harvested. Raises ValueError,
    before the file is opened, when d_total is not d_learned + d_supp."""
    if not np.array_equal(records.column("d_total"),
                          records.column("d_learned")
                          + records.column("d_supp")):
        raise ValueError("d_total must equal d_learned + d_supp exactly")
    header = []
    for name, width in records.widths.items():
        header += [name] if width == 1 else [f"{name}_{i}" for i in range(width)]
    body = (kernels.active or kernels.load()).log_text(records.values,
                                                        len(records))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def read_log_csv(path):
    """The Records write_log_csv wrote; raises ValueError naming the file and
    the first field of FIELDS that has no column, or the file and the line
    of a row that is not one number per column."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            try:
                rows.append([float(t) for t in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}")
    groups = {}
    for idx, name in enumerate(header):
        base = name.rsplit("_", 1)[0] if name.rsplit("_", 1)[-1].isdigit() else name
        groups.setdefault(base, []).append(idx)
    for name in FIELDS:
        if name not in groups:
            raise ValueError(f"{path}: no column {name!r}")
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    records = Records({name: len(groups[name]) for name in FIELDS}, len(rows))
    records.values[:] = table[:, [i for name in FIELDS for i in groups[name]]]
    records.n = len(rows)
    return records


def write_summary(log, path):
    """Writes the summary of log, a ControlLoop; returns metrics(log), or
    None for a log without rows."""
    m = None
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
            m = metrics(log)
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
        exc = log.excursions
        if exc.count:
            fh.write("target_bound_excursions %d first %s last %s\n"
                     % (exc.count, exc.first.text(), exc.last.text()))
    return m
