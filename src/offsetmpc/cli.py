"""Command-line front end: config parsing, condition checks, scenario runs,
steady-state sweeps, and regression fitting.

Configs are YAML with all quantities in absolute physical units; conversion
to deviation coordinates around the operating point happens here, so the
numeric core never sees absolute values. Exit codes: 0 success, 2 config or
input-file errors, 3 condition-check failure, 4 runtime failure.

grnn-fit reads a sample file and nothing else, so this module imports at
its top only what grnn-fit runs (numpy and grnn). yaml and the
controller's modules are imported in the functions that use them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

from . import grnn as grnn_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_RUNTIME = 4

# consecutive inadmissible draws after which sample_setpoints gives up
MAX_REJECTED_DRAWS = 10_000
C_RANGE = (0.84, 0.91)           # the c (kmol/m3) and T (K) it draws from
T_RANGE = (321.0, 329.0)


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _refused(where, kinds=ValueError):
    """An exception of kinds raised in the block, raised again as the
    ConfigError "<where>: <message>", or its bare message when where is
    None."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(f"{where}: {exc}" if where is not None
                          else str(exc))


@dataclasses.dataclass(eq=False, repr=False)
class RunConfig:
    model: model_mod.LinearModel
    dist: model_mod.DisturbanceModel
    L_x: np.ndarray
    L_d: np.ndarray
    ocp_cfg: ocp_mod.OcpConfig
    params: plant_mod.CstrParams
    op: plant_mod.OperatingPoint
    scenario: cl.ScenarioConfig
    grnn_train: str          # absolute, or None
    sweep_cap: int
    out_dir: str
    stem: str

    def make_gains(self):
        from . import model as model_mod
        return model_mod.EstimatorGains(self.L_x, self.L_d, self.model,
                                        self.dist)


def _join(path, key):
    return f"{path}.{key}" if path else key


def _get(section, key, path=None, default=KeyError):
    if key not in section:
        if default is KeyError:
            raise ConfigError(f"missing required field {_join(path, key)}")
        return default
    return section[key]


def _kind(value, path, kind):
    """value, if it has the expected YAML kind: dict, list or str."""
    if not isinstance(value, kind):
        what = {dict: "a mapping", list: "a list", str: "a string"}[kind]
        raise ConfigError(f"{path}: not {what}")
    return value


def _keys(section, known, path=None):
    """section, if every key is one that the loader reads; a misspelled key
    is an error rather than a silent default."""
    for key in section:
        if key not in known:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    return section


def _section(parent, key, known, path=None, default=KeyError):
    """The mapping parent[key], required unless a default is given, whose
    keys are all in known; path is parent's own path, None at the top
    level."""
    where = _join(path, key)
    return _keys(_kind(_get(parent, key, path, default), where, dict), known,
                 where)


def _matrix(value, shape, path):
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: not a numeric matrix")
    if m.shape != shape:
        raise ConfigError(f"{path}: expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{path}: entries must be finite")
    return m


def _vector(value, n, path):
    return _matrix(value, (n,), path)


def _number(value, path):
    """A finite float; a YAML boolean is not a number, although float()
    takes it as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: not a number: {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{path}: not a finite number: {value!r}")
    return number


def _integer(value, path):
    """A finite number with no fractional part, as an int: 20 and 20.0 are
    20, 2.5 is an error."""
    number = _number(value, path)
    if not number.is_integer():
        raise ConfigError(f"{path}: not an integer: {value!r}")
    return int(number)


def _boolean(value, path):
    """A YAML boolean: true or false, never a string or a number."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: not a boolean (true or false): {value!r}")
    return value


def _sigma(value, path):
    """'auto', or a kernel width that is finite and > 0."""
    if value == "auto":
        return value
    sigma = _number(value, path)
    if not sigma > 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return sigma


def _sweep_cap(value):
    cap = _integer(value, "sweep.cap")
    if cap < 1:
        raise ConfigError(f"sweep.cap: must be >= 1, got {value!r}")
    return cap


def _fields(cls, section, path):
    """The entries of section, once every key is a field of the dataclass
    cls, each parsed as its field's declared type: an int field by
    _integer, any other by _number, since YAML reads unsigned exponents
    like 7.2e10 as strings. cls's module must not postpone annotations,
    so that a field's type is the class itself, not its name."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    return {key: (_integer if types[key] is int else _number)(
                value, f"{path}.{key}")
            for key, value in _keys(section, types, path).items()}


def _check_setpoint(c, T, params, where):
    """Refuse, naming where, a setpoint (c, T) whose absolute state (c, T,
    steady_height(c, T)) the plant cannot take, the rule the operating
    point is held to; steady_height divides by T, and may overflow, in
    which case its h is refused."""
    from . import plant as plant_mod
    if not T > 0:
        raise ConfigError(f"{where}: T must be > 0, got {float(T)!r}")
    with np.errstate(all="ignore"):
        h = plant_mod.steady_height(c, T, params)
    with _refused(where, plant_mod.NonPhysicalState):
        plant_mod.PlantState(c, T, h)


def load_config(path):
    import yaml

    from . import closed_loop as cl
    from . import model as model_mod
    from . import ocp as ocp_mod
    from . import plant as plant_mod

    # libyaml's parser when PyYAML was built with it, about 6x faster than
    # the pure-Python one; both build the same objects. Bytes, which
    # PyYAML decodes itself: a config that is not UTF-8 is a YAMLError
    # naming the file and the byte position
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with (open(path, "rb") as fh,
          _refused("config is not valid YAML", yaml.YAMLError)):
        raw = yaml.load(fh, Loader=loader)
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    _keys(raw, ("operating_point", "dt", "model", "disturbance", "estimator",
                "ocp", "plant", "scenario", "sweep", "output"))

    op_sec = _section(raw, "operating_point", ("c", "T", "h", "Tc", "F"))
    op = plant_mod.OperatingPoint(
        _vector([_get(op_sec, k, "operating_point") for k in ("c", "T", "h")],
                3, "operating_point"),
        _vector([_get(op_sec, k, "operating_point") for k in ("Tc", "F")],
                2, "operating_point"))
    # the plant starts at x_ss, so it must be a state the plant can take
    with _refused("operating_point", plant_mod.NonPhysicalState):
        plant_mod.PlantState(*op.x_ss)

    dt = _number(raw.get("dt", 1.0), "dt")
    msec = _section(raw, "model", ("A", "B", "C", "H"))
    A = _matrix(_get(msec, "A", "model"), (3, 3), "model.A")
    B = _matrix(_get(msec, "B", "model"), (3, 2), "model.B")
    C = _matrix(_get(msec, "C", "model"), (3, 3), "model.C")
    H = _matrix(_get(msec, "H", "model"), (2, 3), "model.H")
    dsec = _section(raw, "disturbance", ("Bd", "Cd"))
    Bd = _matrix(_get(dsec, "Bd", "disturbance"), (3, 2), "disturbance.Bd")
    Cd = _matrix(_get(dsec, "Cd", "disturbance"), (3, 2), "disturbance.Cd")
    esec = _section(raw, "estimator", ("Lx", "Ld"))
    L_x = _matrix(_get(esec, "Lx", "estimator"), (3, 3), "estimator.Lx")
    L_d = _matrix(_get(esec, "Ld", "estimator"), (2, 3), "estimator.Ld")
    with _refused("model", (model_mod.DimensionMismatch, ValueError)):
        model = model_mod.LinearModel(A, B, C, H, dt)
        dist = model_mod.DisturbanceModel(Bd, Cd)

    osec = _section(raw, "ocp", ("N", "q_x", "q_u", "q_xN", "u_min", "u_max",
                                 "x_min", "x_max"))
    u_min = _vector(_get(osec, "u_min", "ocp"), 2, "ocp.u_min")
    u_max = _vector(_get(osec, "u_max", "ocp"), 2, "ocp.u_max")
    x_bounds = None
    if "x_min" in osec or "x_max" in osec:
        x_min = _vector(_get(osec, "x_min", "ocp"), 3, "ocp.x_min")
        x_max = _vector(_get(osec, "x_max", "ocp"), 3, "ocp.x_max")
        x_bounds = (x_min - op.x_ss, x_max - op.x_ss)
    with _refused("ocp"):
        ocp_cfg = ocp_mod.OcpConfig(
            N=_integer(_get(osec, "N", "ocp"), "ocp.N"),
            q_x=_vector(_get(osec, "q_x", "ocp"), 3, "ocp.q_x"),
            q_u=_vector(_get(osec, "q_u", "ocp"), 2, "ocp.q_u"),
            q_xN=_vector(_get(osec, "q_xN", "ocp"), 3, "ocp.q_xN"),
            u_bounds=(u_min - op.u_ss, u_max - op.u_ss),
            x_bounds=x_bounds)

    psec = _kind(_get(raw, "plant"), "plant", dict)
    with _refused("plant"):
        params = plant_mod.CstrParams(
            **_fields(plant_mod.CstrParams, psec, "plant"))

    ssec = _section(raw, "scenario", ("duration", "mode", "schedule",
                                      "events", "harvest", "steady", "grnn"))
    schedule = []
    for i, row in enumerate(_kind(_get(ssec, "schedule", "scenario"),
                                  "scenario.schedule", list)):
        where = f"scenario.schedule[{i}]"
        row = _vector(row, 3, where)
        c, T = row[1], row[2]
        _check_setpoint(c, T, params, where)
        schedule.append((row[0], (c - op.x_ss[0], T - op.x_ss[1])))
    events = []
    for i, ev in enumerate(_kind(ssec.get("events", []), "scenario.events",
                                 list)):
        if (not isinstance(ev, dict) or "time" not in ev
                or not isinstance(ev.get("set"), dict)):
            raise ConfigError(f"scenario.events[{i}]: need {{time, set}}")
        where = f"scenario.events[{i}]"
        _keys(ev, ("time", "set"), where)
        events.append((_number(ev["time"], f"{where}.time"),
                       _fields(plant_mod.CstrParams, ev["set"],
                               f"{where}.set")))
    # the keys the config sets: SteadyTest holds the defaults
    steady = _fields(cl.SteadyTest, _kind(ssec.get("steady", {}),
                                          "scenario.steady", dict),
                     "scenario.steady")
    gsec = _section(ssec, "grnn", ("capacity", "sigma", "train"), "scenario",
                    {})
    with _refused("scenario"):
        scenario = cl.ScenarioConfig(
            duration=_number(_get(ssec, "duration", "scenario"),
                             "scenario.duration"),
            schedule=tuple(schedule),
            mode=_get(ssec, "mode", "scenario", "nominal"),
            grnn_capacity=_integer(gsec.get("capacity", 50),
                                   "scenario.grnn.capacity"),
            grnn_sigma=_sigma(gsec.get("sigma", "auto"), "scenario.grnn.sigma"),
            events=tuple(events),
            harvest=_boolean(ssec.get("harvest", False), "scenario.harvest"),
            steady=cl.SteadyTest(**steady))

    # relative training and output paths are read from the config's
    # directory, whatever the working directory
    config_dir = os.path.dirname(os.path.abspath(path))
    train = gsec.get("train")
    if train:
        train = os.path.join(config_dir,
                             _kind(train, "scenario.grnn.train", str))
    sweep_sec = _section(raw, "sweep", ("cap",), default={})
    out_sec = _section(raw, "output", ("dir",), default={})
    rc = RunConfig(
        model=model, dist=dist, L_x=L_x, L_d=L_d, ocp_cfg=ocp_cfg,
        params=params, op=op, scenario=scenario,
        grnn_train=train,
        sweep_cap=_sweep_cap(sweep_sec.get("cap", 200)),
        out_dir=os.path.join(config_dir, _kind(out_sec.get("dir", "out"),
                                               "output.dir", str)),
        stem=os.path.splitext(os.path.basename(path))[0])
    # a run's own pre-flight, on the plant a run starts from
    with _refused(None):
        cl.check_scenario(rc.scenario, _fresh_plant(rc))
    return rc


def run_checks(rc, pred=None):
    """The four admissibility conditions; returns (all_pass, report lines,
    estimator gains), the gains None when the estimator is unstable. pred
    is ocp.build_prediction's data for rc, built here when None."""
    from . import model as model_mod
    from . import ocp as ocp_mod
    from . import target as target_mod

    lines = []
    ok = True

    obs = model_mod.check_augmented_observability(rc.model, rc.dist)
    need = rc.model.n_x + rc.dist.n_d
    ok &= obs["holds"]
    lines.append(("PASS" if obs["holds"] else "FAIL",
                  f"augmented observability: rank {obs['rank']} (required {need})"))

    try:
        gains = rc.make_gains()
        rho = gains.spectral_radius
    except model_mod.UnstableEstimator as exc:
        gains, rho = None, exc.spectral_radius
    stable = gains is not None
    ok &= stable
    lines.append(("PASS" if stable else "FAIL",
                  f"estimator stability: spectral radius {rho:.6f} (required < 1)"))
    if not stable:
        for name in ("steady-map nonsingularity", "offset-free null space"):
            lines.append(("FAIL", f"{name}: skipped (estimator unstable)"))
        return ok, lines, gains

    lemma = model_mod.check_lemma1_nonsingularity(rc.model, rc.dist, gains)
    ok &= lemma
    lines.append(("PASS" if lemma else "FAIL", "steady-map nonsingularity"))

    try:
        if pred is None:
            pred = ocp_mod.build_prediction(rc.model, rc.dist, rc.ocp_cfg)
        # unconstrained first move against x_hat: u0 - u_bar = K (x_hat - x_bar)
        k_un = pred.law.K[:rc.model.n_u, :rc.model.n_x]
        off = model_mod.check_offset_free_condition(rc.model, gains, k_un)
        ok &= off["holds"]
        lines.append(("PASS" if off["holds"] else "FAIL",
                      f"offset-free null space: residual {off['residual']:.3e} "
                      f"(tol 1e-8)"))
    except (model_mod.SingularClosedLoop, target_mod.SingularTarget) as exc:
        ok = False
        lines.append(("FAIL", f"offset-free null space: {exc}"))
    return ok, lines, gains


def _print_checks(lines):
    for status, text in lines:
        print(f"[{status}] {text}")


def _checked(path):
    """The config at path, its prediction data and the estimator gains;
    the gains are None, after the report is printed, unless every check
    passes."""
    from . import ocp as ocp_mod

    rc = load_config(path)
    pred = ocp_mod.build_prediction(rc.model, rc.dist, rc.ocp_cfg)
    ok, lines, gains = run_checks(rc, pred)
    if not ok:
        _print_checks(lines)
        print("condition checks failed", file=sys.stderr)
        gains = None
    return rc, pred, gains


def _out_dir(flag, default):
    out = flag or default
    os.makedirs(out, exist_ok=True)
    return out


def _load_setpoints(path, op, params):
    """The setpoints of a file of absolute (c, T) rows as deviations from
    op, each held to the rule of a schedule setpoint under params."""
    # the sample files' row rules, whose comments here are free text
    with grnn_mod.open_text(path) as fh:
        rows = grnn_mod.read_rows(path, enumerate(fh, start=1))
    if not rows:
        raise ConfigError(f"{path}: no setpoints")
    if len(rows[0][1]) != 2:
        raise ConfigError(f"{path}: expected 2 columns (c, T), "
                          f"got {len(rows[0][1])}")
    for lineno, (c, T) in rows:
        _check_setpoint(c, T, params, f"{path}: line {lineno}")
    return [(c - op.x_ss[0], T - op.x_ss[1]) for _, (c, T) in rows]


def _sample_window(capacity, n_out, samples, path):
    """A model whose window holds the last capacity samples read from path;
    a sample the window cannot take is an input error."""
    with _refused(path):
        return grnn_mod.from_samples(capacity, n_out, 0.5, samples)


def _build_grnn(rc):
    """The learned map of rc: its training samples in a window of
    scenario.grnn.capacity, at scenario.grnn.sigma."""
    samples = []
    if rc.grnn_train:
        samples = grnn_mod.load_samples(rc.grnn_train)
    if samples and len(samples[0][0]) != rc.model.n_z:
        raise ConfigError(f"{rc.grnn_train}: samples have "
                          f"{len(samples[0][0])} inputs, the setpoint has "
                          f"{rc.model.n_z} entries")
    g = _sample_window(rc.scenario.grnn_capacity, rc.dist.n_d, samples,
                       rc.grnn_train)
    sigma = rc.scenario.grnn_sigma
    if sigma == "auto":
        sigma = grnn_mod.default_sigma(g)
    return grnn_mod.with_sigma(g, sigma)


def _fresh_plant(rc):
    from . import plant as plant_mod
    return plant_mod.NonlinearPlant(plant_mod.PlantState(*rc.op.x_ss),
                                    rc.params, rc.op, dt=rc.model.dt)


def cmd_check(args):
    rc = load_config(args.config)
    ok, lines, _ = run_checks(rc)
    _print_checks(lines)
    return EXIT_OK if ok else EXIT_CONDITION


def cmd_run(args):
    from . import closed_loop as cl

    rc, pred, gains = _checked(args.config)
    if gains is None:
        return EXIT_CONDITION
    modes = ([cl.ControllerMode.NOMINAL, cl.ControllerMode.LEARNED]
             if args.mode == "both"
             else [cl.ControllerMode(args.mode) if args.mode
                   else rc.scenario.mode])
    # built and checked before the first mode runs, so a bad training
    # file, or a setpoint the map cannot predict, costs no interval and
    # writes no file; the map keeps the predictions the check made, which
    # run_scenario's own check_map then reads
    grnn = _build_grnn(rc) if cl.ControllerMode.LEARNED in modes else None
    if grnn is not None:
        with _refused(None):
            cl.check_map(rc.scenario, grnn)
    out = _out_dir(args.out, rc.out_dir)
    code = EXIT_OK
    for mode in modes:
        scenario = dataclasses.replace(rc.scenario, mode=mode)
        log = cl.run_scenario(scenario, rc.model, rc.dist, gains, rc.ocp_cfg,
                              _fresh_plant(rc), grnn=grnn, pred=pred)
        base = os.path.join(out, f"{rc.stem}_{mode.value}")
        cl.write_log_csv(log.records, base + ".csv")
        m = cl.write_summary(log, base + "_summary.txt")
        if log.aborted:
            print(f"{mode.value}: ABORTED at t={log.aborted['time']}: "
                  f"{log.aborted['reason']}", file=sys.stderr)
            code = EXIT_RUNTIME
            continue
        if not log.records:
            print(f"{mode.value}: 0 steps -> {base}.csv")
            continue
        worst = max(seg.terminal_e.max() for seg in m["segments"])
        print(f"{mode.value}: {len(log.records)} steps, "
              f"{len(m['segments'])} segments, total ISE {m['total_ise']:.6g}, "
              f"worst terminal |e| {worst:.3e}, "
              f"harvested {len(log.harvested)} -> {base}.csv")
    return code


def cmd_sweep(args):
    from . import closed_loop as cl

    rc, pred, gains = _checked(args.config)
    if gains is None:
        return EXIT_CONDITION
    setpoints = _load_setpoints(args.setpoints, rc.op, rc.params)
    # made before the sweep, so an unwritable --out costs no interval
    out = _out_dir(args.out, rc.out_dir)
    samples, log = cl.sweep_harvest(
        rc.model, rc.dist, gains, rc.ocp_cfg, _fresh_plant(rc), setpoints,
        cap=rc.sweep_cap, steady=rc.scenario.steady, pred=pred)
    # the samples harvested before a stop too, as a run keeps its rows
    sp_stem = os.path.splitext(os.path.basename(args.setpoints))[0]
    dest = os.path.join(out, f"{sp_stem}_train.txt")
    grnn_mod.write_samples(dest, [(s.r, s.d_ss) for s in samples])
    exc = log.excursions
    if exc.count:
        print(f"WARNING target outside bounds on {exc.count} of "
              f"{len(log.records)} intervals: first {exc.first.text('%.6g')}, "
              f"last {exc.last.text('%.6g')}", file=sys.stderr)
    if log.aborted:
        print(f"sweep ABORTED at step {len(log.records)}: "
              f"{log.aborted['reason']}; "
              f"harvested {len(samples)} samples -> {dest}", file=sys.stderr)
        return EXIT_RUNTIME
    worst = max((s.residual for s in samples), default=0.0)
    print(f"harvested {len(samples)} samples over {len(log.records)} steps, "
          f"worst cross-check residual {worst:.3e} -> {dest}")
    return EXIT_OK


def cmd_grnn_fit(args):
    sigma = _sigma(args.sigma, "--sigma")
    samples = grnn_mod.load_samples(args.samples)
    if not samples:
        raise ConfigError("no samples in file")
    n_out = samples[0][1].shape[0]
    g = _sample_window(len(samples), n_out, samples, args.samples)
    # made before the fit, so an unwritable --out costs no sweep
    out = _out_dir(args.out, "out")
    curve = []
    # one sample has no leave-one-out curve, and auto fails on it
    if sigma == "auto" or len(samples) >= 2:
        selected = grnn_mod.select_sigma(g, curve=curve)
    g = grnn_mod.with_sigma(g, selected if sigma == "auto" else sigma)

    stem = os.path.splitext(os.path.basename(args.samples))[0]
    model_path = os.path.join(out, f"{stem}_model.txt")
    grnn_mod.write_model(model_path, g)

    loo_path = os.path.join(out, f"{stem}_loo.txt")
    with open(loo_path, "w") as fh:
        fh.write("# sigma loo_mean_squared_error\n")
        grnn_mod.write_rows(fh, curve)
        if not curve:
            fh.write("# single sample: loo undefined\n")

    X = g.X
    curve_path = os.path.join(out, f"{stem}_curve.txt")
    with open(curve_path, "w") as fh:
        fh.write("# prediction sweeps, one block per input dimension\n")
        for j in range(X.shape[1]):
            fh.write(f"# dim {j} sweep, other dims at sample mean\n")
            queries = np.tile(X.mean(axis=0), (101, 1))
            queries[:, j] = np.linspace(X[:, j].min(), X[:, j].max(), 101)
            grnn_mod.write_rows(fh, ((q[j], *grnn_mod.predict(g, q))
                                     for q in queries))
    print(f"fitted sigma {g.sigma:.6g} on {len(samples)} samples -> "
          f"{model_path}")
    return EXIT_OK


def sample_setpoints(n, seed, params):
    """Seeded uniform setpoints over C_RANGE x T_RANGE, rejecting pairs whose
    steady level leaves [0.45, 1.15] m or whose temperature sits in the
    upper band where the level target collapses; visit order groups by
    1-K temperature band, ascending concentration. Raises ConfigError after
    MAX_REJECTED_DRAWS rejections in a row."""
    from . import plant as plant_mod

    rng = np.random.default_rng(seed)
    pts = []
    rejected = 0
    while len(pts) < n:
        c = rng.uniform(*C_RANGE)
        T = rng.uniform(*T_RANGE)
        if 0.45 <= plant_mod.steady_height(c, T, params) <= 1.15 and T <= 328.5:
            pts.append((c, T))
            rejected = 0
        else:
            rejected += 1
            if rejected == MAX_REJECTED_DRAWS:
                raise ConfigError(
                    f"no admissible setpoint in {MAX_REJECTED_DRAWS} draws in a "
                    f"row over c in {C_RANGE}, T in {T_RANGE}")
    pts.sort(key=lambda p: (round((p[1] - T_RANGE[0]) / 1.0), p[0]))
    return pts


def cmd_sample_setpoints(args):
    if args.n < 1:
        raise ConfigError(f"-n: must be >= 1, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    rc = load_config(args.config)
    pts = sample_setpoints(args.n, args.seed, rc.params)
    dest = args.out or f"setpoints_{args.n}_{args.seed}.txt"
    with open(dest, "w") as fh:
        fh.write("# absolute setpoints: c (kmol/m3), T (K)\n")
        grnn_mod.write_rows(fh, pts)
    print(f"wrote {len(pts)} setpoints -> {dest}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="offsetmpc",
        description="offset-free MPC with a learned mismatch map: "
                    "condition checks, closed-loop runs, steady-state "
                    "sweeps, regression fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the four admissibility conditions")
    p.add_argument("config")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="run the configured scenario")
    p.add_argument("config")
    p.add_argument("--mode", choices=["nominal", "learned", "both"],
                   default=None, help="override the configured mode")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="harvest steady-state samples over a "
                                     "setpoint list")
    p.add_argument("config")
    p.add_argument("--setpoints", required=True,
                   help="text file, two columns: c T (absolute units)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grnn-fit", help="fit the regression model to a "
                                        "sample file")
    p.add_argument("samples")
    p.add_argument("--sigma", default="auto",
                   help="kernel width, or 'auto' for leave-one-out selection")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_grnn_fit)

    p = sub.add_parser("sample-setpoints",
                       help="draw admissible random setpoints for sweeps")
    p.add_argument("config")
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file")
    p.set_defaults(func=cmd_sample_setpoints)

    args = parser.parse_args(argv)
    # the one place an error becomes an exit code; an OSError's message
    # names the file that could not be opened, read or written. The
    # controller's modules are imported only once an error has escaped,
    # since grnn-fit runs without them
    try:
        return args.func(args)
    except Exception as exc:
        from . import model as model_mod
        from . import numerics
        from . import ocp as ocp_mod
        from . import plant as plant_mod
        from . import target as target_mod

        for kinds, code, prefix in (
                ((ConfigError, grnn_mod.ParseError, OSError), EXIT_CONFIG,
                 "error"),
                ((model_mod.UnstableEstimator, model_mod.SingularClosedLoop,
                  target_mod.SingularTarget), EXIT_CONDITION,
                 "condition error"),
                ((ocp_mod.Infeasible, ocp_mod.MaxIterations,
                  plant_mod.NonPhysicalState, grnn_mod.InsufficientData,
                  numerics.SingularMatrix, numerics.NoConvergence,
                  MemoryError), EXIT_RUNTIME, "runtime error")):
            if isinstance(exc, kinds):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
