#!/usr/bin/env python3
"""offsetmpc benchmark: one workload, timed on the CPU clock, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each execution of the workload is a fresh worker process that calls
`offsetmpc.cli.main` exactly as the `offsetmpc` command does (see worker.py).
With --trace 0 the run makes a few set-up-only executions and then full
executions until S seconds have passed, and reports the end-to-end metrics
of BENCHMARK.json. With --trace 1 it alternates untraced and traced
executions and reports the per-layer metrics. Every full execution's output
files are checked; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Times of the main loop are CPU
times scaled to a reference speed, measured by a fixed kernel the worker
runs between operations. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import yaml

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF = os.path.join(HERE, "ref")
CONFIGS = os.path.join(ROOT, "configs")

SETUP_PROBES = 5          # set-up-only executions per untraced run
WORKER_TIMEOUT_S = 120
TOL = 1e-9                # |got - ref| <= TOL * max(1, |ref|); reruns differ ~1e-13
RESIDUAL_MAX = 1e-4       # harvest cross-check residual the program accepts
SETTLE_SHARE = 0.5        # segment-end error as a share of the segment peak
SETTLE_FLOOR = 1e-4       # segment-end error that always passes
LEARNED_CYCLES = 6        # 6 x 180 = 1080 intervals
# CPU times of worker.reference() and worker.python_kernel() that define the
# time scale: their times on an uncontended core of the machine the
# benchmark was defined on (README)
REF_NS = 580_000
PY_REF_NS = 175_000


# ---- files ----

def read_rows(path):
    """Numeric rows of a whitespace-separated file, '#' comments skipped."""
    rows = []
    with open(path) as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields:
                rows.append([float(t) for t in fields])
    return rows


def write_rows(path, rows, header):
    with open(path, "w") as fh:
        fh.write(header)
        for row in rows:
            fh.write(" ".join(repr(v) for v in row) + "\n")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(t) for t in line.split(",")] for line in fh if line.strip()]
    return header, rows


def compare(what, got, want):
    """Errors if two row lists differ in shape or beyond TOL."""
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return [f"{what}: shape differs from the reference"]
    worst = max((abs(a - b) / max(1.0, abs(b))
                 for g, w in zip(got, want) for a, b in zip(g, w)), default=0.0)
    if not worst <= TOL:
        return [f"{what}: differs from the reference by {worst:.3e} > {TOL:.0e}"]
    return []


# ---- workloads: each writes its inputs and returns the plan of one execution ----

def sweep_ct_100(seed, work, tiny):
    rows = read_rows(os.path.join(CONFIGS, "sweep_ct_100.txt"))
    if seed:
        # the committed path entered at a seeded point: every seed visits the
        # same setpoints with the same transitions but one
        k = random.Random(seed).randrange(1, len(rows))
        rows = rows[k:] + rows[:k]
    if tiny:
        rows = rows[:3]
    setpoints = os.path.join(work, "setpoints.txt")
    write_rows(setpoints, rows, "# absolute setpoints: c (kmol/m3), T (K)\n")
    config = os.path.join(CONFIGS, "cstr_twovar.yaml")
    with open(config) as fh:
        op = yaml.safe_load(fh)["operating_point"]
    want_r = [[c - float(op["c"]), T - float(op["T"])] for c, T in rows]

    def check(out, result):
        samples = read_rows(os.path.join(out, "setpoints_train.txt"))
        errors = compare("harvested setpoints", [s[:2] for s in samples], want_r)
        if seed == 0:
            ref = read_rows(os.path.join(REF, "sweep_ct_100_train.txt"))
            errors += compare("harvested samples", samples, ref[:len(rows)])
        for loop in result["loops"]:
            if not loop["max_residual"] <= RESIDUAL_MAX:
                errors.append(f"cross-check residual {loop['max_residual']:.3e} "
                              f"> {RESIDUAL_MAX:.0e}")
        return errors

    return {"argv": ["sweep", "--setpoints", setpoints, config],
            "start": "closed_loop:ControlLoop.control_step",
            "op": "closed_loop:ControlLoop.control_step",
            "expected_ops": 0, "check": check}


def segment_end_errors(header, rows):
    """Per segment and channel: (|z - r| at its last row, peak |z - r|)."""
    z = [header.index(f"z_p_{i}") for i in range(2)]
    r = [header.index(f"r_{i}") for i in range(2)]
    out, start = [], 0
    for k in range(1, len(rows) + 1):
        if k == len(rows) or [rows[k][i] for i in r] != [rows[start][i] for i in r]:
            seg = rows[start:k]
            for zi, ri in zip(z, r):
                errs = [abs(row[zi] - row[ri]) for row in seg]
                out.append((errs[-1], max(errs)))
            start = k
    return out


def learned_400(seed, work, tiny):
    with open(os.path.join(CONFIGS, "cstr_twovar_400.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    scenario = cfg["scenario"]
    cycle = float(scenario["duration"])
    cycles = 1 if tiny else LEARNED_CYCLES
    # each cycle is the committed schedule, shifted by a seeded number of
    # segments for seed != 0: the same jumps but one, so cost varies little
    base = scenario["schedule"]
    rng = random.Random(seed)
    schedule = []
    for i in range(cycles):
        k = rng.randrange(1, len(base)) if seed else 0
        setpoints = [row[1:] for row in base[k:] + base[:k]]
        schedule += [[t + i * cycle] + sp for (t, _, _), sp in zip(base, setpoints)]
    scenario["schedule"] = schedule
    scenario["duration"] = cycles * cycle
    scenario["grnn"]["train"] = os.path.join(REF, "sweep_ct_400_train.txt")
    config = os.path.join(work, "cstr_twovar_400.yaml")
    with open(config, "w") as fh:
        yaml.safe_dump(cfg, fh)
    dt = float(cfg.get("dt", 1.0))
    steps = int(round(cycles * cycle / dt))

    def check(out, result):
        header, rows = read_csv(os.path.join(out, "cstr_twovar_400_learned.csv"))
        with open(os.path.join(out, "cstr_twovar_400_learned_summary.txt")) as fh:
            summary = fh.read()
        errors = []
        if len(rows) != steps or "\naborted" in summary:
            errors.append(f"{len(rows)} of {steps} intervals logged")
        if seed == 0:
            ref_header, ref = read_csv(os.path.join(REF, "cstr_twovar_400_learned.csv"))
            if header != ref_header:
                errors.append("CSV columns differ from the reference")
            errors += compare("first schedule cycle", rows[:len(ref)], ref)
            zr = [(header.index(f"z_p_{i}"), header.index(f"r_{i}")) for i in range(2)]
            ise = dt * sum((row[z] - row[r]) ** 2 for row in rows[:len(ref)] for z, r in zr)
            errors += compare("first-cycle ISE", [[ise]],
                              [[load_references()["learned_400_total_ise"]]])
        for end, peak in segment_end_errors(header, rows):
            if end > max(SETTLE_FLOOR, SETTLE_SHARE * peak):
                errors.append(f"segment-end error {end:.3e} > "
                              f"max({SETTLE_FLOOR:.0e}, {SETTLE_SHARE} * peak {peak:.3e})")
                break
        return errors

    return {"argv": ["run", "--mode", "learned", config],
            "start": "closed_loop:ControlLoop.control_step",
            "op": "closed_loop:ControlLoop.control_step",
            "expected_ops": steps, "check": check}


def grnn_fit_400(seed, work, tiny):
    samples = os.path.join(REF, "sweep_ct_400_train.txt")
    if tiny:
        rows = read_rows(samples)[:20]
        samples = os.path.join(work, "fit_20.txt")
        write_rows(samples, rows, "# inputs 2\n")
    stem = os.path.splitext(os.path.basename(samples))[0]

    def check(out, result):
        with open(os.path.join(out, f"{stem}_model.txt")) as fh:
            sigma = next(float(line.split()[1]) for line in fh
                         if line.startswith("sigma "))
        loo = read_rows(os.path.join(out, f"{stem}_loo.txt"))
        if tiny:
            best = min(loo, key=lambda row: row[1])[0] if loo else None
            return [] if sigma == best else [f"sigma {sigma} is not the LOO argmin {best}"]
        ref = load_references()
        return (compare("selected sigma", [[sigma]], [[ref["grnn_fit_400_sigma"]]])
                + compare("LOO curve", loo, ref["grnn_fit_400_loo"]))

    return {"argv": ["grnn-fit", samples, "--sigma", "auto"],
            "start": "grnn:select_sigma", "op": "grnn:loo_error",
            "expected_ops": 0, "check": check}


WORKLOADS = {"sweep_ct_100": sweep_ct_100, "learned_400": learned_400,
             "grnn_fit_400": grnn_fit_400}


def load_references():
    with open(os.path.join(REF, "references.json")) as fh:
        return json.load(fh)


# ---- executions ----

def run_worker(spec, work, log):
    spec_path = os.path.join(work, "spec.json")
    spec["result"] = os.path.join(work, "result.json")
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    log.flush()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return {"error": f"worker exited with code {proc.returncode}"}
    with open(spec["result"]) as fh:
        return json.load(fh)


def execute(kind, plan, work, log, index):
    """kind: 'setup' (stop at the main loop), 'plain' or 'traced'."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec = {"root": ROOT, "argv": plan["argv"] + ["--out", out],
            "start": plan["start"], "op": plan["op"],
            "setup_only": kind == "setup",
            "spans": os.path.join(work, f"spans-{index}.jsonl") if kind == "traced" else None}
    log.write(f"==> execution {index} ({kind})\n")
    result = run_worker(spec, work, log)
    if result.get("exit_code") is None:
        errors = [(result["error"] or "worker failed").strip().splitlines()[-1]]
    elif result["exit_code"] != 0:
        errors = [f"offsetmpc exited with code {result['exit_code']}"]
    elif kind == "setup":
        errors = []
    else:
        try:
            errors = plan["check"](out, result)
        except (OSError, ValueError, StopIteration) as exc:
            errors = [f"output check failed: {exc!r}"]
    return {"kind": kind, "result": result, "errors": errors}


def speed(ref_ns, nominal=REF_NS):
    """Factor that takes CPU times measured next to these kernel samples to
    the reference speed; below 1 when the machine ran slow."""
    return nominal / statistics.fmean(ref_ns)


def at_reference_speed(r):
    """A full execution's run_s and per-operation times at the reference
    speed. Each operation is scaled by the sample that closes the chunk it
    ran in; run_s by the mean of all samples."""
    ops, prev = [], 0
    for done, ns in r["ref_ns"]:
        ops += [t * REF_NS / ns for t in r["op_us"][prev:done]]
        prev = done
    factor = speed([ns for _, ns in r["ref_ns"]])
    return dict(r, run_s=r["run_s"] * factor, op_us=ops, raw_run_s=r["run_s"], speed=factor)


def end_to_end(execs):
    plain = [at_reference_speed(e["result"]) for e in execs
             if e["kind"] == "plain" and "op_us" in e["result"]]
    # set-up is mostly imports, which slow like plain Python on a shared
    # core, far less than the main loop
    setups = [e["result"]["setup_s"] * speed(e["result"]["setup_ref_ns"], PY_REF_NS)
              for e in execs if e["kind"] in ("setup", "plain") and "setup_s" in e["result"]]
    pooled = sorted(t for r in plain for t in r["op_us"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in plain), "s"),
        "intervals_per_s": (statistics.median(len(r["op_us"]) / r["run_s"] for r in plain),
                            "1/s"),
        "interval_p50_us": (statistics.median(pooled), "us"),
        "interval_p99_us": (statistics.quantiles(pooled, n=100, method="inclusive")[98],
                            "us"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    notes = {"executions": len(plain), "setups": len(setups), "intervals": len(pooled),
             "beyond_p99": sum(t > metrics["interval_p99_us"][0] for t in pooled),
             "wall_over_cpu": statistics.median(r["wall_s"] / r["cpu_s"] for r in plain),
             "speed": statistics.median(r["speed"] for r in plain),
             "raw_run_s": statistics.median(r["raw_run_s"] for r in plain)}
    return metrics, notes


def per_layer(execs):
    plain = [at_reference_speed(e["result"]) for e in execs
             if e["kind"] == "plain" and "op_us" in e["result"]]
    traced = [at_reference_speed(e["result"]) for e in execs
              if e["kind"] == "traced" and "trace" in e["result"]]
    n = len(traced)
    calls = {k: sum(r["trace"]["calls"][k] for r in traced) for k in tracer.TRACED}
    self_ns = {k: sum(r["trace"]["self_ns"][k] * r["speed"] for r in traced)
               for k in tracer.TRACED}
    count = {k: sum(r["trace"]["counters"][k] for r in traced) for k in tracer.COUNTERS}
    run_s = sum(r["run_s"] for r in traced)
    metrics = {}
    for k in tracer.TRACED:
        metrics[f"{k}.calls"] = (calls[k] / n, "count")
        metrics[f"{k}.self_us"] = (self_ns[k] / calls[k] / 1e3 if calls[k] else 0.0, "us")
        metrics[f"{k}.share"] = (self_ns[k] / 1e9 / run_s, "ratio")
    qp = calls["ocp.solve_qp"]
    metrics["ocp.solve_qp.iterations_mean"] = (count["qp_iterations"] / qp if qp else 0.0,
                                               "count")
    metrics["ocp.solve_qp.iterations_max"] = (
        max(r["trace"]["counters"]["qp_iterations_max"] for r in traced), "count")
    metrics["ocp.solve_qp.active_rows_mean"] = (count["qp_active_rows"] / qp if qp else 0.0,
                                                "count")
    metrics["ocp.solve_qp.phase1_share"] = (count["qp_phase1"] / qp if qp else 0.0, "ratio")
    metrics["closed_loop.intervals_per_sample"] = (
        calls["closed_loop.control_step"] / count["harvested"] if count["harvested"] else 0.0,
        "count")
    metrics["closed_loop.harvest_rejected"] = (count["harvest_rejected"] / n, "count")
    metrics["target.bound_warnings"] = (count["bound_warnings"] / n, "count")
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                   - statistics.median(r["run_s"] for r in plain), "s")
    return metrics, {"traced_executions": n}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few setpoints, one cycle, 20 samples")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "offsetmpc", "cli.py")):
        print(f"error: no offsetmpc sources under {ROOT}/src", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work = os.path.join(HERE, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = WORKLOADS[args.workload](args.seed, work, args.tiny)

    deadline = time.monotonic() + args.seconds
    execs = []
    with open(os.path.join(work, "program.log"), "w") as log:
        if args.trace:
            # alternate, so that drift in machine speed hits both kinds alike
            first, repeat = ["plain", "traced"], ["plain", "traced"]
        else:
            first, repeat = ["setup"] * (1 if args.tiny else SETUP_PROBES) + ["plain"], ["plain"]
        for kind in first:
            execs.append(execute(kind, plan, work, log, len(execs)))
        while time.monotonic() < deadline:
            kind = repeat[len(execs) % len(repeat)]
            execs.append(execute(kind, plan, work, log, len(execs)))

    attempted = failed = 0
    for e in execs:
        if e["kind"] == "setup":
            # a set-up-only execution runs no operation; a failed one counts as one
            attempted += bool(e["errors"])
            failed += bool(e["errors"])
            continue
        ops = max(len(e["result"].get("op_us", [])), plan["expected_ops"], 1)
        attempted += ops
        if e["errors"]:
            failed += ops
        else:
            failed += sum(lp["rejected_harvests"] for lp in e["result"]["loops"])
    with open(os.path.join(work, "executions.json"), "w") as fh:
        json.dump(execs, fh)
    errors = [f"execution {i} ({e['kind']}): {msg}"
              for i, e in enumerate(execs) for msg in e["errors"]]
    try:
        metrics, notes = per_layer(execs) if args.trace else end_to_end(execs)
    except (statistics.StatisticsError, ZeroDivisionError, KeyError, IndexError) as exc:
        errors.append(f"no metrics: {exc!r}")
        metrics, notes = {}, {}
    for line in errors:
        print(f"FAIL {line}")
    versions = next((e["result"]["versions"] for e in execs if "versions" in e["result"]), {})
    meta = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, commit=git_commit(),
                nproc=len(os.sched_getaffinity(0)), **versions, **notes)
    print("meta " + json.dumps(meta))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    print(f"{args.workload} failed_share {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": not errors, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
