import dataclasses
import os
import pathlib
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import yaml

from offsetmpc import cli, grnn, kernels, model, ocp, target
from offsetmpc import closed_loop as cl

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TRACKING = CONFIGS / "cstr_tracking.yaml"


def rewrite_config(tmp_path, name, subs, out_dir="out"):
    """Copy the reference config applying line-level regex substitutions.
    The copy's relative paths would resolve under tmp_path, so the output
    goes to tmp_path / out_dir and the training file is the committed one
    under ROOT/out, as the reference config reads it."""
    text = TRACKING.read_text()
    subs = [(r"train: \.\./out/", f"train: {ROOT / 'out'}/")] + list(subs) + [
        (r"^  dir: .*$", f"  dir: {tmp_path / out_dir}")]
    for pat, rep in subs:
        text, n = re.subn(pat, rep, text, flags=re.M)
        assert n > 0, pat
    p = tmp_path / name
    p.write_text(text)
    return p


def test_check_passes_on_reference(capsys):
    assert cli.main(["check", str(TRACKING)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_check_fails_on_zero_gains(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "zero_gains.yaml", [
        (r"^  Lx: .*$", "  Lx: [[0,0,0],[0,0,0],[0,0,0]]"),
        (r"^  Ld: .*$", "  Ld: [[0,0,0],[0,0,0]]"),
    ])
    assert cli.main(["check", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_fails_without_disturbance_coupling(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "no_dist.yaml", [
        (r"^  Bd: .*$", "  Bd: [[0,0],[0,0],[0,0]]"),
    ])
    assert cli.main(["check", str(cfg)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_missing_config_is_config_error(capsys):
    assert cli.main(["check", "/nonexistent/nope.yaml"]) == 2


def test_malformed_yaml_is_config_error(tmp_path, capsys):
    p = tmp_path / "broken.yaml"
    p.write_text("model: [unclosed\n")
    assert cli.main(["check", str(p)]) == 2


def test_bad_schedule_is_config_error(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "short.yaml", [
        (r"^  duration: .*$", "  duration: 5"),
    ])
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario: duration does not cover the schedule\n"


def test_run_zero_duration_writes_header_only(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "zero.yaml", [
        (r"^  duration: .*$", "  duration: 0"),
        (r"^  schedule:\n(?:    - .*\n)+", "  schedule:\n    - [0, 0.878, 324.5]\n"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 0
    csv = tmp_path / "out" / "zero_nominal.csv"
    assert csv.exists()
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    # the full header, as a run with rows writes it
    assert lines == full_header()
    assert "0 steps" in capsys.readouterr().out


def full_header():
    committed = ROOT / "out" / "cstr_tracking_nominal.csv"
    return committed.read_text().splitlines()[:1]


def runaway_config(tmp_path):
    """A rate constant 17 times the nominal one runs the reactor away within
    the first interval; at c = 0.95 the target also leaves the input box."""
    return rewrite_config(tmp_path, "runaway.yaml", [
        (r"^  k0: .*$", "  k0: 1.2e12"),
        (r"^  duration: .*$", "  duration: 3"),
        (r"^  schedule:\n(?:    - .*\n)+",
         "  schedule:\n    - [0, 0.95, 324.5]\n"),
    ])


def test_first_interval_abort_counts_no_target_excursion(tmp_path, capsys):
    """The interval that aborts has no row, so neither the run's summary nor
    the sweep's warning counts its target excursion; the CSV still has the
    full header."""
    cfg = runaway_config(tmp_path)
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 4
    summary = (tmp_path / "out" / "runaway_nominal_summary.txt").read_text()
    assert "steps 0\n" in summary and "\naborted time 0 " in summary
    assert "target_bound_excursions" not in summary
    csv = (tmp_path / "out" / "runaway_nominal.csv").read_text()
    assert csv.splitlines() == full_header()
    capsys.readouterr()
    sp = tmp_path / "edge.txt"
    sp.write_text("0.95 324.5\n")
    assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sweep ABORTED at step 0: "), err


def test_run_short_nominal(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "short_run.yaml", [
        (r"^  duration: .*$", "  duration: 12"),
        (r"^  schedule:\n(?:    - .*\n)+", "  schedule:\n    - [0, 0.878, 324.5]\n"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 0
    records = cl.read_log_csv(str(tmp_path / "out" / "short_run_nominal.csv"))
    assert len(records) == 12
    assert (tmp_path / "out" / "short_run_nominal_summary.txt").exists()


def test_run_both_builds_the_loop_data_once(tmp_path, monkeypatch, capsys):
    """One build_prediction per command: the checks and both loops share
    it."""
    builds = []
    real = ocp.build_prediction

    def counted(*args):
        builds.append(real(*args))
        return builds[-1]

    monkeypatch.setattr(ocp, "build_prediction", counted)
    train = ROOT / "out" / "sweep_c_50_train.txt"
    cfg = rewrite_config(tmp_path, "both.yaml", [
        (r"^  duration: .*$", "  duration: 12"),
        (r"^  schedule:\n(?:    - .*\n)+",
         "  schedule:\n    - [0, 0.878, 324.5]\n"),
        (r"train: [^}]*", f"train: {train}"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "both"]) == 0
    assert len(builds) == 1


def test_run_both_builds_the_target_map_once(tmp_path, monkeypatch, capsys):
    """One target_map per command: build_prediction stacks it into the
    affine law that both loops share."""
    calls = []
    real = target.target_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(target, "target_map", counted)
    train = ROOT / "out" / "sweep_c_50_train.txt"
    cfg = rewrite_config(tmp_path, "both.yaml", [
        (r"^  duration: .*$", "  duration: 12"),
        (r"^  schedule:\n(?:    - .*\n)+",
         "  schedule:\n    - [0, 0.878, 324.5]\n"),
        (r"train: [^}]*", f"train: {train}"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "both"]) == 0
    assert len(calls) == 1


def test_run_both_loops_see_one_target_box(tmp_path, monkeypatch, capsys):
    """Both loops of run --mode both pass the interval kernel the same
    pred.lo and pred.hi objects, which build_prediction made once."""
    loops, boxes = [], set()
    real_run = cl.run_scenario
    real_interval = kernels.PYTHON_KERNELS.interval

    def run(*args, **kwargs):
        loops.append(real_run(*args, **kwargs))
        return loops[-1]

    def interval(M_step, P, b_box, lo, hi, *rest):
        boxes.add((id(lo), id(hi)))
        return real_interval(M_step, P, b_box, lo, hi, *rest)

    monkeypatch.setattr(cl, "run_scenario", run)
    monkeypatch.setattr(kernels, "active", types.SimpleNamespace(
        **{**vars(kernels.PYTHON_KERNELS), "interval": interval}))
    train = ROOT / "out" / "sweep_c_50_train.txt"
    cfg = rewrite_config(tmp_path, "both.yaml", [
        (r"^  duration: .*$", "  duration: 12"),
        (r"^  schedule:\n(?:    - .*\n)+",
         "  schedule:\n    - [0, 0.878, 324.5]\n"),
        (r"train: [^}]*", f"train: {train}"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "both"]) == 0
    (nominal, learned) = loops
    assert nominal is not learned and nominal.pred.lo is learned.pred.lo
    assert boxes == {(id(nominal.pred.lo), id(nominal.pred.hi))}


def test_singular_target_is_a_condition_failure(tmp_path, capsys):
    """Controlled outputs that see the steady pairs in one direction only:
    the target map cannot be built, check reports that as its failing
    offset-free line, and run exits 3 with the reason, not a
    traceback."""
    m = cli.load_config(str(TRACKING)).model
    # steady pairs (x, u) with (A - I) x + B u = 0 span null([A - I, B]);
    # H = [h; h + v] with v' C X = 0 for their x parts X sees them in one
    # direction only, so the target matrix loses rank
    X = scipy.linalg.null_space(np.hstack([m.A - np.eye(3), m.B]))[:3]
    v = np.linalg.svd(m.C @ X)[0][:, -1]
    H = np.vstack([m.H[0], m.H[0] + v])
    cfg = rewrite_config(tmp_path, "singular.yaml", [
        (r"^  H: .*$", "  H: " + repr(H.tolist())),
    ])
    assert cli.main(["check", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] offset-free null space: target matrix" in out
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "condition error: target matrix" in err
    assert "Traceback" not in err


def test_sweep_writes_training_file(tmp_path, capsys):
    sp = tmp_path / "three.txt"
    sp.write_text("0.877 324.5\n0.878 324.5\n0.879 324.5\n")
    cfg = rewrite_config(tmp_path, "sweepcfg.yaml", [])
    assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 0
    train = tmp_path / "out" / "three_train.txt"
    rows = grnn.load_samples(str(train))
    assert len(rows) == 3
    # setpoints come back as deviations from the operating point
    assert np.allclose(rows[1][0], [0.0, 0.0], atol=1e-12)


def test_sweep_harvests_one_sample_per_row_a_repeated_row_included(
        tmp_path, capsys):
    """Each row of the setpoints file owes one sample: rows 1, 2, 2 of
    sweep_ct_100.txt give 3 samples, the repeated row's taken on its first
    interval, since the loop is already steady there."""
    rows = [line for line in (CONFIGS / "sweep_ct_100.txt").read_text()
            .splitlines() if not line.startswith("#")]
    sp = tmp_path / "repeated.txt"
    sp.write_text("\n".join([rows[0], rows[1], rows[1]]) + "\n")
    assert cli.main(["sweep", str(CONFIGS / "cstr_twovar.yaml"),
                     "--setpoints", str(sp), "--out", str(tmp_path)]) == 0
    samples = grnn.load_samples(str(tmp_path / "repeated_train.txt"))
    assert len(samples) == 3
    assert np.array_equal(samples[1][0], samples[2][0])
    assert capsys.readouterr().out.startswith(
        "harvested 3 samples over 113 steps")


def test_a_sweep_that_stops_keeps_its_samples(tmp_path, capsys):
    """Rows 1, 2 and 100 of sweep_ct_100.txt with sweep.cap 100: row 100
    is not steady within the cap. The sweep writes the 2 samples before
    it, the bytes a sweep of rows 1 and 2 alone writes, says in one line
    where and why it stopped, and exits 4."""
    rows = [line for line in (CONFIGS / "sweep_ct_100.txt").read_text()
            .splitlines() if not line.startswith("#")]
    text, n = re.subn(r"^  cap: .*$", "  cap: 100",
                      (CONFIGS / "cstr_twovar.yaml").read_text(), flags=re.M)
    assert n == 1
    cfg = tmp_path / "cap100.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    for name, picked in (("two", rows[:2]),
                         ("stopped", [rows[0], rows[1], rows[99]])):
        (tmp_path / f"{name}.txt").write_text("\n".join(picked) + "\n")
    assert cli.main(["sweep", str(cfg), "--setpoints",
                     str(tmp_path / "two.txt"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["sweep", str(cfg), "--setpoints",
                     str(tmp_path / "stopped.txt"), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    dest = out / "stopped_train.txt"
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if not line.startswith("WARNING target outside bounds")] == [
        "sweep ABORTED at step 212: no steady state within 100 steps at "
        f"setpoint [0.00575668 3.67771041]; harvested 2 samples -> {dest}"]
    assert dest.read_bytes() == (out / "two_train.txt").read_bytes()
    assert len(grnn.load_samples(str(dest))) == 2


def test_sweep_reports_target_excursions_in_one_line(tmp_path, capsys):
    """This twovar setpoint's targets leave the input box on most of its
    intervals; stderr gets one line with the count, not one per
    excursion."""
    sp = tmp_path / "edge.txt"
    sp.write_text("0.90568389 325.30717104\n")
    assert cli.main(["sweep", str(ROOT / "configs" / "cstr_twovar.yaml"),
                     "--setpoints", str(sp), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    found = re.fullmatch(r"WARNING target outside bounds on (\d+) of (\d+) "
                         r"intervals: first u_bar .* x_bar .*, "
                         r"last u_bar .* x_bar .*", err[0])
    assert found and 0 < int(found[1]) <= int(found[2])


@pytest.mark.parametrize("text, message", [
    ("", "no setpoints"),
    ("# absolute setpoints: c T\n\n", "no setpoints"),
    ("# c T h\n0.877 324.5 0.659\n", "expected 2 columns (c, T), got 3"),
], ids=["empty", "comment only", "3 columns"])
def test_sweep_without_setpoints_is_config_error(tmp_path, capsys, text,
                                                 message):
    """The one error line names the file, as every input-file error does."""
    sp = tmp_path / "none.txt"
    sp.write_text(text)
    cfg = rewrite_config(tmp_path, "nosp.yaml", [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 2
    assert capsys.readouterr().err == f"error: {sp}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["0.88 nan", "inf 324.5", "0.88 -inf"])
def test_non_finite_setpoint_is_config_error(tmp_path, capsys, row):
    sp = tmp_path / "bad.txt"
    sp.write_text(f"# c T\n0.877 324.5\n\n{row}\n")
    cfg = rewrite_config(tmp_path, "nansp.yaml", [])
    assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 2
    assert capsys.readouterr().err == f"error: {sp}: line 4: non-finite field\n"
    assert not (tmp_path / "out" / "bad_train.txt").exists()


def test_sweep_with_tiny_cap_fails_runtime(tmp_path, capsys):
    sp = tmp_path / "one.txt"
    sp.write_text("0.878 324.5\n")
    cfg = rewrite_config(tmp_path, "tinycap.yaml", [
        (r"^  cap: .*$", "  cap: 4"),
    ])
    assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 4


def test_grnn_fit_round_trip(tmp_path, capsys):
    """The model file, line by line: its sigma, capacity and outputs lines,
    the inputs directive and one %.17g row per sample, in file order."""
    train = tmp_path / "train.txt"
    rng = np.random.default_rng(2)
    rows = [(rng.normal(size=2) * [0.002, 1.0], rng.normal(size=2))
            for _ in range(8)]
    grnn.write_samples(str(train), rows)
    assert cli.main(["grnn-fit", str(train), "--sigma", "0.3",
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "train_model.txt").read_text().splitlines()
    assert lines[:5] == ["# fitted regression model",
                         "sigma %.17g" % 0.3, "capacity 8", "outputs 2",
                         "# inputs 2"]
    assert lines[5:] == [" ".join("%.17g" % v for v in (*r, *d))
                         for r, d in rows]
    assert (tmp_path / "out" / "train_loo.txt").exists()
    assert (tmp_path / "out" / "train_curve.txt").exists()


def test_grnn_fit_auto_sigma(tmp_path, capsys):
    train = tmp_path / "auto.txt"
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(15, 2))
    rows = [(p, np.array([p @ [1.0, 2.0], p @ [0.5, -1.0]])) for p in pts]
    grnn.write_samples(str(train), rows)
    assert cli.main(["grnn-fit", str(train), "--sigma", "auto",
                     "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "auto_model.txt").read_text().splitlines()
    key, sigma = lines[1].split()
    assert key == "sigma" and float(sigma) in grnn.SIGMA_GRID


def test_grnn_fit_malformed_train_file(tmp_path, capsys):
    train = tmp_path / "bad.txt"
    train.write_text("0.1 0.2 1.0 nope\n")
    assert cli.main(["grnn-fit", str(train),
                     "--out", str(tmp_path / "out")]) == 2


def test_sample_setpoints_deterministic(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "sample.yaml", [])
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert cli.main(["sample-setpoints", str(cfg), "-n", "8",
                     "--seed", "3", "--out", str(a)]) == 0
    assert cli.main(["sample-setpoints", str(cfg), "-n", "8",
                     "--seed", "3", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    rows = [ln.split() for ln in a.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]
    assert len(rows) == 8
    for c, T in ((float(r[0]), float(r[1])) for r in rows):
        assert 0.83 <= c <= 0.92
        assert 320.0 <= T <= 328.5


@pytest.mark.parametrize("flags, message", [
    (["-n", "0"], "-n: must be >= 1, got 0"),
    (["-n", "-3"], "-n: must be >= 1, got -3"),
    (["--seed", "-1"], "--seed: must be >= 0, got -1"),
], ids=["n 0", "n -3", "seed -1"])
def test_sample_setpoints_rejects_bad_flags(tmp_path, capsys, flags, message):
    dest = tmp_path / "pts.txt"
    assert cli.main(["sample-setpoints", str(TRACKING), *flags,
                     "--out", str(dest)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not dest.exists()


def fresh_interpreter(*args):
    """The finished python3 args, run in a fresh interpreter that imports
    offsetmpc from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def fresh_python(code):
    """The last stdout line of code run in a fresh interpreter."""
    proc = fresh_interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def fresh_main(*argv):
    """(exit code, stdout, stderr) of the program run on argv in a fresh
    interpreter, where only the modules the subcommand imports are
    loaded when an error reaches main."""
    proc = fresh_interpreter("-m", "offsetmpc.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_program_never_imports_scipy(tmp_path):
    """check and run --mode both in a fresh interpreter leave no scipy
    module loaded: the program's linear algebra is numpy only."""
    code = (
        "import sys\n"
        "from offsetmpc import cli\n"
        f"assert cli.main(['check', {str(ROOT / 'configs' / 'cstr_twovar.yaml')!r}]) == 0\n"
        f"assert cli.main(['run', '--mode', 'both', {str(TRACKING)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert fresh_python(code) == "[]"
    assert (tmp_path / "cstr_tracking_learned.csv").exists()


CONTROLLER = ["offsetmpc.closed_loop", "offsetmpc.estimator",
              "offsetmpc.kernels", "offsetmpc.model", "offsetmpc.numerics",
              "offsetmpc.ocp", "offsetmpc.plant", "offsetmpc.target"]
LEAN = ["offsetmpc", "offsetmpc.cli", "offsetmpc.grnn"]


def test_each_subcommand_loads_only_what_it_runs(tmp_path, compiled_kernels):
    """Each subcommand, in a fresh interpreter, loads a fixed set of the
    package's modules, and yaml only if it reads a config: grnn-fit loads
    cli and grnn alone, so a module-level import added to cli fails here.
    run and sweep step the plant, so they also load the compiled
    kernels."""
    sp = tmp_path / "one.txt"
    sp.write_text("0.878 324.5\n")
    cases = [
        (["grnn-fit", ROOT / "out" / "sweep_c_50_train.txt",
          "--out", tmp_path], LEAN, False),
        (["check", TRACKING], LEAN + CONTROLLER, True),
        (["run", "--mode", "both", TRACKING, "--out", tmp_path],
         LEAN + CONTROLLER + ["offsetmpc._kernels"], True),
        (["sweep", TRACKING, "--setpoints", sp, "--out", tmp_path],
         LEAN + CONTROLLER + ["offsetmpc._kernels"], True),
        (["sample-setpoints", TRACKING, "-n", "2", "--out", tmp_path / "sp"],
         LEAN + CONTROLLER, True),
    ]
    for argv, modules, reads_yaml in cases:
        code = (
            "import sys\n"
            "from offsetmpc import cli\n"
            f"assert cli.main({[str(a) for a in argv]!r}) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'offsetmpc' or m.startswith('offsetmpc.')),\n"
            "      'yaml' in sys.modules)\n")
        assert fresh_python(code) == f"{sorted(modules)} {reads_yaml}", argv


def test_grnn_fit_errors_keep_their_exit_codes_in_a_fresh_interpreter(
        tmp_path):
    """grnn-fit loads no controller module, so its errors reach main's
    handler with only cli and grnn loaded: one sample with --sigma auto is
    a runtime error (exit 4), a non-numeric sample file an input error
    (exit 2), each one line."""
    one = tmp_path / "one.txt"
    one.write_text("# inputs 1\n0.001 0.01 0.3\n")
    assert fresh_main("grnn-fit", one, "--sigma", "auto",
                     "--out", tmp_path / "out") == (
        4, "", "runtime error: need at least 2 samples\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("# inputs 1\n0.001 0.01 x\n")
    assert fresh_main("grnn-fit", bad, "--out", tmp_path / "out") == (
        2, "", f"error: {bad}: line 2: non-numeric field\n")


def test_importing_grnn_loads_no_other_module_of_the_package():
    """The package's __init__ imports nothing, so a module loads only what
    it imports itself, and grnn imports no other module of the package."""
    code = (
        "import sys\n"
        "import offsetmpc.grnn\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'offsetmpc' or m.startswith('offsetmpc.')))\n")
    assert fresh_python(code) == "['offsetmpc', 'offsetmpc.grnn']"


def test_a_plant_step_imports_no_build_tools(compiled_kernels):
    """With the kernels built, the first plant.step, or the first
    ControlLoop.control_step, in a fresh interpreter loads both without
    importing subprocess or sysconfig, which only a build needs, or
    hashlib, which would add ~4 MB to the process."""
    first_step = (
        "plant.step(plant.PlantState(0.878, 324.5, 0.659),\n"
        "           np.array([300.0, 0.1]), plant.CstrParams(), 1.0)\n")
    first_interval = (
        f"rc = cli.load_config({str(TRACKING)!r})\n"
        "loop = cl.ControlLoop(rc.model, rc.dist, rc.make_gains(),\n"
        "                      rc.ocp_cfg, cli._fresh_plant(rc),\n"
        "                      cl.ControllerMode.NOMINAL)\n"
        "assert kernels.active is None\n"
        "loop.set_setpoint(np.zeros(2))\n"
        "loop.control_step()\n")
    for first in (first_step, first_interval):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from offsetmpc import cli, kernels, plant\n"
            "from offsetmpc import closed_loop as cl\n"
            + first +
            "assert kernels.fallback_reason is None, kernels.fallback_reason\n"
            "assert kernels.active not in (None, kernels.PYTHON_KERNELS)\n"
            "print(sorted(m for m in ('hashlib', 'subprocess', 'sysconfig')\n"
            "             if m in sys.modules))\n")
        assert fresh_python(code) == "[]", first


def test_grnn_fit_never_loads_the_compiled_plant_step(tmp_path):
    """grnn-fit and check run no plant step and no control interval, so
    each, in a fresh interpreter, loads no compiled kernel; check builds
    the plant a run starts from and applies the drift config's event to a
    copy of it."""
    samples = str(ROOT / "out" / "sweep_c_50_train.txt")
    for argv in (["grnn-fit", samples, "--out", str(tmp_path)],
                 ["check", str(ROOT / "configs" / "cstr_twovar.yaml")],
                 ["check", str(ROOT / "configs" / "cstr_drift.yaml")]):
        code = (
            "from offsetmpc import cli, kernels\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(kernels.active)\n")
        assert fresh_python(code) == "None", argv[0]


# a malformed number exits 2 with a message, never with a traceback; each
# case is (None, grnn-fit argv) or ((pattern, line) for the tracking config,
# argv)
BAD_NUMBERS = {
    "grnn-fit --sigma abc": (None, ["grnn-fit", "--sigma", "abc"]),
    "grnn-fit --sigma -1": (None, ["grnn-fit", "--sigma", "-1"]),
    "dt: abc": ((r"^dt: .*$", "dt: abc"), ["check"]),
    "scenario.grnn.sigma: -1": ((r"sigma: 0\.01", "sigma: -1"),
                                ["run", "--mode", "learned"]),
    "sweep.cap: abc": ((r"^  cap: .*$", "  cap: abc"), ["check"]),
    # float() reads a YAML boolean as 1.0 or 0.0
    "sweep.cap: true": ((r"^  cap: .*$", "  cap: true"), ["check"]),
    "ocp.N: true": ((r"^  N: .*$", "  N: true"), ["check"]),
    "dt: true": ((r"^dt: .*$", "dt: true"), ["check"]),
    "scenario.events[0].time: abc": (
        (r"^  harvest: false$",
         "  harvest: false\n  events:\n    - {time: abc, set: {U: 50.0}}"),
        ["check"]),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_is_config_error(tmp_path, capsys, case):
    sub, argv = BAD_NUMBERS[case]
    if sub is None:
        train = tmp_path / "train.txt"
        grnn.write_samples(str(train), [(np.zeros(2), np.zeros(2)),
                                        (np.ones(2), np.ones(2))])
        argv = argv[:1] + [str(train)] + argv[1:] + ["--out",
                                                      str(tmp_path / "out")]
    else:
        argv = argv + [str(rewrite_config(tmp_path, "bad.yaml", [sub]))]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    # one line that names the field: "dt: abc" -> "dt", "grnn-fit --sigma
    # abc" -> "--sigma"
    field = case.rsplit(" ", 1)[0].rstrip(":").split()[-1]
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {field}: "), err


# a value out of its range exits 2 with one error line, from check, run and
# sweep alike; each case is (pattern, line) for the tracking config
OUT_OF_RANGE = {
    "scenario.steady.M: 0": (r"\{M: 5,", "{M: 0,"),
    "scenario.steady.M: -3": (r"\{M: 5,", "{M: -3,"),
    "dt: 0": (r"^dt: .*$", "dt: 0"),
    "dt: -1": (r"^dt: .*$", "dt: -1"),
    # 120 minutes over dt is not a finite interval count
    "dt: 1.0e-310": (r"^dt: .*$", "dt: 1.0e-310"),
    "scenario.grnn.capacity: 0": (r"capacity: 50", "capacity: 0"),
    "scenario.steady.tol_y: -1": (r"tol_y: 1\.0e-5", "tol_y: -1"),
    "scenario.steady.tol_u: -1": (r"tol_u: 1\.0e-5", "tol_u: -1"),
    "sweep.cap: 0": (r"cap: 200", "cap: 0"),
    "sweep.cap: -1": (r"cap: 200", "cap: -1"),
    # an operating point outside the plant's physical region
    "operating_point: c = -0.5": (r"^  c: 0\.878$", "  c: -0.5"),
    "operating_point: T = 0": (r"^  T: 324\.5$", "  T: 0"),
    "operating_point: h = 0": (r"^  h: 0\.659$", "  h: 0"),
}


@pytest.mark.parametrize("command", ["check", "run", "sweep"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_is_config_error(tmp_path, capsys, case, command):
    cfg = rewrite_config(tmp_path, "range.yaml", [OUT_OF_RANGE[case]])
    argv = [command, str(cfg)]
    if command == "sweep":
        setpoints = tmp_path / "one.txt"
        setpoints.write_text("0.84 324.5\n")
        argv += ["--setpoints", str(setpoints)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err
    # the line names the field, not some later failure
    assert case.split(":")[0].rsplit(".", 1)[-1] in err, err


HUGE_SAMPLES = "# inputs 1\n1e308 0 0\n-1e308 0 0\n1.7e308 0 0\n"

# each place where a caught exception becomes the one error line, with the
# prefix it adds: (command, pattern, line, message) for the tracking
# config, or for the file HUGE_SAMPLES under grnn-fit; the YAML message is
# PyYAML's own, read back from the loader
REFUSALS = {
    "yaml": ("check", r"^dt: .*$", "dt: [1", None),
    "operating_point": (
        "check", r"^  c: 0\.878$", "  c: -0.5",
        "operating_point: state (-0.5, 324.5, 0.659) left the physical "
        "region"),
    "model": ("check", r"^dt: .*$", "dt: 0", "model: dt must be > 0"),
    "ocp": ("check", r"^  u_min: .*$", "  u_min: [320.0, 0.07]",
            "ocp: u bounds must satisfy lo < hi"),
    "plant": ("check", r"^  k0: .*$", "  k0: -1", "plant: k0 must be > 0"),
    "scenario": ("check", r"^  duration: .*$", "  duration: 5",
                 "scenario: duration does not cover the schedule"),
    "pre-flight": (
        "check", r"^  harvest: false$",
        "  harvest: false\n  events:\n    - {time: 120, set: {U: 40.0}}",
        "scenario.events[0].time: 120 is outside the run; an event must "
        "fall in [0, 119], the first to the last interval's start"),
    "schedule setpoint": (
        "check", r"^    - \[15, 0\.882, 324\.5\]$", "    - [15, 0, 324.5]",
        "scenario.schedule[1]: state (0.0, 324.5, inf) left the physical "
        "region"),
    "sample window": ("grnn-fit", None, None,
                      "{file}: sample inputs overflow the window's "
                      "standardization"),
    "learned map": (
        "run --mode learned", r"^    - \[15, 0\.882, 324\.5\]$",
        "    - [15, 0.882, 1.0e+200]",
        "scenario.schedule[1]: the learned map's prediction at this "
        "setpoint, [nan, nan], is not finite"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_prints_its_whole_line(tmp_path, capsys, case):
    """Exit 2 and the whole of stderr, prefix included, for each refusal."""
    command, pattern, line, message = REFUSALS[case]
    if command == "grnn-fit":
        path = tmp_path / "huge.txt"
        path.write_text(HUGE_SAMPLES)
        argv = [command, path, "--out", tmp_path / "fit"]
    else:
        path = rewrite_config(tmp_path, "refused.yaml", [(pattern, line)])
        argv = [*command.split(), path]
    if message is None:
        with open(path, "rb") as fh, pytest.raises(yaml.YAMLError) as raised:
            yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                         yaml.SafeLoader))
        message = f"config is not valid YAML: {raised.value}"
    else:
        message = message.format(file=path)
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# an allocation that no machine can make, or a QP Hessian that overflows
# or is not positive definite, exits 4 with one line and no numpy warning;
# each case is (command, pattern, line) for the tracking config. Every
# size lies beyond a 128 TiB address space, so numpy refuses it at once
# and nothing is allocated: N = 1e7 asks build_prediction for 4.26 PiB, a
# duration of 1e15 intervals asks the log block for 199 PiB, and one of
# 1e18 for more bytes than numpy can index. Terminal weights of 1e305
# overflow H_j to inf, and ones of 1e100 swamp its input weights so that
# its Cholesky factor fails; the line of a q_xN case names the QP Hessian
IMPOSSIBLE = {
    "check ocp.N: 10000000": ("check", r"^  N: 10$", "  N: 10000000"),
    "run ocp.N: 10000000": ("run", r"^  N: 10$", "  N: 10000000"),
    "check ocp.q_xN: 1e305": ("check", r"^  q_xN: .*$",
                              "  q_xN: [1.0e+305, 1.0e+305, 1.0e+305]"),
    "run ocp.q_xN: 1e305": ("run", r"^  q_xN: .*$",
                            "  q_xN: [1.0e+305, 1.0e+305, 1.0e+305]"),
    "check ocp.q_xN: 1e100": ("check", r"^  q_xN: .*$",
                              "  q_xN: [1.0e+100, 1.0e+100, 1.0e+100]"),
    "run ocp.q_xN: 1e100": ("run", r"^  q_xN: .*$",
                            "  q_xN: [1.0e+100, 1.0e+100, 1.0e+100]"),
    "run scenario.duration: 1e15": ("run", r"^  duration: 120$",
                                    "  duration: 1e15"),
    "run scenario.duration: 1e18": ("run", r"^  duration: 120$",
                                    "  duration: 1e18"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(IMPOSSIBLE))
def test_impossible_allocation_is_runtime_error(tmp_path, capsys, case):
    command, pattern, line = IMPOSSIBLE[case]
    cfg = rewrite_config(tmp_path, "huge.yaml", [(pattern, line)])
    assert cli.main([command, str(cfg)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("runtime error:") and "Traceback" not in err, err
    if "q_xN" in case:
        assert "QP Hessian" in err, err


def test_learned_run_reads_train_file_beside_config(tmp_path, monkeypatch,
                                                   capsys):
    """scenario.grnn.train is relative to the config's directory, so the run
    does not depend on the working directory."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--mode", "learned", str(TRACKING),
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "cstr_tracking_learned.csv").exists()


def test_sample_setpoints_gives_up_without_admissible_point(tmp_path, capsys):
    # a tenfold feed flow puts every steady level far above 1.15 m
    cfg = rewrite_config(tmp_path, "big_feed.yaml", [(r"^  F0: .*$",
                                                      "  F0: 1.0")])
    assert cli.main(["sample-setpoints", str(cfg), "-n", "3",
                     "--out", str(tmp_path / "pts.txt")]) == 2
    assert "no admissible setpoint" in capsys.readouterr().err


def dumped_config(tmp_path, keys, value):
    """The tracking config with the entry at the key path set to value."""
    cfg = yaml.safe_load(TRACKING.read_text())
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    p = tmp_path / "dumped.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return p


# a config section of the wrong YAML kind exits 2 naming the section; each
# case is (key path, value)
WRONG_KIND = {
    "plant: 3": (("plant",), 3),
    "sweep: [1]": (("sweep",), [1]),
    "output: 5": (("output",), 5),
    "operating_point: 1": (("operating_point",), 1),
    "scenario: 2": (("scenario",), 2),
    "scenario.grnn: 1": (("scenario", "grnn"), 1),
    "scenario.steady: [1]": (("scenario", "steady"), [1]),
    "model: x": (("model",), "x"),
    "scenario.schedule: 5": (("scenario", "schedule"), 5),
    "scenario.events: {time: 1}": (("scenario", "events"), {"time": 1}),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_section_of_wrong_kind_is_config_error(tmp_path, capsys, case):
    keys, value = WRONG_KIND[case]
    assert cli.main(["check", str(dumped_config(tmp_path, keys, value))]) == 2
    assert f"error: {'.'.join(keys)}: not a" in capsys.readouterr().err


def test_non_finite_sample_is_input_error(tmp_path, capsys):
    train = tmp_path / "nan.txt"
    train.write_text("# inputs 2\n0.001 0.1 0.0 0.0\n0.002 nan 0.0 0.0\n")
    assert cli.main(["grnn-fit", str(train),
                     "--out", str(tmp_path / "out")]) == 2
    assert "line 3: non-finite" in capsys.readouterr().err
    cfg = rewrite_config(tmp_path, "nan_train.yaml", [
        (r"train: \S+\}", f"train: {train}}}")])
    assert cli.main(["run", "--mode", "learned", str(cfg)]) == 2
    assert "line 3: non-finite" in capsys.readouterr().err


def test_bad_train_file_error_names_the_file(tmp_path, capsys):
    """A sample-file error names the file and the line, in one line."""
    train = tmp_path / "bad_train.txt"
    train.write_text("# inputs 2\n0.001 0.1 0.0 0.0\n0.002 oops 0.0 0.0\n")
    cfg = rewrite_config(tmp_path, "bad_train.yaml", [
        (r"train: \S+\}", f"train: {train}}}")])
    assert cli.main(["run", "--mode", "learned", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"error: {train}: line 3: non-numeric field\n"


@pytest.mark.parametrize("n_in", [1, 3])
def test_train_file_with_the_wrong_input_count_is_input_error(
        tmp_path, capsys, n_in):
    """The learned map is looked up at the setpoint, whose 2 entries
    cstr_twovar.yaml controls: samples of 1 or 3 inputs are an input
    error naming the file and both counts, not a map whose one input is
    broadcast over the setpoint or a traceback from grnn.predict."""
    train = tmp_path / "train.txt"
    train.write_text(f"# inputs {n_in}\n" + "".join(
        " ".join([f"{0.001 * (i + 1):g}"] * n_in + ["0.01", "0.3"]) + "\n"
        for i in range(3)))
    text, n = re.subn(r"train: [^}]*", f"train: {train}",
                      (CONFIGS / "cstr_twovar.yaml").read_text())
    assert n == 1
    cfg = tmp_path / "inputs.yaml"
    cfg.write_text(text)
    assert cli.main(["run", "--mode", "learned", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {train}: samples have {n_in} inputs, the setpoint has 2 "
        "entries\n")


def test_run_both_reads_the_training_file_before_any_interval(tmp_path,
                                                              capsys):
    """run --mode both builds the learned map before the nominal run: a
    training file the map cannot take exits 2 and writes no file."""
    train = tmp_path / "train.txt"
    train.write_text("# inputs 1\n0.001 0.01 0.3\n")
    cfg = rewrite_config(tmp_path, "both.yaml", [
        (r"train: \S+\}", f"train: {train}}}")])
    assert cli.main(["run", "--mode", "both", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {train}: samples have 1 inputs, the setpoint has 2 "
        "entries\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["both.yaml",
                                                          "train.txt"]


UNPREDICTABLE = ("error: scenario.schedule[1]: the learned map's prediction "
                 "at this setpoint, [nan, nan], is not finite\n")


def test_run_refuses_a_setpoint_the_map_cannot_predict(tmp_path, capsys):
    """run --mode both checks the learned map at every schedule setpoint
    before the nominal run: a setpoint T = 1e200 K, a state the plant can
    take but at which the map's prediction is not finite, exits 2 with one
    line, raises no numpy warning and writes no file."""
    cfg = rewrite_config(tmp_path, "far.yaml", [
        (r"^    - \[15, 0\.882, 324\.5\]$", "    - [15, 0.882, 1.0e+200]")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--mode", "both", str(cfg)]) == 2
    assert capsys.readouterr().err == UNPREDICTABLE
    assert [p.name for p in tmp_path.rglob("*")] == ["far.yaml"]


def test_run_learned_on_twovar_refuses_a_setpoint_far_off_the_map(tmp_path):
    """run --mode learned on cstr_twovar.yaml with schedule[1] at T =
    1e200 K, in a fresh interpreter: one error line, exit 2, no output."""
    text = (CONFIGS / "cstr_twovar.yaml").read_text()
    for pat, rep in [(r"^    - \[15, 0\.8805, 326\.0\]$",
                      "    - [15, 0.8805, 1.0e+200]"),
                     (r"train: \.\./out/", f"train: {ROOT / 'out'}/"),
                     (r"^  dir: .*$", f"  dir: {tmp_path / 'out'}")]:
        text, n = re.subn(pat, rep, text, flags=re.M)
        assert n == 1, pat
    cfg = tmp_path / "twovar.yaml"
    cfg.write_text(text)
    assert fresh_main("run", "--mode", "learned", cfg) == (2, "",
                                                          UNPREDICTABLE)
    assert not (tmp_path / "out").exists()


LEFT = "left the physical region"


# the level of a setpoint state is numpy's exp in steady_height, so the
# message is checked up to the level's leading digits
@pytest.mark.parametrize("row, head, tail", [
    ("1.0e+200, 326.0", "state (1e+200, 326.0, -4.18", LEFT),
    ("-1, 326.0", "state (-1.0, 326.0, -8.36", LEFT),
    ("0, 326.0", "state (0.0, 326.0, inf) ", LEFT),
    ("1.0, 326.0", "state (1.0, 326.0, 0.0) ", LEFT),
    ("0.8805, 1.0e-320", "state (0.8805, 1e-320, inf) ", LEFT),
    ("0.8805, 0", "T must be > 0, got 0.0", ""),
    ("0.8805, -5", "T must be > 0, got -5.0", ""),
], ids=["c 1e200", "c -1", "c 0", "c at feed", "T tiny", "T 0", "T -5"])
def test_a_setpoint_the_plant_cannot_hold_is_config_error(tmp_path, capsys,
                                                          row, head, tail):
    """A schedule setpoint whose steady state (c, T, steady_height(c, T))
    is not physical, the rule the operating point is held to, exits 2 with
    one line naming the entry and writes no file; before this check a
    nominal run at c = 1e200 ran 15 intervals and exited 4."""
    text, n = re.subn(r"^    - \[15, 0\.8805, 326\.0\]$", f"    - [15, {row}]",
                      (CONFIGS / "cstr_twovar.yaml").read_text(), flags=re.M)
    assert n == 1
    text, n = re.subn(r"^  dir: .*$", f"  dir: {tmp_path / 'out'}", text,
                      flags=re.M)
    assert n == 1
    cfg = tmp_path / "twovar.yaml"
    cfg.write_text(text)
    assert cli.main(["run", "--mode", "nominal", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario.schedule[1]: {head}"), err
    assert err.endswith(f"{tail}\n") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, head, tail", [
    ("1e200 325", "state (1e+200, 325.0, -4.", LEFT),
    ("-1 325", "state (-1.0, 325.0, -", LEFT),
    ("0.87 0", "T must be > 0, got 0.0", ""),
], ids=["c 1e200", "c -1", "T 0"])
def test_a_sweep_setpoint_the_plant_cannot_hold_is_config_error(
        tmp_path, monkeypatch, capsys, row, head, tail):
    """A row of the setpoints file is held to the schedule's setpoint
    rule: a row whose steady state is not physical exits 2 with one line
    naming the file and the row's line, before any interval, and writes
    no train file; before this check the c = 1e200 sweep ran 24 intervals,
    wrote the first row's sample and exited 4."""
    sp = tmp_path / "bad.txt"
    sp.write_text(f"# c T\n0.877 324.5\n\n{row}\n")
    monkeypatch.setattr(cl.ControlLoop, "control_step", None)
    assert cli.main(["sweep", str(CONFIGS / "cstr_twovar.yaml"),
                     "--setpoints", str(sp), "--out",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sp}: line 4: {head}"), err
    assert err.endswith(f"{tail}\n") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_a_learned_run_predicts_each_setpoint_once(tmp_path, predict_calls,
                                                   capsys):
    """run --mode both on cstr_twovar.yaml predicts its one map once per
    distinct schedule setpoint, in schedule order: run_scenario's
    check_map reads what the CLI's made. Each was predicted twice before
    the map kept its own predictions."""
    config = CONFIGS / "cstr_twovar.yaml"
    assert cli.main(["run", "--mode", "both", str(config), "--out",
                     str(tmp_path)]) == 0
    distinct = []
    for _, r in cli.load_config(str(config)).scenario.schedule:
        if r.tolist() not in distinct:
            distinct.append(r.tolist())
    assert len(distinct) == 11
    assert [r for _, r in predict_calls] == distinct
    assert len({id(model) for model, _ in predict_calls}) == 1


def test_a_harvesting_run_never_predicts_a_map_twice_at_a_setpoint(
        tmp_path, predict_calls, capsys):
    """The learned cstr_drift.yaml run harvests, and each harvest gives
    the loop a new map: no map is predicted twice at one setpoint."""
    assert cli.main(["run", "--mode", "learned",
                     str(CONFIGS / "cstr_drift.yaml"), "--out",
                     str(tmp_path)]) == 0
    assert "harvested 16 " in capsys.readouterr().out
    assert len({id(model) for model, _ in predict_calls}) == 17
    assert len({(id(model), tuple(r)) for model, r in predict_calls}) == \
        len(predict_calls)


def fails_naming(capsys, argv, path):
    """main(argv) exits 2 with one 'error:' line that names path, or, for
    a config PyYAML cannot read, one that PyYAML's 'in "<path>"' line
    follows, and no traceback."""
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    first, *rest = err.splitlines()
    assert first.startswith("error: ") and len(rest) <= 3, err
    assert str(path) in (first if not rest else rest[-1]), err


def learned_run_reading(tmp_path, train):
    """run --mode learned argv for the tracking config whose training file
    is train."""
    cfg = rewrite_config(tmp_path, "train_at.yaml", [
        (r"train: \S+\}", f"train: {train}}}")])
    return ["run", "--mode", "learned", cfg]


NOT_UTF8 = b"# inputs 2\n0.001 0.1 0.0 0.0\n0.002 0.1 \xe9 0.0\n"


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    """A byte that is not UTF-8 in a sample, training or setpoints file is
    its line's non-numeric field, whatever the locale; in a config it is a
    YAML error at its byte position."""
    bad = tmp_path / "latin.txt"
    bad.write_bytes(NOT_UTF8)
    for argv in (["grnn-fit", bad, "--out", tmp_path / "out"],
                 learned_run_reading(tmp_path, bad)):
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: line 3: non-numeric field\n"
    sp = tmp_path / "sp.txt"
    sp.write_bytes(b"# c T \xe9\n0.877 324.5\n0.878\xff 324.5\n")
    assert cli.main(["sweep", str(TRACKING), "--setpoints", str(sp)]) == 2
    assert capsys.readouterr().err == f"error: {sp}: line 3: non-numeric field\n"
    cfg = tmp_path / "latin.yaml"
    cfg.write_bytes(TRACKING.read_bytes().replace(b"# ", b"# \xe9", 1))
    fails_naming(capsys, ["check", cfg], cfg)


@pytest.fixture(params=["installed", "python"])
def yaml_loader(request, monkeypatch):
    """The loader load_config picks: libyaml's CSafeLoader where PyYAML has
    it, or, with CSafeLoader taken out of yaml as in a PyYAML built without
    libyaml, the pure-Python SafeLoader."""
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize("text", [
    b"model: [unclosed\n",
    b"a:\n\t- 1\n",
    TRACKING.read_bytes().replace(b"# ", b"# \xe9", 1),
], ids=["unclosed", "tab", "not utf-8"])
def test_yaml_errors_name_the_config_under_either_loader(
        tmp_path, capsys, yaml_loader, text):
    """A config neither loader can read exits 2 with one 'config is not
    valid YAML' line that PyYAML's 'in "<path>"' line follows; the two
    loaders word the error differently."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(text)
    fails_naming(capsys, ["check", cfg], cfg)


def test_load_config_parses_with_the_loader_available(monkeypatch,
                                                      yaml_loader):
    """load_config parses with CSafeLoader when PyYAML has it and with
    SafeLoader when not, and the two read every committed config alike."""
    used = []
    real = yaml.load

    def load(stream, Loader):
        used.append(Loader)
        return real(stream, Loader)

    monkeypatch.setattr(yaml, "load", load)
    for path in sorted(CONFIGS.glob("*.yaml")):
        cli.load_config(str(path))
        text = path.read_bytes()
        assert (real(text, Loader=yaml_loader)
                == real(text, Loader=yaml.SafeLoader)), path.name
    assert used == [yaml_loader] * 4


@pytest.mark.parametrize("command", ["check", "sweep", "run"])
def test_missing_config_names_the_file(tmp_path, capsys, command):
    cfg = tmp_path / "nope.yaml"
    argv = [command, cfg] + (["--setpoints", cfg] if command == "sweep" else [])
    fails_naming(capsys, argv, cfg)


def test_missing_or_directory_input_file_names_it(tmp_path, capsys):
    """A setpoints, sample or training file that is missing or is a
    directory exits 2 naming it."""
    for path in (tmp_path / "nope.txt", tmp_path):
        fails_naming(capsys, ["sweep", TRACKING, "--setpoints", path], path)
        fails_naming(capsys, ["grnn-fit", path, "--out", tmp_path / "out"],
                     path)
        fails_naming(capsys, learned_run_reading(tmp_path, path), path)


def test_output_that_cannot_be_written_names_it(tmp_path, capsys,
                                                monkeypatch):
    """An --out that names a regular file where a directory is wanted, or a
    directory where a file is wanted, exits 2 naming it, before any
    control interval or leave-one-out sweep has run."""
    taken = tmp_path / "taken"
    taken.write_text("")
    sp = tmp_path / "one.txt"
    sp.write_text("0.878 324.5\n")
    calls = []
    for owner, name in ((cl.ControlLoop, "control_step"),
                        (grnn, "loo_error")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    for argv in (["grnn-fit", ROOT / "out" / "sweep_c_50_train.txt"],
                 ["sweep", TRACKING, "--setpoints", sp],
                 ["run", TRACKING, "--mode", "nominal"]):
        fails_naming(capsys, argv + ["--out", taken], taken)
    assert calls == []
    fails_naming(capsys, ["sample-setpoints", TRACKING, "-n", "2",
                          "--out", tmp_path], tmp_path)
    assert taken.read_text() == ""


SETPOINT_FILES = [CONFIGS / name for name in
                  ("sweep_c_50.txt", "sweep_ct_100.txt", "sweep_ct_400.txt")]


def test_setpoints_read_as_numpy_loadtxt_reads_them(tmp_path, capsys):
    """The setpoint reader gives the floats np.loadtxt, its former
    implementation, gives on the committed setpoint files and on a fresh
    sample-setpoints file."""
    fresh = tmp_path / "fresh.txt"
    assert cli.main(["sample-setpoints", str(TRACKING), "-n", "5", "--seed",
                     "3", "--out", str(fresh)]) == 0
    rc = cli.load_config(str(TRACKING))
    op = rc.op
    for path in SETPOINT_FILES + [fresh]:
        want = np.loadtxt(path, comments="#", ndmin=2)
        got = cli._load_setpoints(str(path), op, rc.params)
        assert np.array_equal(np.array(got) + op.x_ss[:2], want)
        assert got == [(c - op.x_ss[0], T - op.x_ss[1]) for c, T in want]


@pytest.mark.parametrize("comment", ["# inputs 1", "# inputs", "# inputs x",
                                     "0.877 324.5 # inputs 5"])
def test_setpoint_comment_is_free_text(tmp_path, capsys, comment):
    """A setpoint comment that starts with 'inputs' is not the sample
    files' '# inputs k' directive."""
    sp = tmp_path / "sp.txt"
    sp.write_text(f"{comment}\n0.878 324.5\n")
    want = np.loadtxt(sp, comments="#", ndmin=2)
    rc = cli.load_config(str(TRACKING))
    op = rc.op
    got = cli._load_setpoints(str(sp), op, rc.params)
    assert got == [(c - op.x_ss[0], T - op.x_ss[1]) for c, T in want]


REQUIRED_SECTIONS = ("operating_point", "model", "disturbance", "estimator",
                     "ocp", "plant", "scenario")


@pytest.mark.parametrize("name", REQUIRED_SECTIONS)
def test_missing_section_is_config_error(tmp_path, capsys, name):
    cfg = yaml.safe_load(TRACKING.read_text())
    del cfg[name]
    p = tmp_path / "missing.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert cli.main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"error: missing required field {name}\n"


def test_grnn_fit_fixed_sigma_writes_the_selection_curve(tmp_path, capsys):
    """The _loo.txt curve of a fixed --sigma is the auto selection's sweep."""
    train = ROOT / "out" / "sweep_c_50_train.txt"
    for sigma in ("0.05", "auto"):
        assert cli.main(["grnn-fit", str(train), "--sigma", sigma,
                         "--out", str(tmp_path / sigma)]) == 0
    assert ((tmp_path / "0.05" / "sweep_c_50_train_loo.txt").read_bytes()
            == (tmp_path / "auto" / "sweep_c_50_train_loo.txt").read_bytes())


def test_run_and_sweep_build_the_gains_once(tmp_path, monkeypatch, capsys):
    """The checks hand their gains to the command instead of building them
    a second time."""
    built = []
    real = model.EstimatorGains

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "EstimatorGains", counting)
    cfg = rewrite_config(tmp_path, "once.yaml", [
        (r"^  duration: .*$", "  duration: 3"),
        (r"^  schedule:\n(?:    - .*\n)+", "  schedule:\n    - [0, 0.878, 324.5]\n"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 0
    assert len(built) == 1
    sp = tmp_path / "one.txt"
    sp.write_text("0.878 324.5\n")
    assert cli.main(["sweep", str(cfg), "--setpoints", str(sp)]) == 0
    assert len(built) == 2


def test_abort_reason_prints_plain_floats(tmp_path, capsys):
    """A rate constant 17 times the nominal one runs the reactor away within
    the first interval; the summary names the state in plain numbers."""
    cfg = rewrite_config(tmp_path, "runaway.yaml", [
        (r"^  k0: .*$", "  k0: 1.2e12"),
        (r"^  duration: .*$", "  duration: 3"),
        (r"^  schedule:\n(?:    - .*\n)+", "  schedule:\n    - [0, 0.878, 324.5]\n"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 4
    summary = (tmp_path / "out" / "runaway_nominal_summary.txt").read_text()
    aborted = [ln for ln in summary.splitlines() if ln.startswith("aborted")]
    assert len(aborted) == 1
    assert "np.float64" not in aborted[0]
    number = r"-?\d[\d.e+-]*"
    assert re.fullmatch(rf"aborted time 0 reason state \(({number}, ){{2}}"
                        rf"{number}\) left the physical region", aborted[0])


def test_overflowing_samples_are_input_error(tmp_path, capsys):
    """Inputs near the float limit overflow the window's standardization:
    exit 2 with one error line, no traceback and no model file."""
    train = tmp_path / "huge.txt"
    train.write_text("# inputs 1\n1e308 0 0\n-1e308 0 0\n1.7e308 0 0\n")
    out = tmp_path / "fit"
    assert cli.main(["grnn-fit", str(train), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err
    assert not (out / "huge_model.txt").exists()
    cfg = rewrite_config(tmp_path, "huge_train.yaml", [
        (r"train: \S+\}", f"train: {train}}}")])
    assert cli.main(["run", "--mode", "learned", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_output_dir_resolves_against_config_dir(tmp_path, monkeypatch,
                                                capsys):
    """A relative output.dir is read from the config's directory, whatever
    the working directory; --out stays relative to the working directory."""
    text = TRACKING.read_text()
    text = re.sub(r"^  duration: .*$", "  duration: 3", text, flags=re.M)
    text = re.sub(r"^  schedule:\n(?:    - .*\n)+",
                  "  schedule:\n    - [0, 0.878, 324.5]\n", text, flags=re.M)
    text = re.sub(r"^  dir: .*$", "  dir: ../results", text, flags=re.M)
    (tmp_path / "configs").mkdir()
    cfg = tmp_path / "configs" / "rel.yaml"
    cfg.write_text(text)
    # one level deeper than the config, so that ../results differs
    elsewhere = tmp_path / "work" / "elsewhere"
    elsewhere.mkdir(parents=True)
    monkeypatch.chdir(elsewhere)
    assert cli.main(["check", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 0
    assert (tmp_path / "results" / "rel_nominal.csv").exists()
    assert cli.main(["run", str(cfg), "--mode", "nominal",
                     "--out", "flagged"]) == 0
    assert (elsewhere / "flagged" / "rel_nominal.csv").exists()
    assert not (tmp_path / "work" / "results").exists()


# an event whose parameters are out of range exits 2 from load_config,
# before any interval runs; the bad event is listed second but applies
# first, so the message names its own index
BAD_EVENTS = {"k0: -1": "k0 must be > 0",
              "substeps: 0": "substeps must be >= 1",
              "dH: 5": "dH must be < 0"}


@pytest.mark.parametrize("case", sorted(BAD_EVENTS))
def test_bad_event_is_config_error(tmp_path, capsys, case):
    cfg = rewrite_config(tmp_path, "event.yaml", [
        (r"^  harvest: false$",
         "  harvest: false\n  events:\n    - {time: 50, set: {U: 50.0}}\n"
         f"    - {{time: 20, set: {{{case}}}}}")])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: scenario.events[1]: "), err
    assert BAD_EVENTS[case] in err and "Traceback" not in err
    assert not (tmp_path / "out" / "event_nominal.csv").exists()


# an integer field with a fractional part exits 2 instead of truncating
FRACTIONAL = {"plant.substeps": (r"^  substeps: 20$", "  substeps: 2.5"),
              "scenario.events[0].set.substeps": (
                  r"^  harvest: false$", "  harvest: false\n  events:\n"
                  "    - {time: 20, set: {substeps: 2.5}}"),
              "sweep.cap": (r"cap: 200", "cap: 2.5"),
              "scenario.steady.M": (r"\{M: 5,", "{M: 5.5,"),
              "scenario.grnn.capacity": (r"capacity: 50", "capacity: 50.5"),
              "ocp.N": (r"^  N: 10$", "  N: 10.5")}


@pytest.mark.parametrize("field", sorted(FRACTIONAL))
def test_fractional_integer_field_is_config_error(tmp_path, capsys, field):
    cfg = rewrite_config(tmp_path, "frac.yaml", [FRACTIONAL[field]])
    assert cli.main(["check", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {field}: not an integer"), err


def test_integral_float_is_accepted_as_an_integer(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "whole.yaml", [
        (r"^  substeps: 20$", "  substeps: 20.0"),
        (r"cap: 200", "cap: 200.0"),
        (r"\{M: 5,", "{M: 5.0,"),
        (r"capacity: 50", "capacity: 50.0"),
        (r"^  N: 10$", "  N: 10.0")])
    rc = cli.load_config(str(cfg))
    ref = cli.load_config(str(TRACKING))
    for got, want in ((rc.params.substeps, ref.params.substeps),
                      (rc.sweep_cap, ref.sweep_cap),
                      (rc.scenario.steady.M, ref.scenario.steady.M),
                      (rc.scenario.grnn_capacity, ref.scenario.grnn_capacity),
                      (rc.ocp_cfg.N, ref.ocp_cfg.N)):
        assert type(got) is int and got == want
    assert cli.main(["check", str(cfg)]) == 0


# the tracking run has 120 intervals of 1 minute: events fire at the
# interval starts 0 to 119, and one outside them exits 2 from load_config
@pytest.mark.parametrize("time", ["5000", "-3", "119.5"])
def test_event_outside_the_run_is_config_error(tmp_path, capsys, time):
    cfg = rewrite_config(tmp_path, "late.yaml", [
        (r"^  harvest: false$",
         "  harvest: false\n  events:\n    - {time: 50, set: {U: 50.0}}\n"
         f"    - {{time: {time}, set: {{U: 40.0}}}}")])
    assert cli.main(["run", str(cfg), "--mode", "nominal"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: scenario.events[1].time: "), err
    assert "outside the run" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "late_nominal.csv").exists()


# check and run_scenario share one pre-flight: for each fault, check
# prints "error: " and the very text that run_scenario raises on the
# config's scenario and plant; each case is (pattern, line) for the
# tracking config
PREFLIGHT = {
    "k0: -1": (r"^  harvest: false$", "  harvest: false\n  events:\n"
               "    - {time: 50, set: {U: 50.0}}\n"
               "    - {time: 20, set: {k0: -1}}"),
    "substeps: 0": (r"^  harvest: false$", "  harvest: false\n  events:\n"
                    "    - {time: 20, set: {substeps: 0}}"),
    "late event": (r"^  harvest: false$", "  harvest: false\n  events:\n"
                   "    - {time: 120, set: {U: 40.0}}"),
    "dt: 1.0e-310": (r"^dt: .*$", "dt: 1.0e-310"),
}


@pytest.mark.parametrize("case", sorted(PREFLIGHT))
def test_check_prints_what_run_scenario_raises(tmp_path, monkeypatch, capsys,
                                               case):
    cfg = rewrite_config(tmp_path, "preflight.yaml", [PREFLIGHT[case]])
    assert cli.main(["check", str(cfg)]) == 2
    err = capsys.readouterr().err
    # the same config, loaded without its pre-flight
    with monkeypatch.context() as patched:
        patched.setattr(cl, "check_scenario", lambda scenario, plant: 0)
        rc = cli.load_config(str(cfg))
    plant = cli._fresh_plant(rc)
    plant.step = None                # an interval would call it
    with pytest.raises(ValueError) as raised:
        cl.run_scenario(rc.scenario, rc.model, rc.dist, rc.make_gains(),
                        rc.ocp_cfg, plant)
    assert err == f"error: {raised.value}\n"


def test_event_at_the_last_interval_start_is_applied(tmp_path, capsys):
    cfg = rewrite_config(tmp_path, "last.yaml", [
        (r"^  harvest: false$",
         "  harvest: false\n  events:\n    - {time: 119, set: {U: 40.0}}")])
    rc = cli.load_config(str(cfg))
    scenario = dataclasses.replace(rc.scenario,
                                   mode=cl.ControllerMode.NOMINAL)
    log = cl.run_scenario(scenario, rc.model, rc.dist, rc.make_gains(),
                          rc.ocp_cfg, cli._fresh_plant(rc))
    assert len(log.records) == 120
    assert log.events_applied == [(119.0, {"U": 40.0})]


# a boolean field takes a YAML boolean only: the string "false" would be
# true under bool(); each case is (key path, value)
NOT_BOOLEAN = {
    "scenario.harvest": (("scenario", "harvest"), "false"),
    "scenario.harvest: 1": (("scenario", "harvest"), 1),
}


@pytest.mark.parametrize("case", sorted(NOT_BOOLEAN))
def test_non_boolean_flag_is_config_error(tmp_path, capsys, case):
    keys, value = NOT_BOOLEAN[case]
    assert cli.main(["check", str(dumped_config(tmp_path, keys, value))]) == 2
    err = capsys.readouterr().err
    field = case.split(":")[0]
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {field}: not a boolean"), err


def test_yaml_booleans_are_accepted(tmp_path):
    cfg = yaml.safe_load(TRACKING.read_text())
    cfg["scenario"]["harvest"] = True
    p = tmp_path / "flags.yaml"
    p.write_text(yaml.safe_dump(cfg))
    rc = cli.load_config(str(p))
    assert rc.scenario.harvest is True


# a key that no section reads exits 2 naming its path, one case per
# section (plant parameters below). Each case is (key path, value)
UNKNOWN_KEYS = {
    "sweeep": (("sweeep",), {"cap": 5}),
    "operating_point.TT": (("operating_point", "TT"), 300.0),
    "model.D": (("model", "D"), [[0, 0]]),
    "disturbance.Bdd": (("disturbance", "Bdd"), [[0, 0]]),
    "estimator.L": (("estimator", "L"), [[0]]),
    "ocp.n": (("ocp", "n"), 10),
    "scenario.stedy": (("scenario", "stedy"), {"M": 9}),
    "scenario.steady.m": (("scenario", "steady", "m"), 9),
    "scenario.grnn.sigm": (("scenario", "grnn", "sigm"), 0.1),
    "scenario.events[0].sett": (
        ("scenario", "events"),
        [{"time": 10, "set": {"U": 50.0}, "sett": {"U": 40.0}}]),
    "sweep.capp": (("sweep", "capp"), 5),
    "output.dirr": (("output", "dirr"), "elsewhere"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_key_is_config_error(tmp_path, capsys, case):
    keys, value = UNKNOWN_KEYS[case]
    assert cli.main(["check", str(dumped_config(tmp_path, keys, value))]) == 2
    assert capsys.readouterr().err == f"error: {case}: unknown key\n"


# a plant parameter that CstrParams does not have, in the plant section or
# in an event, exits 2 naming its path before its value is read, so a
# boolean and a number give one message; the event is listed second
UNKNOWN_PLANT_KEYS = {
    "plant.foo": ("plant", "foo"),
    "scenario.events[1].set.foo": ("scenario", "events"),
}


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
@pytest.mark.parametrize("case", sorted(UNKNOWN_PLANT_KEYS))
def test_unknown_plant_key_is_config_error(tmp_path, capsys, case, value):
    keys = UNKNOWN_PLANT_KEYS[case]
    if keys[0] == "scenario":
        value = [{"time": 50, "set": {"U": 50.0}},
                 {"time": 20, "set": {"foo": value}}]
    assert cli.main(["check", str(dumped_config(tmp_path, keys, value))]) == 2
    assert capsys.readouterr().err == f"error: {case}: unknown key\n"


def test_dumped_reference_config_loads(tmp_path):
    """A yaml.safe_dump of a reference config with a longer schedule, as
    the benchmark writes it, has no key the loader does not read."""
    cfg = yaml.safe_load((ROOT / "configs" / "cstr_twovar_400.yaml")
                         .read_text())
    base = cfg["scenario"]["schedule"]
    cfg["scenario"]["schedule"] = base + [[t + 180] + sp
                                          for t, *sp in base]
    cfg["scenario"]["duration"] = 360
    cfg["scenario"]["grnn"]["train"] = str(ROOT / "out"
                                           / "sweep_ct_400_train.txt")
    p = tmp_path / "cstr_twovar_400.yaml"
    p.write_text(yaml.safe_dump(cfg))
    assert cli.load_config(str(p)).scenario.duration == 360.0


def test_run_computes_the_metrics_once_per_mode(tmp_path, monkeypatch,
                                                capsys):
    calls = []
    real = cl.metrics

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cl, "metrics", counted)
    cfg = rewrite_config(tmp_path, "once.yaml", [
        (r"^  duration: .*$", "  duration: 20"),
        (r"^  schedule:\n(?:    - .*\n)+",
         "  schedule:\n    - [0, 0.878, 324.5]\n    - [10, 0.88, 324.5]\n"),
    ])
    assert cli.main(["run", str(cfg), "--mode", "both"]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["nominal", "learned"]
    assert all("20 steps, 2 segments, total ISE " in line for line in out)
