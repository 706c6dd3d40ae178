"""Golden trajectories: the committed runs in out/ must reproduce.

Each case reruns one committed scenario through the command line into a
temporary directory and compares every CSV field and every numeric summary
field with the committed file at |got - ref| <= TOL * max(1, |ref|); other
fields must match exactly. Reruns on one machine are byte-identical; on
another BLAS build the last digits move (by up to ~1e-12), which TOL
absorbs while any change to the control arithmetic shows. The linear
algebra is numpy only: LU, forward and back substitution written out, so
its rounding differs from the LAPACK kernels it replaced. On one machine
that moved a rerun from the LAPACK form's, relative to max(1, |value|),
by at most (CSV / summary): cstr_drift_learned 4.0e-13 / 3.5e-13,
cstr_tracking_learned 2.3e-13 / 1.7e-13, cstr_tracking_nominal 3.1e-13 /
1.7e-13, cstr_twovar_400_learned 2.0e-13 / 2.8e-13, cstr_twovar_learned
2.3e-13 / 2.5e-13, cstr_twovar_nominal 2.5e-13 / 3.2e-13, and
sweep_ct_100_train.txt 1.4e-13, with every active_set_size, steady and harvested value and every
sweep harvest interval unchanged. Solving a table miss from the affine
law's product instead of condense and solve_qp then moved a rerun, on
one machine, by at most (CSV / summary): cstr_twovar_400_learned 1.6e-15
/ 0, cstr_twovar_learned 2.8e-13 / 1.7e-13, cstr_twovar_nominal 3.0e-13
/ 3.3e-13, and sweep_ct_100_train.txt 8.5e-14; the tracking and drift
outputs stayed byte-identical, and every active_set_size, steady and
harvested value and every sweep harvest interval stayed unchanged. Such
a rerun differs from out/ by at most 5.3e-13 (cstr_drift_learned.csv).
The compiled plant step left every rerun byte-identical. The compiled
free-path interval sums its products left to right where numpy's BLAS
sums them in another order: on one machine that moved a rerun by at most
(CSV / summary) cstr_drift_learned 5.7e-13 / 5.7e-13, cstr_drift_nominal
6.8e-13 / 4.0e-13, cstr_tracking_learned 3.2e-13 / 1.7e-13,
cstr_tracking_nominal 1.7e-13 / 1.1e-13, cstr_twovar_400_learned
3.2e-13 / 2.9e-13, cstr_twovar_learned 2.3e-13 / 2.6e-13,
cstr_twovar_nominal 3.9e-13 / 5.4e-13, and sweep_ct_100_train.txt
8.7e-14, with every active_set_size, steady and harvested value, every
sweep harvest interval and the sweep's table hits, misses and phase-1
runs unchanged; such a rerun differs from out/ by at most 5.8e-13
(cstr_drift_learned.csv). Each case also runs with every compiled kernel
switched off, through the Python forms they reproduce, which run
wherever the kernels cannot be built. Those forms now sum each product
left to right as the compiled kernels do, so those reruns are
byte-identical to the reruns with the kernels on, which
test_the_kernels_on_and_off_write_the_same_bytes checks. On one
machine that moved them from the reruns with BLAS-ordered sums by at
most (CSV / summary): cstr_drift_learned 5.7e-13 / 5.7e-13, cstr_drift_nominal
6.8e-13 / 4.0e-13, cstr_tracking_learned 3.2e-13 / 1.7e-13,
cstr_tracking_nominal 1.7e-13 / 1.1e-13, cstr_twovar_400_learned
3.2e-13 / 2.9e-13, cstr_twovar_400_nominal 3.9e-13 / 5.4e-13,
cstr_twovar_learned 2.3e-13 / 2.6e-13, cstr_twovar_nominal 3.9e-13 /
5.4e-13, and sweep_ct_100_train.txt 8.7e-14, with every
active_set_size, steady and harvested value and every sweep harvest
interval unchanged.
"""

import filecmp
import pathlib

import pytest

from offsetmpc import cli, kernels, ocp
from offsetmpc import closed_loop as cl

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOL = 1e-9

# (config stem, --mode flag or None for the configured learned mode)
RUNS = [("cstr_tracking", "both"), ("cstr_drift", None),
        ("cstr_twovar", "both"), ("cstr_twovar_400", None)]
RUN_IDS = [f"{s}-{m or 'learned'}" for s, m in RUNS]


def fields(path):
    sep = "," if path.suffix == ".csv" else None
    return [line.split(sep) for line in path.read_text().splitlines()]


def worst_deviation(got_path, ref_path):
    got, ref = fields(got_path), fields(ref_path)
    assert len(got) == len(ref), f"{ref_path.name}: line count"
    return max((row_deviation(g_row, r_row, f"{ref_path.name}:{n}")
                for n, (g_row, r_row) in enumerate(zip(got, ref), 1)),
               default=0.0)


def row_deviation(got, ref, where):
    """The largest |g - r| / max(1, |r|) over the numeric fields of one
    row; the other fields must be equal."""
    assert len(got) == len(ref), f"{where}: field count"
    worst = 0.0
    for g, r in zip(got, ref):
        try:
            g_val, r_val = float(g), float(r)
        except ValueError:
            assert g == r, f"{where}: {g!r} != {r!r}"
            continue
        worst = max(worst, abs(g_val - r_val) / max(1.0, abs(r_val)))
    return worst


@pytest.mark.parametrize("stem, mode", RUNS, ids=RUN_IDS)
def test_committed_run_reproduces(tmp_path, capsys, stem, mode):
    check_run(tmp_path, stem, mode)


@pytest.mark.parametrize("stem, mode", RUNS, ids=RUN_IDS)
def test_committed_run_reproduces_with_the_python_loop(
        tmp_path, capsys, python_kernels, stem, mode):
    """The fallback plant step and interval, with every compiled kernel
    switched off."""
    check_run(tmp_path, stem, mode)


def check_run(tmp_path, stem, mode):
    argv = ["run", str(ROOT / "configs" / f"{stem}.yaml"),
            "--out", str(tmp_path)]
    if mode:
        argv += ["--mode", mode]
    assert cli.main(argv) == 0
    modes = ["nominal", "learned"] if mode == "both" else ["learned"]
    for m in modes:
        for suffix in (".csv", "_summary.txt"):
            name = f"{stem}_{m}{suffix}"
            worst = worst_deviation(tmp_path / name, ROOT / "out" / name)
            assert worst <= TOL, f"{name}: deviation {worst:.3e} > {TOL:.0e}"


def test_committed_sweep_reproduces(tmp_path, capsys, monkeypatch):
    """The 100-setpoint twovar sweep: ~4.4k intervals, 221 of them with an
    active row. The active-set table reads 214 of those from its entries
    (206 on one 10-row working set) and solves the other 7 itself from a
    cold start, 4 of them through phase 1. So the sweep mostly exercises
    table hits; phase 1 and the Schur working-set solves are covered
    directly by test_ocp.py's test_solver_matches_dense_kkt_reference,
    test_blocker_sequence_matches_reference and
    test_table_misses_match_cold_solve_qp."""
    check_sweep(tmp_path, monkeypatch)


def test_committed_sweep_reproduces_with_the_python_loop(tmp_path, capsys,
                                                         monkeypatch,
                                                         python_kernels):
    check_sweep(tmp_path, monkeypatch)


# the first and the last of the sweep's 207 targets outside the box, as
# TargetPair.text() writes them
SWEEP_EXCURSIONS = (
    "u_bar -5.1048157881001028 0 x_bar 0.02768389008052291 "
    "0.80717103901793053 -0.15212628595864078",
    "u_bar -5.3515330296519723 0 x_bar 0.030627632561641187 "
    "0.62418135285014387 -0.16831696848444611")


def check_sweep(tmp_path, monkeypatch):
    """The sweep's samples; its table hits, misses and phase-1 runs and
    its count of targets outside the box, which are exact; and the first
    and the last of those targets."""
    logs, phase1 = [], []
    sweep_harvest, _phase1 = cl.sweep_harvest, ocp._phase1

    def sweep_logged(*args, **kwargs):
        samples, log = sweep_harvest(*args, **kwargs)
        logs.append(log)
        return samples, log

    def phase1_counted(*args):
        phase1.append(1)
        return _phase1(*args)

    monkeypatch.setattr(cl, "sweep_harvest", sweep_logged)
    monkeypatch.setattr(ocp, "_phase1", phase1_counted)
    argv = ["sweep", "--setpoints", str(ROOT / "configs" / "sweep_ct_100.txt"),
            str(ROOT / "configs" / "cstr_twovar.yaml"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (log,) = logs
    assert (log.table.hits, log.table.misses, len(phase1)) == (214, 7, 4)
    exc = log.excursions
    assert (exc.count, len(log.records)) == (207, 4366)
    for pair, ref in zip((exc.first, exc.last), SWEEP_EXCURSIONS):
        worst = row_deviation(pair.text().split(), ref.split(), "excursion")
        assert worst <= TOL, f"{pair.text()}: deviation {worst:.3e}"
    name = "sweep_ct_100_train.txt"
    worst = worst_deviation(tmp_path / name, ROOT / "out" / name)
    assert worst <= TOL, f"{name}: deviation {worst:.3e} > {TOL:.0e}"


def test_the_kernels_on_and_off_write_the_same_bytes(tmp_path, capsys,
                                                    monkeypatch,
                                                    compiled_kernels):
    """Each Python form gives its compiled kernel's floats, so no output
    depends on whether the kernels could be built: the drift run in both
    modes (events, harvests and the learned map) and the 100-setpoint
    twovar sweep (table hits and misses) write the same bytes either
    way."""
    dirs = {}
    for name, active in (("on", compiled_kernels),
                         ("off", kernels.PYTHON_KERNELS)):
        monkeypatch.setattr(kernels, "active", active)
        out = dirs[name] = tmp_path / name
        assert cli.main(["run", str(ROOT / "configs" / "cstr_drift.yaml"),
                         "--mode", "both", "--out", str(out)]) == 0
        assert cli.main(["sweep", "--setpoints",
                         str(ROOT / "configs" / "sweep_ct_100.txt"),
                         str(ROOT / "configs" / "cstr_twovar.yaml"),
                         "--out", str(out)]) == 0
    names = sorted(p.name for p in dirs["on"].iterdir())
    assert names == sorted(p.name for p in dirs["off"].iterdir())
    assert len(names) == 5
    for name in names:
        assert filecmp.cmp(dirs["on"] / name, dirs["off"] / name,
                           shallow=False), name
