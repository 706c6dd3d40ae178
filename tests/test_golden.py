"""Golden trajectories: the committed runs in out/ must reproduce.

Each case reruns one committed scenario through the command line into a
temporary directory and compares every CSV field and every numeric summary
field with the committed file at |got - ref| <= TOL * max(1, |ref|); other
fields must match exactly. Reruns on one machine are byte-identical; on
another BLAS build the last digits move (by up to ~1e-12), which TOL
absorbs while any change to the control arithmetic shows. The plant's
Arrhenius factor comes from math.exp, which differs from numpy's exp
before it in the last bit for about 4.6% of temperatures. On one machine
that moved a rerun, relative to max(1, |value|), by at most (CSV /
summary): cstr_drift_learned 2.3e-13 / 2.8e-13, cstr_tracking_learned
2.8e-13 / 1.7e-13, cstr_tracking_nominal 3.4e-13 / 1.7e-13,
cstr_twovar_400_learned 2.2e-13 / 1.9e-13, cstr_twovar_learned 0 / 0,
cstr_twovar_nominal 2.8e-13 / 1.4e-13, and sweep_ct_100_train.txt
1.3e-13, with every active_set_size, steady and harvested value and every
sweep harvest interval unchanged. Such a rerun differs from out/ by at
most 5.9e-13 (cstr_drift_learned.csv).
"""

import pathlib

import pytest

from offsetmpc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOL = 1e-9

# (config stem, --mode flag or None for the configured learned mode)
RUNS = [("cstr_tracking", "both"), ("cstr_drift", None),
        ("cstr_twovar", "both"), ("cstr_twovar_400", None)]


def fields(path):
    sep = "," if path.suffix == ".csv" else None
    return [line.split(sep) for line in path.read_text().splitlines()]


def worst_deviation(got_path, ref_path):
    got, ref = fields(got_path), fields(ref_path)
    assert len(got) == len(ref), f"{ref_path.name}: line count"
    worst = 0.0
    for n, (g_row, r_row) in enumerate(zip(got, ref), 1):
        assert len(g_row) == len(r_row), f"{ref_path.name}:{n}: field count"
        for g, r in zip(g_row, r_row):
            try:
                g_val, r_val = float(g), float(r)
            except ValueError:
                assert g == r, f"{ref_path.name}:{n}: {g!r} != {r!r}"
                continue
            worst = max(worst, abs(g_val - r_val) / max(1.0, abs(r_val)))
    return worst


@pytest.mark.parametrize("stem, mode", RUNS,
                         ids=[f"{s}-{m or 'learned'}" for s, m in RUNS])
def test_committed_run_reproduces(tmp_path, capsys, stem, mode):
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


def test_committed_sweep_reproduces(tmp_path, capsys):
    """The 100-setpoint twovar sweep: ~4.4k intervals, 221 of them with an
    active row. The active-set table solves 214 of those (206 on one
    10-row working set); condense and solve_qp run cold on the other 7,
    4 of them through phase 1. So the sweep mostly exercises table hits;
    phase 1 and the Schur working-set solves are covered directly by
    test_ocp.py's test_solver_matches_dense_kkt_reference and
    test_blocker_sequence_matches_reference."""
    argv = ["sweep", "--setpoints", str(ROOT / "configs" / "sweep_ct_100.txt"),
            str(ROOT / "configs" / "cstr_twovar.yaml"), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    name = "sweep_ct_100_train.txt"
    worst = worst_deviation(tmp_path / name, ROOT / "out" / name)
    assert worst <= TOL, f"{name}: deviation {worst:.3e} > {TOL:.0e}"
