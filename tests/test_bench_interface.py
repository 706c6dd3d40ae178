"""The benchmark in perfbench/ patches and reads program names from outside
the program. A rename must fail the test suite, not only a benchmark run.
This reads perfbench/ and writes nothing there."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from offsetmpc import cli, grnn, ocp
from offsetmpc import closed_loop as cl

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's tracer and run modules, imported without bytecode files."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    mods = {}
    for name in ("tracer", "run"):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        mods[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mods[name])
    return mods


def resolve(target):
    """offsetmpc.<module>:<attribute path>, as perfbench's tracer.patch
    reads it."""
    mod_name, attr_path = target.split(":")
    obj = importlib.import_module("offsetmpc." + mod_name)
    for name in attr_path.split("."):
        obj = getattr(obj, name)
    return obj


def test_traced_targets_resolve(bench):
    for name, target in bench["tracer"].TRACED.items():
        assert callable(resolve(target)), name


def test_workload_hooks_resolve(bench, tmp_path):
    for name, workload in bench["run"].WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        plan = workload(0, str(work), True)
        assert callable(resolve(plan["start"])), name
        assert callable(resolve(plan["op"])), name


def test_names_the_benchmark_reads(committed):
    m, dist, gains, cfg = committed
    assert "warm_start" in inspect.signature(ocp.solve_qp).parameters
    assert isinstance(ocp.TOL_FEAS, float)
    assert issubclass(cl.CrossCheckFailed, Exception)
    for cls, names in ((ocp.CondensedQp, {"H_j", "A_in", "b_in"}),
                       (ocp.QpSolution, {"iterations", "active_set"}),
                       (cl.HarvestSample, {"residual"})):
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls
    loop = cl.ControlLoop(m, dist, gains, cfg,
                          cl.LinearPlant(m, dist, d_star=np.zeros(2)),
                          cl.ControllerMode.NOMINAL)
    for attr in ("k", "harvested", "rejected_harvests"):
        assert hasattr(loop, attr), attr


def test_grnn_fit_enters_through_select_sigma_and_sweeps_once(
        monkeypatch, tmp_path, capsys):
    """grnn_fit_400 starts its timed loop at grnn.select_sigma and times each
    grnn.loo_error call: `grnn-fit --sigma auto` must call select_sigma
    before any loo_error, and loo_error once per grid point (the _loo.txt
    curve reuses the selection's sweep)."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("select_sigma", "loo_error"):
        monkeypatch.setattr(grnn, name, counted(name, getattr(grnn, name)))
    rng = np.random.default_rng(5)
    samples = tmp_path / "small.txt"
    grnn.write_samples(str(samples), [(rng.normal(size=2), rng.normal(size=2))
                                      for _ in range(12)])
    assert cli.main(["grnn-fit", str(samples), "--sigma", "auto",
                     "--out", str(tmp_path / "out")]) == 0
    assert calls[0] == "select_sigma"
    assert calls.count("select_sigma") == 1
    assert calls.count("loo_error") == len(grnn.SIGMA_GRID)
    curve = (tmp_path / "out" / "small_loo.txt").read_text().splitlines()
    assert len(curve) == 1 + len(grnn.SIGMA_GRID)
