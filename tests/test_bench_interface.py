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

from offsetmpc import closed_loop as cl
from offsetmpc import ocp

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
