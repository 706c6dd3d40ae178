import pathlib

import numpy as np
import pytest

from offsetmpc import cli, grnn, kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@pytest.fixture(scope="session")
def compiled_kernels():
    """The compiled kernels' module, built on first use: advance, the plant
    step that plant.step and NonlinearPlant.step run, and interval and
    record, which ControlLoop.control_step runs. Kernels that did not load
    fail the test, never skip it: the message gives the reason and the
    command that builds them."""
    active = kernels.active or kernels.load()
    if active is kernels.PYTHON_KERNELS:
        command = " ".join(kernels.kernel_command(kernels.kernel_path()))
        pytest.fail(f"the compiled kernels did not load "
                    f"({kernels.fallback_reason}); build them with: {command}")
    return active


@pytest.fixture
def python_kernels(monkeypatch):
    """Every compiled kernel switched off: plant.step and
    ControlLoop.control_step run the Python forms, as they do wherever the
    kernels cannot be built."""
    monkeypatch.setattr(kernels, "active", kernels.PYTHON_KERNELS)


@pytest.fixture(params=["compiled", "python"])
def either_interval(request, compiled_kernels, monkeypatch):
    """ControlLoop.control_step through the compiled kernels, or through
    kernels.PYTHON_KERNELS, which the compiled ones reproduce bit for
    bit."""
    monkeypatch.setattr(kernels, "active", compiled_kernels
                        if request.param == "compiled"
                        else kernels.PYTHON_KERNELS)
    return request.param


@pytest.fixture
def predict_calls(monkeypatch):
    """The (map, setpoint as a list) of each grnn.predict call; the list
    holds the maps, so no two of them share an id."""
    calls = []
    predict = grnn.predict

    def counted(model, r):
        calls.append((model, np.asarray(r, dtype=float).tolist()))
        return predict(model, r)

    monkeypatch.setattr(grnn, "predict", counted)
    return calls


@pytest.fixture(scope="session")
def tracking_rc():
    return cli.load_config(str(CONFIGS / "cstr_tracking.yaml"))


@pytest.fixture(scope="session")
def drift_rc():
    return cli.load_config(str(CONFIGS / "cstr_drift.yaml"))


@pytest.fixture(scope="session")
def twovar_rc():
    return cli.load_config(str(CONFIGS / "cstr_twovar.yaml"))


@pytest.fixture(scope="session")
def twovar400_rc():
    return cli.load_config(str(CONFIGS / "cstr_twovar_400.yaml"))


@pytest.fixture(scope="session")
def committed(tracking_rc):
    """(model, dist, gains, ocp_cfg) for the committed CSTR design."""
    rc = tracking_rc
    return rc.model, rc.dist, rc.make_gains(), rc.ocp_cfg


def load_setpoint_file(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(np.array([float(t) for t in line.split()]))
    return rows
