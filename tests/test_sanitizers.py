"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernels do pointer arithmetic over numpy buffers, and a read past a
buffer can return bits that still match the Python form. So a child
interpreter, with gcc's two sanitizer runtimes preloaded, builds
_kernels.c with both sanitizers into a temporary directory and runs every
kernel: the golden runs, the committed sweep, and a few thousand draws of
each kernel through the comparison helpers of test_plant.py and
test_closed_loop.py. A read or write outside a buffer, or undefined
behaviour, aborts the child with the sanitizer's report, which the
failure shows.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from offsetmpc import kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the sanitized build: the release build's flags without its -O2
SANITIZED_FLAGS = ("-O1", "-g", "-fno-omit-frame-pointer",
                   "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=undefined") + tuple(
    flag for flag in kernels.KERNEL_FLAGS if not flag.startswith("-O"))
DRAWS = 2000

CHILD = """
import os, pathlib, sys, warnings
root, tmp = map(pathlib.Path, sys.argv[1:3])
sys.path[:0] = [str(root / "src"), str(root / "tests")]
# as pytest runs the tests: a numpy warning from the program is an error
warnings.simplefilter("error", RuntimeWarning)
# the runtimes are loaded; gcc, which load() starts, runs without them
del os.environ["LD_PRELOAD"]
import pytest
from offsetmpc import cli, kernels
kernels.KERNEL_FLAGS = {flags!r}
kernels.BUILD_DIR = str(tmp / "build")
active = kernels.load()
assert kernels.fallback_reason is None, kernels.fallback_reason
import test_closed_loop, test_golden, test_plant
for stem, mode in test_golden.RUNS:
    out = tmp / f"{{stem}}-{{mode}}"
    out.mkdir()
    test_golden.check_run(out, stem, mode)
with pytest.MonkeyPatch.context() as monkeypatch:
    (tmp / "sweep").mkdir()
    test_golden.check_sweep(tmp / "sweep", monkeypatch)
twovar = cli.load_config(str(root / "configs" / "cstr_twovar.yaml"))
test_plant.compare_advance(active.advance, {draws})
test_closed_loop.compare_interval(twovar, active.interval, {draws})
test_closed_loop.compare_record(twovar, active.record, {draws})
test_closed_loop.compare_log_text(active.log_text, {draws})
print("kernels clean")
"""


def runtime(name):
    """The path gcc gives for its runtime library name, or None when it
    has none (gcc then prints the bare name) or gcc is missing."""
    try:
        proc = subprocess.run(["gcc", f"-print-file-name={name}"],
                              capture_output=True, text=True)
    except OSError:
        return None
    path = proc.stdout.strip()
    return path if os.path.isabs(path) else None


def test_the_kernels_run_clean_under_asan_and_ubsan(tmp_path):
    asan = runtime("libasan.so")
    if asan is None:
        pytest.skip("gcc -print-file-name=libasan.so gives no path: this "
                    "gcc has no AddressSanitizer runtime")
    preload = [path for path in (asan, runtime("libubsan.so")) if path]
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0",
               LD_PRELOAD=" ".join(preload))
    proc = subprocess.run(
        [sys.executable, "-c",
         CHILD.format(flags=SANITIZED_FLAGS, draws=DRAWS),
         str(ROOT), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-6000:]
    assert proc.stdout.splitlines()[-1] == "kernels clean"
