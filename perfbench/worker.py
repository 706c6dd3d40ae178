"""One workload execution in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the offsetmpc command line (`argv`), the call that starts the
workload's main loop (`start`), the call timed as one operation (`op`),
whether to stop once set-up ends (`setup_only`) and whether to trace
(`spans` is then the file the spans go to). The result JSON is written to
SPEC["result"]. All times are CPU times: the program is single-threaded
once BLAS is pinned to one thread.

The CPU time of fixed work drifts with the machine's speed (other tenants
on the same core). So during the main loop the worker also times a fixed
reference kernel, once after the first operation that ends REF_PERIOD_NS
of CPU after the last sample, and once at the end; and it times
python_kernel a few times before the imports and right after set-up.
run.py scales the workload's times by these samples. The kernels run
outside every timed span, and the main-loop samples' CPU time is taken out
of run_s.
"""

import os

# pin BLAS before numpy can load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer as tracer_mod  # noqa: E402


REF_PERIOD_NS = 40_000_000
SETUP_REF_CALLS = 5


def python_kernel():
    """Plain float arithmetic, about 0.17 ms on an uncontended core. It slows
    about 1.3x when a co-tenant shares the core, as set-up (imports, parsing)
    does."""
    acc, y = 0.0, 1.0
    for i in range(2200):
        y = y * 0.999 + 0.001
        acc += y * i
    return acc


def reference():
    """Fixed work in the program's mix, about 0.6 ms on an uncontended core:
    small numpy calls in an interpreter loop (70% of the time), then
    python_kernel (30%). When a co-tenant shares the core, the first part
    slows 1.75x, so the whole slows about 1.6x, as the main loop does.
    numpy is already loaded when this runs."""
    import numpy as np
    x = np.ones(3)
    acc = 0.0
    for i in range(300):
        x = x * 0.999 + 0.001
        acc += float(x[0]) * i
    return acc + python_kernel()


def time_kernel(kernel=reference):
    t0 = time.thread_time_ns()
    kernel()
    return time.thread_time_ns() - t0


class SetupDone(Exception):
    """Raised at the first main-loop call of a set-up-only execution."""


def _versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    state = {"setup_end": None, "run_start": None, "ref": [], "last_ref": 0,
             "op_ns": [], "loops": {},
             "setup_ref": [time_kernel(python_kernel) for _ in range(SETUP_REF_CALLS)]}

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    import offsetmpc
    from offsetmpc import cli
    if not os.path.abspath(offsetmpc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported offsetmpc from {offsetmpc.__file__}, "
                           f"not from {src}")

    tracer = None
    if spec["spans"]:
        tracer = tracer_mod.Tracer()
        tracer.install()

    def start_hook(fn):
        def wrapper(*args, **kwargs):
            if state["setup_end"] is None:
                state["setup_end"] = time.process_time()
                state["setup_ref"] += [time_kernel(python_kernel)
                                       for _ in range(SETUP_REF_CALLS)]
                if spec["setup_only"]:
                    raise SetupDone()
                state["last_ref"] = time.thread_time_ns()
                state["run_start"] = time.process_time()
            return fn(*args, **kwargs)
        return wrapper

    def op_hook(fn):
        clock, times = time.thread_time_ns, state["op_ns"]

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            times.append(t1 - t0)
            if t1 - state["last_ref"] >= REF_PERIOD_NS:
                ref_ns = time_kernel()
                state["ref"].append((len(times), ref_ns))
                if tracer is not None:
                    tracer.exclude(ref_ns)
                state["last_ref"] = clock()
            if args and hasattr(args[0], "rejected_harvests"):
                state["loops"].setdefault(id(args[0]), args[0])
            return result
        return wrapper

    tracer_mod.patch(spec["op"], op_hook)
    tracer_mod.patch(spec["start"], start_hook)

    error = None
    try:
        code = cli.main(spec["argv"])
    except SetupDone:
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc()
    cpu1 = time.process_time()
    wall1 = time.perf_counter()
    setup_end = state["setup_end"] if state["setup_end"] is not None else cpu1
    run_start = state["run_start"] if state["run_start"] is not None else cpu1
    run_ref_s = sum(ns for _, ns in state["ref"]) / 1e9
    if state["run_start"] is not None:
        state["ref"].append((len(state["op_ns"]), time_kernel()))

    result = {
        "exit_code": code,
        "error": error,
        "setup_s": setup_end - cpu0,
        "run_s": cpu1 - run_start - run_ref_s,
        "ref_ns": state["ref"],
        "setup_ref_ns": state["setup_ref"],
        "cpu_s": cpu1 - cpu0,
        "wall_s": wall1 - wall0,
        "op_us": [t / 1000.0 for t in state["op_ns"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loops": [{"intervals": lp.k,
                   "rejected_harvests": lp.rejected_harvests,
                   "harvested": len(lp.harvested),
                   "max_residual": max((s.residual for s in lp.harvested),
                                       default=0.0)}
                  for lp in state["loops"].values()],
        "versions": _versions(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
