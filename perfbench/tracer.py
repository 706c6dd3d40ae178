"""Per-layer tracing from outside the program.

The tracer replaces selected public functions of the offsetmpc modules
with wrappers that record one span per call (name, CPU start/end, parent
span, interval index) and the counters read at the call boundary. Nothing
under src/ knows about it. Spans stay in memory until `write_spans`.
"""

import functools
import importlib
import json
import logging
import time

# layer name -> "module:attribute path" inside the offsetmpc package
TRACED = {
    "cli.load_config": "cli:load_config",
    "cli.run_checks": "cli:run_checks",
    "plant.step": "plant:step",
    "estimator.learned_step": "estimator:DisturbanceEstimator.learned_step",
    "estimator.steady_state_from_io":
        "estimator:DisturbanceEstimator.steady_state_from_io",
    "target.solve": "target:TargetCalculator.solve",
    "numerics.solve_linear": "numerics:solve_linear",
    "numerics.matrix_rank": "numerics:matrix_rank",
    "ocp.condense": "ocp:condense",
    "ocp.solve_qp": "ocp:solve_qp",
    "grnn.predict": "grnn:predict",
    "grnn.add_sample": "grnn:add_sample",
    "grnn.loo_error": "grnn:loo_error",
    "grnn.select_sigma": "grnn:select_sigma",
    "closed_loop.control_step": "closed_loop:ControlLoop.control_step",
    "closed_loop.harvest_sample": "closed_loop:harvest_sample",
}

COUNTERS = ("qp_iterations", "qp_iterations_max", "qp_active_rows",
            "qp_phase1", "harvested", "harvest_rejected", "bound_warnings")


def patch(target, make_wrapper):
    """Replace `offsetmpc.<module>:<attr path>` with make_wrapper(original)."""
    mod_name, attr_path = target.split(":")
    owner = importlib.import_module("offsetmpc." + mod_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    setattr(owner, attr, make_wrapper(getattr(owner, attr)))


class _WarningCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.counters["bound_warnings"] += 1


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start_ns, end_ns, parent_id, interval)
        self.stack = []        # [span id, child CPU ns] per open call
        self.calls = {name: 0 for name in TRACED}
        self.self_ns = {name: 0 for name in TRACED}
        self.counters = {name: 0 for name in COUNTERS}
        self.interval = -1

    def install(self):
        from offsetmpc import closed_loop, ocp
        import numpy as np

        def phase1_needed(args, kwargs):
            qp = args[0]
            warm = args[1] if len(args) > 1 else kwargs.get("warm_start")
            if qp.A_in is None or not qp.A_in.size:
                return
            x0 = np.zeros(qp.H_j.shape[0]) if warm is None else warm
            if (qp.A_in @ x0 - qp.b_in).max() > ocp.TOL_FEAS:
                self.counters["qp_phase1"] += 1

        def qp_done(sol):
            c = self.counters
            c["qp_iterations"] += sol.iterations
            c["qp_iterations_max"] = max(c["qp_iterations_max"], sol.iterations)
            c["qp_active_rows"] += len(sol.active_set)

        def next_interval(args, kwargs):
            self.interval += 1

        def harvested(sample):
            self.counters["harvested"] += 1

        def rejected(exc):
            if isinstance(exc, closed_loop.CrossCheckFailed):
                self.counters["harvest_rejected"] += 1

        hooks = {
            "ocp.solve_qp": (phase1_needed, qp_done, None),
            "closed_loop.control_step": (next_interval, None, None),
            "closed_loop.harvest_sample": (None, harvested, rejected),
        }
        for name, target in TRACED.items():
            before, after, on_raise = hooks.get(name, (None, None, None))
            patch(target, functools.partial(self._wrap, name, before=before,
                                            after=after, on_raise=on_raise))
        logging.getLogger("offsetmpc.target").addHandler(_WarningCounter(self))

    def _wrap(self, name, fn, before=None, after=None, on_raise=None):
        clock = time.thread_time_ns
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            # closed plus open spans: ids count up in call order
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.interval))
            if after is not None:
                after(result)
            return result
        return wrapper

    def exclude(self, ns):
        """CPU time the benchmark spent inside the innermost open span; it is
        not that span's self time."""
        if self.stack:
            self.stack[-1][1] += ns

    def summary(self):
        return {"calls": self.calls, "self_ns": self.self_ns,
                "counters": self.counters}

    def write_spans(self, path):
        """One JSON object per line, ordered by span end."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "interval")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
