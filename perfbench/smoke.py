#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

Usage, from the repository root:

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs `perfbench/run.py --tiny`
(3 sweep setpoints, one schedule cycle, a 20-sample fit) with --trace 0 and
--trace 1, and checks that each run is correct with no failed operation,
that the last line carries exactly the metrics BENCHMARK.json names, with
their units, and that the traced run wrote spans. It also checks that the
benchmark refuses to run without the program's sources. Exits 1 on any
failure.
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_KEYS = {"id", "name", "start_ns", "end_ns", "parent", "interval"}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench, workload, trace):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no result line (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"]
    errors = []
    if proc.returncode != 0 or result["correct"] is not True or result["failed"] != 0:
        errors.append("run not correct: " + "; ".join(l for l in lines if l.startswith("FAIL")))
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"wrong unit {sorted(k for k in want if k in got and got[k] != want[k])}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        errors.append(f"non-numeric values: {bad}")
    if trace:
        files = glob.glob(os.path.join(HERE, "work", f"{workload}-seed0-trace1-tiny",
                                       "spans-*.jsonl"))
        spans = [json.loads(line) for path in files for line in open(path)]
        if not spans or any(set(s) != SPAN_KEYS for s in spans):
            errors.append(f"traced run wrote {len(spans)} well-formed spans")
    return errors


def check_bare():
    """Without src/ the benchmark must fail and print no result."""
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run(["--workload", "grnn_fit_400", "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without sources: exit {proc.returncode}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors = check_run(bench, workload, trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}"
                  + "".join(f"\n     {e}" for e in errors))
    errors = check_bare()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without sources"
          + "".join(f"\n     {e}" for e in errors))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
