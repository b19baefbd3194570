#!/usr/bin/env python3
"""The mapper's benchmark.

    python3 perfbench/run.py --workload batch|mixed \\
        --seed N [--seconds S] --trace 0|1

Run from the repository root. It builds `mimd` and the benchmark's
tracer in release mode (into $CARGO_TARGET_DIR, default .bench_build),
drives the program from outside with its own telemetry off, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the run is followed by an in-process re-execution of its
first requests, span by span, and the metrics are the per-layer ones.
A readable report with every figure's sample count goes to stderr.

    python3 perfbench/run.py --self-test     # the benchmark's own tests
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from procs import BenchError, build  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Context:
    def __init__(self, args, mimd, tracer, workdir):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.mimd = mimd
        self.tracer = tracer
        self.workdir = workdir
        # Unix socket paths are short; keep it relative to the root.
        self.sock_path = os.path.relpath(os.path.join(workdir, "mimd.sock"))


def end_to_end(run):
    """The gated metrics: the workload's three figures plus set-up,
    quality and memory."""
    metrics = dict(run.e2e)
    metrics["setup_s"] = (run.setup_s, "s")
    metrics["pct_over_lb"] = (statistics.fmean(run.quality) if run.quality else None, "%")
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return metrics


def traced(ctx, run, spans_path):
    """Re-execute the plan in-process and compute the per-layer metrics.
    The spans stay in `spans_path` for inspection."""
    plan_path = os.path.join(ctx.workdir, "plan.jsonl")
    with open(plan_path, "w") as f:
        f.writelines(json.dumps(item, separators=(",", ":")) + "\n" for item in run.plan)
    proc = subprocess.run(
        [ctx.tracer, "trace", "--plan", plan_path, "--spans", spans_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=170,
    )
    if proc.returncode != 0:
        run.problems.append(proc.stderr.decode(errors="replace").strip()[-3000:])
        return {}
    return layers.layer_metrics(run, layers.read_spans(spans_path))


def report(run, e2e, per_layer):
    w = sys.stderr.write
    w(f"== {run.name}: setup {run.setup_s:.3f} s, peak RSS {run.peak_rss_mb:.1f} MB\n")
    for name, (value, unit, n) in run.report.items():
        shown = "n/a" if value is None else f"{value:.3f}"
        w(f"  {name:24s} {shown:>12s} {unit:8s} n={n}\n")
    lag = run.layer_extra.get("lag")
    if lag and lag["n"]:
        w(f"  generator lag p50 {lag['p50']:.3f} ms, p{lag['tail_q']} {lag['tail']:.3f} ms\n")
    w(f"  attempted {run.ledger.attempted()}, failed {run.ledger.failures()}\n")
    for name, (value, unit) in e2e.items():
        w(f"  [e2e] {name:22s} {value!s:>14s} {unit}\n")
    for name, (value, n) in per_layer.items():
        w(f"  [layer] {name:30s} {value:14.4f} n={n}\n")
    for p in run.problems:
        w(f"  PROBLEM: {p}\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        import unittest

        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    t0 = time.perf_counter()
    mimd, tracer = build(root, target)
    sys.stderr.write(f"perfbench: built in {time.perf_counter() - t0:.1f} s\n")
    workdir = os.path.join(target, "perfbench", f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(workdir)
    try:
        ctx = Context(args, mimd, tracer, workdir)
        run = WORKLOADS[args.workload](ctx)
        e2e = end_to_end(run)
        spans_path = os.path.join(target, "perfbench", f"spans-{args.workload}.jsonl")
        per_layer = traced(ctx, run, spans_path) if ctx.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(run, e2e, per_layer)

    if ctx.trace:
        names = [m["name"] for m in declared["per_layer"]]
        metrics = {
            n: {"value": per_layer[n][0], "unit": u} for n, u, *_ in layers.PER_LAYER if n in per_layer
        }
    else:
        names = [m["name"] for m in declared["end_to_end"]]
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
    if per_layer or not ctx.trace:
        if sorted(metrics) != sorted(names):
            raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for name, m in metrics.items():
        if m["value"] is None or not math.isfinite(m["value"]):
            run.problems.append(f"metric {name} has no finite value")
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.ledger.attempted(),
                "failed": run.ledger.failures(),
                "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(2)
