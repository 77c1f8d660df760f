#!/usr/bin/env python3
"""The pipeline benchmark: build it, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload star_csmas --seed 1 --seconds 10 --trace 0

builds perfbench/pipeline.exe with dune and runs it. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. With --trace 1 an untraced run of the same
seed comes first: its commit p50 over the rounds the traced run shadows is
the baseline of trace.overhead. The traced run also writes its spans to
.perfbench_state/spans-<workload>-<seed>.json.

Steadiness mode runs one workload several times and prints, per metric, the
median, the quartiles and the spread (interquartile range over the median)
next to the metric's bound:

    python3 perfbench/run.py --workload star_recompute --steady 5 [--vary-seed]

With one seed it fails if any exact count (bytes per fact, WAL bytes per
delta, allocated bytes, and with --trace 1 capture rows and netting ratios)
differs between runs, or a GC count by more than 5%; --vary-seed gives
each run its own seed, as a regression check of the bounds does.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pipeline.exe")
STATE = os.path.join(ROOT, ".perfbench_state")
RUN_TIMEOUT_S = 170
# Collection counts include collections the serve domain triggers, whose
# timing shifts with its idle polling: they agree between runs of one seed
# to within this share, not exactly.
NEAR = {"gc.minor_per_1k_deltas": 0.05, "gc.major_per_1k_deltas": 0.05}


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.exit("perfbench: not a checkout of the repository (no dune-project or lib/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    built = subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/pipeline.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace, extra=()):
    """Run the benchmark once; returns its standard output."""
    state = os.path.join(STATE, f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state)
    try:
        proc = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--state", state,
             *extra],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        spans = os.path.join(state, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(STATE, f"spans-{workload}-{seed}.json"))
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {workload} seed {seed} exited with {proc.returncode}")
    return proc.stdout


def run(workload, seed, seconds, trace):
    """One measurement; a traced one is paired with an untraced run."""
    if not trace:
        return run_once(workload, seed, seconds, 0)
    baseline = None
    for line in run_once(workload, seed, seconds, 0).splitlines():
        if line.startswith("LATE_COMMIT_P50_MS "):
            baseline = line.split()[1]
    if baseline is None:
        sys.exit(f"perfbench: {workload} seed {seed} printed no LATE_COMMIT_P50_MS")
    return run_once(workload, seed, seconds, 1, ["--baseline-ms", baseline])


def parse(output):
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    exact = {}
    for line in lines:
        if line.startswith("EXACT "):
            exact = json.loads(line[len("EXACT "):])
    return result, exact


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def steady(args):
    runs = []
    for i in range(args.steady):
        seed = args.seed + i if args.vary_seed else args.seed
        result, exact = parse(run(args.workload, seed, args.seconds, args.trace))
        runs.append((seed, result, exact))
        print(f"run {i + 1}/{args.steady} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for _, r, _ in runs)
    bound = bounds()
    print(f"\n{args.workload}, {args.steady} runs, --trace {args.trace}")
    print(f"  {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for name in runs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r, _ in runs]
        med = statistics.median(values)
        q1, q3, sp = spread(values) if med else (med, med, 0.0)
        b = bound.get(name)
        flag = ""
        if b is not None and sp > b:
            flag, ok = "  OVER BOUND", False
        elif b is not None and sp > b / 3:
            flag = "  over a third of the bound"
        bs = f"{b:7.2f}" if b is not None else "      -"
        print(f"  {name:38} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {bs}{flag}")
    if not args.vary_seed:
        first = runs[0][2]
        for seed, _, exact in runs[1:]:
            for name, value in first.items():
                other = exact.get(name)
                if name in NEAR and other is not None:
                    same = abs(other - value) <= NEAR[name] * abs(value)
                else:
                    same = other == value
                if not same:
                    print(f"  exact count {name} differs: {value} vs {exact.get(name)}")
                    ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N times and report spreads")
    ap.add_argument("--vary-seed", action="store_true",
                    help="in steadiness mode, give run i the seed SEED+i")
    args = ap.parse_args()
    build()
    if args.steady:
        if args.steady < 2:
            sys.exit("perfbench: --steady needs at least 2 runs")
        return steady(args)
    sys.stdout.write(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
