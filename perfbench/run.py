#!/usr/bin/env python3
"""Repository benchmark: TS3Net training, long-lookback inference, serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-t96 --seed 1 --seconds 30 --trace 0

It builds the program from ../src together with the C++ benchmark binary in this
directory (CMake, Release, into .bench_build/perfbench), runs one workload,
and prints one JSON object as its last stdout line:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
setup_s is the median over SETUP_RUNS fresh processes, each of which must
produce the same output checksum. With --trace 1 they are the per-layer
metrics, measured in one traced process whose spans are written to
.bench_build/perfbench-traces/. Workload rationale: README.md here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("train-t96", "infer-t720", "serve-t96")
SETUP_RUNS = 5          # processes whose setup_s medians into the metric
RUN_BUDGET_S = 170      # a run must end within 180 s after its build
BUILD_TIMEOUT_S = 700   # a first run may take 900 s because it builds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; fails without a result."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (exit {rc}); log in {log_path}")


def run_binary(args, deadline):
    """Runs the C++ benchmark binary; returns its last stdout line parsed as JSON."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within the run budget: {args}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"benchmark binary printed no result (exit {proc.returncode}): {args}")
    out = json.loads(lines[-1])
    if proc.returncode != 0 and out.get("correct", False):
        fail(f"benchmark binary exited {proc.returncode} without reporting an error")
    return out


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select(metrics, wanted, problems):
    """Keeps exactly the `wanted` metrics; notes missing or invalid ones."""
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                    help="tiny shapes, for the smoke test only")
    a = ap.parse_args()

    end_to_end, per_layer = load_spec()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--tiny", str(a.tiny)]
    problems = []

    if a.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_out = os.path.join(TRACE_DIR, f"{a.workload}-seed{a.seed}.jsonl")
        out = run_binary(base + ["--trace", "1", "--trace_out", trace_out],
                         deadline)
        metrics = select(out["metrics"], per_layer, problems)
    else:
        setups = [run_binary(base + ["--setup_only", "1"], deadline)
                  for _ in range(SETUP_RUNS - 1)]
        out = run_binary(base, deadline)
        checksums = {r["checksum"] for r in setups + [out]}
        if len(checksums) != 1:
            problems.append(f"output checksums differ across runs: {checksums}")
        out["metrics"]["setup_s"]["value"] = statistics.median(
            [r["setup_s"] for r in setups + [out]])
        metrics = select(out["metrics"], end_to_end, problems)

    if out.get("error"):
        problems.append(out["error"])
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    correct = bool(out["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
