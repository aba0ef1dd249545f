#!/usr/bin/env python3
"""Whole-cell benchmark of the espnand simulator.

Run from the repository root:

    python3 perfbench/run.py --workload steady_gc --seed 1 --seconds 30 \
        --trace 0

Builds perfbench/ (and with it the simulator library from src/) into
.bench_build/ on first use, runs one workload for the given host-time budget
and prints its metrics. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, and also
writes the traced run's spans to .bench_build/trace/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures once, then (re)builds incrementally; output to stderr."""
    src = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "espbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "espbench")
    if not os.path.isfile(exe):
        fail("build produced no espbench binary")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repository root")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = os.path.join(root, BUILD_DIR)
    exe = build(root, build_dir)

    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"espbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"espbench printed nothing (exit {r.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("espbench's last line is not a JSON result")
    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"] for m in spec[section]}
    got = set(result.get("metrics", {}))
    if got != want:
        print(f"perfbench: metric set mismatch: missing {sorted(want - got)}, "
              f"extra {sorted(got - want)}", file=sys.stderr)
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
