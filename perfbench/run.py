#!/usr/bin/env python3
"""Patty benchmark entry point.

    python3 perfbench/run.py --workload corpus|serve_hit|serve_miss|execute \
        --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/perfbench.cpp) and the Patty libraries
it links from source with CMake, in $CARGO_TARGET_DIR (default .bench_build,
relative to the repository root), then runs one measurement. With --trace 0
it first times the workload's set-up: SETUP_SAMPLES times it launches the
program in set-up-only mode, each a fresh process, and takes the time from
launch to the process's "ready" line; setup_s is the median. The program's
last stdout line, one JSON object with the keys correct, attempted, failed and
metrics, is checked against BENCHMARK.json and printed as this script's last
line. Any failure (build, run, malformed result) exits non-zero without a
result.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "serve_hit", "serve_miss", "execute")
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 30


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd):
    # Build chatter goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(out):
    """Configure once, then bring the program up to date (a no-op when built).
    The lock keeps concurrent runs in one checkout from building at once."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.join(out, ".configured")
        if not os.path.exists(configured):
            run_step(["cmake", "-S", HERE, "-B", out])
            open(configured, "w").close()
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_step(["cmake", "--build", out, "--target", "patty_perfbench",
                  "-j", jobs])
    return os.path.join(out, "patty_perfbench")


def setup_seconds(binary, args, out):
    """Median over fresh processes of launch-to-"ready" time."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", "1",
               "--socket", "setup-%d-%d.sock" % (os.getpid(), i)]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=out, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate()
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
            child.wait()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up %d exited with %d"
                               % (i, child.returncode))
        samples.append(elapsed)
    log("set-up seconds: " + " ".join("%.4f" % s for s in samples))
    return statistics.median(samples)


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise RuntimeError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise RuntimeError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise RuntimeError("no operation attempted")
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        raise RuntimeError("metrics %s differ from BENCHMARK.json %s"
                           % (sorted(got.items()), sorted(expected.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out = build_dir()
    binary = build(out)
    setup_s = None if args.trace else setup_seconds(binary, args, out)
    # The daemon's socket lives in the build directory; the path is passed
    # relative to it because Unix socket paths are limited to ~107 bytes.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--socket", "serve-%d.sock" % os.getpid()]
    # Besides the measured loop, a run sets up, computes the reference
    # outputs and, with --trace 1, makes its phase pass and runtime probes.
    done = subprocess.run(cmd, cwd=out, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=60 + 3 * args.seconds,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError("patty_perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("patty_perfbench printed no result")
    result = json.loads(lines[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    check(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        sys.exit(1)
