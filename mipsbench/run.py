#!/usr/bin/env python3
"""Builds the MIPS benchmark from this checkout and runs one workload.

    python3 mipsbench/run.py --workload batch-bmm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first call configures and compiles
the library and the benchmark (Release, -march=native) into
.bench_build/mipsbench; later calls only rebuild what changed.  Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Result records and span files land in .bench_out/.

    python3 mipsbench/run.py --self-test

builds the same tree and runs the benchmark's own tests: the unit test of
the stats, lateness, trace and gate arithmetic, then a tiny run of every
workload, traced and untraced, whose result line must carry exactly the
metrics BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mipsbench")
BINARY = os.path.join(BUILD_DIR, "mipsbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configures (once) and builds; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if run(configure, 600, stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", BUILD_DIR, "-j", JOBS], 900,
               stdout=sys.stderr) == 0


def smoke(workload, trace, expected):
    """One tiny run; returns a list of problems with its result line."""
    proc = subprocess.Popen(
        [BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--out_dir", OUT_DIR],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return ["exit code %d" % proc.returncode]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    elif not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("correct=%s attempted=%s failed=%s" % (
            result["correct"], result["attempted"], result["failed"]))
    else:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            problems.append("metrics %s, expected %s" % (got, expected))
    return problems


def self_test():
    if not build():
        return 2
    if run(["ctest", "--test-dir", BUILD_DIR, "--output-on-failure"], 600,
           stdout=sys.stderr) != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = subprocess.run([BINARY, "--list"], capture_output=True,
                               text=True, check=True).stdout.split()
    failures = 0
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = smoke(workload, trace, expected)
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print("smoke %s trace=%d: %s" % (workload, trace, status),
                  file=sys.stderr)
            failures += bool(problems)
    return 1 if failures else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()

    if not build():
        print("mipsbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    return run([BINARY] + argv + ["--out_dir", OUT_DIR], 600)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
