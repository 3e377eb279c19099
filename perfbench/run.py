#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload power --seed 1 --seconds 10 --trace 0

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build; spans go to .bench_out. Build output and the
benchmark's own tests report on stderr; stdout carries the benchmark's header
lines and, last, the result JSON. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        if sorted(expected) != sorted(result["metrics"]):
            fail("metric names differ from BENCHMARK.json")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources beside perfbench/ in {ROOT}")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    tests = os.path.join(build_dir, "perfbench_test")
    if subprocess.run([tests, "--gtest_brief=1"],
                      stdout=sys.stderr).returncode != 0:
        fail("the benchmark's own tests failed")

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(run.stdout, end="", file=sys.stderr)
        fail(f"perfbench exited with code {run.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
