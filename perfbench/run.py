#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpcc --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, RelWithDebInfo) and is reused by
later runs. Build output goes to stderr; stdout carries the benchmark's
output, whose last line is the result as one JSON object. Any further
arguments (such as --stage baseline) are passed to the benchmark.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "engine_bench"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "sm" / "session.h").is_file():
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    build()
    try:
        done = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
