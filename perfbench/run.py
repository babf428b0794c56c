#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_repeat --seed 1 --seconds 40 --trace 0

The first call configures and builds the libraries and the binary under
.bench_build/ (CMake, Release); later calls only rebuild what changed.
Build output goes to stderr; the binary's own output, whose last line
is the JSON result, goes to stdout. Exits non-zero, without a result,
when the sources are missing, the build fails, or the binary fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: CMakeLists.txt and src/ are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_repeat", "train_fit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
