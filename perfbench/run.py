#!/usr/bin/env python3
"""miniphi benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-search --seed 1 --seconds 10 --trace 0

Builds the library and the perfbench program from the checkout's sources
into .bench_build/ (the first run compiles everything; later runs only
re-check), then runs one workload.  The program prints human-readable lines
followed by one JSON result line, which is the last line of stdout.
Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper-search", "service-mix", "tight-memory", "partitioned-mt")
RUN_TIMEOUT_S = 175


def build(source_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no miniphi sources beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    # Keep compiler and program temporaries inside the checkout too.
    tmp_dir = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    try:
        build(here, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(root, ".bench_build", "out")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
