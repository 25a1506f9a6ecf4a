#!/usr/bin/env python3
"""Builds the qbarren benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5a|train|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/ (incremental after the first run) and all
of its output goes to stderr. The harness, .bench_build/qbench, does
the measuring; its standard output is passed through unchanged, so the
last line is the result JSON. The exit code is the harness's: non-zero
when an output check fails. A failed build exits 2 without a result.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "qbench", "qbarren_cli"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required (or --selftest)")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    harness = os.path.join(BUILD_DIR, "qbench")
    if args.selftest:
        command = [harness, "selftest"]
    else:
        command = [harness, args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
