#!/usr/bin/env python3
"""Build loopbench (its own Release tree) and run one workload.

    python3 loopbench/run.py --workload cycle-compute --seed 1 \
        --seconds 5 --trace 0

Run from anywhere inside a checkout of the repository. The build tree
is .bench_build/loopbench at the checkout root; build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loopbench")


def build():
    """Configure and bring the tree up to date; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "loopbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("loopbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    trace_file = os.path.join(
        BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "loopbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt"),
           "--trace-file", trace_file]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
