#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources, then runs it.

Run from the root of the checkout:

  python3 bench_e2e/run.py --workload tcp_short --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build), Release, and
is incremental, so only the first run pays for compiling. Build output goes
to stderr: the last line on stdout is the benchmark's result. Exits non-zero
when the build or the benchmark fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs,
         "--target", "bench_e2e", "exsample_serve"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1
    binary = os.path.join(build, "bin", "bench_e2e")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
