#!/usr/bin/env python3
"""Build diablo_bench from this checkout and run the repository benchmark.

Usage (from the root of the checkout):

    python3 benchmark/run.py                       # every workload
    python3 benchmark/run.py --workload incast8_par2 --seed 7 \\
        --seconds 10 --trace 0                     # one workload
    python3 benchmark/run.py --check               # reduced-size gate

The simulator libraries are built from ../src into .bench_build/ (a
standalone CMake project, benchmark/CMakeLists.txt); build output goes to
stderr so that the last line of stdout is diablo_bench's JSON result.  All
other arguments are passed to diablo_bench unchanged.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure and (re)build diablo_bench; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "diablo_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("benchmark build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD, "diablo_bench"),
           "--manifest", os.path.join(ROOT, "BENCHMARK.json"),
           "--golden", os.path.join(ROOT, "benchmark", "golden.json"),
           "--out", os.path.join(ROOT, "benchmark", "out")]
    return subprocess.run(cmd + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
