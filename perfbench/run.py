#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload exact-matrix --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout.  The first call configures and builds
perfbench/ -- the benchmark program plus the simulator libraries it compiles
from src/ -- under .bench_build/perfbench; later calls only re-check that
build.  Build output goes to stderr, so the last line on stdout is always
the benchmark's JSON result.  Every argument is passed on to the perfbench binary,
which also accepts --record and --record-exact (regenerate the recorded
digests) and --expected FILE (check against another digest file).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY,
            "--expected", os.path.join(HERE, "expected_digests.txt"),
            "--out", os.path.join(ROOT, ".bench_out")] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
