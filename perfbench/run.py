#!/usr/bin/env python3
"""Build and run the campaign benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig3_serial --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator's src/ libraries) into .bench_build/perfbench; later calls
only re-run the incremental build. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every correctness check passed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")


def build():
    """Configure (once) and build; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", "avf_perfbench",
         "-j", jobs], stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "avf_perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    return subprocess.call([binary] + sys.argv[1:] +
                           ["--out-dir", OUT_DIR])


if __name__ == "__main__":
    sys.exit(main())
