#!/usr/bin/env python3
"""Builds the Palm benchmark from the checkout's sources and runs it.

    python3 palmbench/run.py --workload astro_explore --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/palmbench
(CMake, Release); every other argument is passed to the benchmark binary,
whose last line of standard output is the result object. Build output goes
to standard error. Exits 2 without a result when the repository sources
are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "palmbench")
BINARY = os.path.join(BUILD, "palmbench")


def build():
    """Configures (once) and builds the benchmark; returns an exit code."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "palm", "api.h")):
        print("palmbench: repository sources not found next to " + HERE,
              file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print("palmbench: build failed", file=sys.stderr)
        return code
    return subprocess.call([BINARY] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
