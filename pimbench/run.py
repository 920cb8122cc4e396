#!/usr/bin/env python3
"""Builds the pimine benchmark program from source, then runs one workload.

    python3 pimbench/run.py --workload <knn-msd|kmeans-nuswide|serve-mixed>
                            --seed <n> --seconds <s> --trace <0|1>

The program and the library it measures are compiled with CMake into
.bench_build/pimbench under the checkout root (an incremental no-op after
the first build). Build output goes to stderr, so the last line of stdout
is the program's JSON result. Exits non-zero, printing no result, when the
checkout lacks the library sources or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "pimbench")
BUILD = os.path.join(ROOT, ".bench_build", "pimbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("pimbench: no library sources under %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "pimbench", "-j", jobs]
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    if not build():
        sys.stderr.write("pimbench: build failed\n")
        return 3
    binary = os.path.join(BUILD, "pimbench")
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
