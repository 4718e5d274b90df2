#!/usr/bin/env python3
r"""Build the end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload live_gateway --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds a Release copy of the repository's
libraries plus the benchmark binary under .bench_build/e2ebench (CMake,
all CPUs); later calls only rebuild what changed. Build output goes to
stderr, so the binary's report lines and its closing JSON line are the
only standard output. The exit status is the binary's; a failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
