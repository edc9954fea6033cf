#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hit-relabel --seed 1 --seconds 20 --trace 0

The arguments are passed on to perfbench/bench.exe (see README.md). The
last line of stdout is the run's JSON summary; the build log goes to
stderr.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        print("perfbench: run from the root of the source checkout "
              "(dune-project and lib/serve not found)", file=sys.stderr)
        return 2
    try:
        # --cache=disabled: build inside the checkout only, not into the
        # user-wide dune cache
        build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                                "./perfbench/bench.exe"],
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
