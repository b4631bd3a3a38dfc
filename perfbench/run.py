#!/usr/bin/env python3
"""Build the daemon and the benchmark driver from source, then run one
workload.  Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-splice --seed 1 --seconds 10 --trace 0

All scratch files (corpus, store copies, sockets, logs) live under
.perfbench/ in the checkout; the per-run directory is removed on exit.
The last line of standard output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "bin", "tilesched.exe")
DRIVER = os.path.join("_build", "default", "perfbench", "driver.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("TILESCHED_JOBS", None)
    # Build output goes to stderr: stdout carries only the report.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/tilesched.exe", "./perfbench/driver.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not (os.path.isfile(EXE) and os.path.isfile(DRIVER)):
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    work = os.path.join(".perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return subprocess.run(
            [DRIVER, "--exe", EXE, "--work", work] + sys.argv[1:], env=env
        ).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
