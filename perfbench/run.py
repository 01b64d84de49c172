#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

Builds the benchmark program and `rcc` with dune, then hands every
argument to the program (perfbench/rcbench.ml), whose last stdout line
is the JSON result.  Exits non-zero, printing no result, when the
checkout holds no buildable source tree.
"""

import os
import subprocess
import sys

PROGRAM = os.path.join("_build", "default", "perfbench", "rcbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a source checkout "
                 "(no dune-project or lib/ here)")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "perfbench/rcbench.exe", "bin/rcc.exe"],
            stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % build.returncode)
    os.execv(PROGRAM, [PROGRAM] + sys.argv[1:])


if __name__ == "__main__":
    main()
