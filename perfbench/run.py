#!/usr/bin/env python3
"""Build and run the time-to-verdict benchmark.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune (inside the checkout, with the
shared dune cache off), then runs it with the same arguments.  The last
line of standard output is the result JSON.  Outside a full checkout it
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: timed out: %s\n" % e.cmd)
        sys.exit(3)
