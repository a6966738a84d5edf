#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv_update --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe from source with dune into _perfbench_build/
(release profile, dune cache off, so nothing is written outside the
checkout), then runs it with the arguments given here, unchanged; the
binary parses and checks them.  It prints one line per metric and, as
its last line, the result as a JSON object; it exits non-zero when the
correctness oracle finds a disagreement.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer ones (see
BENCHMARK.json).
"""

import os
import subprocess
import sys

BUILD_DIR = "_perfbench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project or lib/ is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "./perfbench/main.exe",
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if built.returncode != 0:
        fail("build failed (dune exit %d)" % built.returncode)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    try:
        ran = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
