#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload field|replay|fleet|explore \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune (inside the checkout, dune's shared cache off), then runs it with
the same arguments; its standard output ends with the JSON result line.
Exits non-zero without a result when the checkout cannot be built.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.stderr.write("perfbench: run from the root of a source checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build did not finish: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    try:
        return subprocess.run([os.path.join(root, EXE)] + sys.argv[1:], env=env,
                              timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: the benchmark did not finish in 170 s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
