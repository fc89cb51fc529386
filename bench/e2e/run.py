#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run it.

Run from the repository root:

    python3 bench/e2e/run.py --workload edit_hotspot --seed 1 --seconds 8 --trace 0
    python3 bench/e2e/run.py compare A.jsonl B.jsonl

Every argument is passed to bench/e2e/ltree_bench.exe (see README.md).
The build goes to _build/ under the repository root, with dune's shared
cache off so nothing is written outside the checkout.  Dune's own output
goes to stderr: the last line of stdout stays the benchmark's result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TARGET = "./bench/e2e/ltree_bench.exe"


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} not found in {ROOT}; "
                     "the benchmark builds the library from source")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
