#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

From the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

dune's output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
program cannot be built.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache=disabled",
             "./perfbench/bench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if build.returncode != 0:
        sys.exit(f"run.py: build failed (exit {build.returncode})")
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
