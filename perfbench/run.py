#!/usr/bin/env python3
"""Builds the modsyn benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <table1|logic-bound|sat-bound|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own cargo package (perfbench/Cargo.toml) depending on
the workspace crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the root), then run with the
same arguments. The last line of standard output is the result object; the
exit code is non-zero on any correctness failure or build error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main():
    # The program under test must be present: without the workspace there
    # is nothing to build, and no result may be printed.
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
