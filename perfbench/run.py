#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig9|degraded|ambient-64> \
        --seed N --seconds S --trace 0|1

Builds `perfbench` (release) into $CARGO_TARGET_DIR, or `.bench_build`
at the repository root when unset, then runs it with the given arguments
plus `--out .bench_out`. The last line of standard output is the result
JSON. Build output goes to standard error. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out", os.path.join(root, ".bench_out")],
        cwd=root, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
