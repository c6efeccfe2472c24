#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <construct|ingest> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is the Cargo package in this
directory (its own workspace, path dependencies on ../crates). It is built
with `cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`), then the binary runs with the given arguments and writes
traces and scratch logs under `<target dir>/perfbench`. The binary's last
line of standard output is the result object; this script passes standard
output through and exits with the binary's exit code (non-zero, with no
result printed, when the build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--out", os.path.join(target, "perfbench")]
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
