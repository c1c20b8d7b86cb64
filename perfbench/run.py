#!/usr/bin/env python3
"""Build the benchmark in release mode and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload olap_tpch --seed 1 --seconds 10 --trace 0

Cargo output goes to stderr; the benchmark's standard output is passed
through unchanged, so its last line is the JSON result. The build lands in
$CARGO_TARGET_DIR, or in .bench_build when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run must end within 180 s; stop the benchmark a little before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def run(cmd, env, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    with subprocess.Popen(cmd, env=env, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 1


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    if run(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return run([binary] + sys.argv[1:], env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
