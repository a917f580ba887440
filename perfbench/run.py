#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all three).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or
to .bench_build when that is unset. The last line of standard output is
the run's result as JSON; the line before it holds the run's conditions.
With --trace 1 the spans go to <target dir>/perfbench-spans/.
--self-test runs the unit tests of the benchmark's own helpers.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wire-read-hot", "embedded-cold", "mixed-wire"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cargo(*args, timeout):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
        return 1


def self_test():
    if cargo("test", timeout=BUILD_TIMEOUT_S) != 0:
        return 1
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", HERE, "-p", "test_*.py"],
        cwd=ROOT, env=env).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if cargo("build", "--bins", timeout=BUILD_TIMEOUT_S) != 0:
        print("run.py: the benchmark does not build here", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir(), "release", "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans-dir", os.path.join(target_dir(), "perfbench-spans")]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
