#!/usr/bin/env python3
"""Builds the `twig` binary and the benchmark from source, then runs workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-hot|serve-cold --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

The first form runs one workload once; the last line of its stdout is the
benchmark's JSON result and the exit code is the benchmark's: 0 only when
every output was correct and the workload had its intended shape. The
second runs every workload with tracing off and then on, and exits
nonzero if any run failed.

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build in the
repository root); scratch files and span files go under
<target dir>/perfbench. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-hot", "serve-cold"]


def cargo_build(manifest, extra, env):
    if not os.path.isfile(manifest):
        sys.exit(f"perfbench: {manifest} is missing; run from a full checkout")
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
    built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"perfbench: {' '.join(command)} failed with {built.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Every dependency is a path dependency, so Cargo can write any lock
    # file it needs offline; the benchmark's own (perfbench/Cargo.lock) is
    # not tracked and follows whatever edges the crates have.
    cargo_build(os.path.join(ROOT, "Cargo.toml"), ["-p", "twig-cli", "--bin", "twig"], env)
    cargo_build(os.path.join(ROOT, "perfbench", "Cargo.toml"), [], env)

    release = os.path.join(target, "release")
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in ["0", "1"]]
    status = 0  # the first failing run's exit code
    for workload, trace in runs:
        command = [
            os.path.join(release, "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", trace,
            "--twig", os.path.join(release, "twig"),
            "--work", os.path.join(target, "perfbench"),
        ]
        sys.stdout.flush()
        status = status or subprocess.run(command, cwd=ROOT).returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
