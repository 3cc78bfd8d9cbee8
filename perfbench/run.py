#!/usr/bin/env python3
"""Build the daemon and the load generator from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 10 --trace 0

Everything is built and run under .bench_build/ in the current directory.
The last line of standard output is the JSON result of the load generator.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("warm-hits", "cold-solves", "zipf-churn")
BUILD_DIR = os.path.join(".bench_build", "dune")
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(".bench_build", exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "perfbench/loadgen.exe", "bin/cellsched_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(exe, "perfbench", "loadgen.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--daemon", os.path.abspath(os.path.join(exe, "bin", "cellsched_cli.exe")),
           "--dir", os.path.join(".bench_build", "run-%d" % os.getpid())]
    # Its own session, so a timeout stops the daemons it started too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
