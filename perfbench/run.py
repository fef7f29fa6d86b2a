#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-sim --seed 0 --seconds 45 --trace 0

Workloads: paper-sim, serve-drift.  --trace 0 prints the
end-to-end metrics of an untraced, timed run; --trace 1 prints the
per-layer metrics of a traced run checked against an untraced one.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Any build failure, correctness mismatch or timeout
exits nonzero without printing it.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper-sim", "serve-drift")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build(root):
    # Builds only the benchmark executable and the libraries it links.
    # DUNE_CACHE=disabled keeps the build inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", root, "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        return False
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not build(root):
        return fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # subprocess.run kills and reaps the child on timeout.
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        # Keep the diagnostics but not a result line.
        sys.stderr.write(done.stdout)
        code = done.returncode
        return fail("run exited with code %d" % code, code)
    if not lines or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        return fail("run printed no valid result line")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
