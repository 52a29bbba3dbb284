#!/usr/bin/env python3
"""Build and run the synthesis-stack benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune,
runs it, checks that its result line names exactly the metrics and
units BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and prints that line last. Exits non-zero,
printing no result, when the build fails, bench.exe fails an output
check, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

TIME_LIMIT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "-j", "2", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=TIME_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A process group of its own, so a timeout also stops the service
    # processes bench.exe forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"no result within {TIME_LIMIT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"bench.exe exited with code {proc.returncode}")
    if not lines:
        fail("bench.exe printed no result")
    return lines[-1]


def validate(line, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        fail("result metrics differ from BENCHMARK.json")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    if not result["correct"] or result["failed"] != 0:
        fail("output checks failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        fail("run from the repository root")
    build()
    line = run(args)
    validate(line, args.trace == 1)
    print(line)


if __name__ == "__main__":
    main()
