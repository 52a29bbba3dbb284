#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and report,
per end-to-end metric, the median and the spread (distance between the
first and third quartile as a share of the median) next to its bound.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

Run from the repository root. A spread under a third of the bound is
the target the bounds in BENCHMARK.json were set against.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {done.returncode}")
            metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
            for name, m in metrics.items():
                values[name].append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                  flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"median": med, "spread": spread, "bound": m["bound"], "values": v}
            flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:16s} median {med:12.5g}  spread {spread:7.4f}  bound {m['bound']:.3f}  {flag}",
                  flush=True)
        report[w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
