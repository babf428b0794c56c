#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload train_fit --runs 10 [--first-seed 1]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json, and the largest spread as a share of its bound. Each run
uses the next seed and BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"run failed (seed {seed}, exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    steal = next((l.split()[4] for l in lines
                  if l.startswith("# host: cpu steal")), "?")
    return json.loads(lines[-1]), steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, steal = run_once(args.workload, seed, bench["run_seconds"], 0)
        row = []
        for name in bounds:
            value = result["metrics"][name]["value"]
            values[name].append(value)
            row.append(f"{name}={value:.4g}")
        print(f"seed {seed}: " + " ".join(row) + f" (cpu steal {steal})",
              flush=True)

    worst = 0.0
    for name, bound in bounds.items():
        series = values[name]
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(worst, spread / bound)
        print(f"{name:18s} median {med:12.4f}  iqr/median {spread:7.4f}  "
              f"bound {bound:5.2f}  share of bound {spread / bound:5.2f}")
    print(f"largest spread as share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
