#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

From the repository root:

    python3 perfbench/selftest.py [--seconds 3]

Runs every workload of BENCHMARK.json for a few seconds, untraced and
traced, and checks the result line: exactly the keys correct, attempted,
failed and metrics; correct is true; every end-to-end metric (untraced)
or per-layer metric (traced) is present with the unit BENCHMARK.json
gives it and a finite value. Also checks that a run with an AERO_*
variable set is refused without a result. Exits 1 on the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys


def run(workload, seconds, trace, env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, env=env)


def check_result(done, expected, label):
    if done.returncode != 0:
        return f"{label}: exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"{label}: last stdout line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys are {sorted(result)}"
    if result["correct"] is not True:
        return f"{label}: correct is not true"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return f"{label}: attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return f"{label}: failed must be a whole number"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"{label}: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            return f"{label}: {name} has unit {metrics[name]['unit']}, want {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{label}: {name} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            problem = check_result(run(workload, args.seconds, trace),
                                   expected, label)
            print(f"{label}: {problem or 'ok'}", flush=True)
            if problem:
                failures.append(problem)

    env = dict(os.environ, AERO_BATCH="0")
    refused = run(bench["workloads"][0]["name"], args.seconds, 0, env)
    if refused.returncode == 0 or refused.stdout.strip().startswith("{"):
        failures.append("a run with AERO_BATCH set was not refused")
    print("AERO_* refusal:", "ok" if refused.returncode != 0 else "FAILED")

    if failures:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
