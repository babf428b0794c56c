#!/usr/bin/env python3
"""Runs interleaved perfbench pairs of two commits and records the result.

From the repository root:

    python3 scripts/ab_pairs.py --base HEAD~1 --change HEAD \\
        --workload train_fit --pairs 10 --first-seed 2101 [--label "tiled matmul"]
    python3 scripts/ab_pairs.py --selftest

Each side is a git revision, extracted with `git archive` into a
temporary directory (so an interrupted run leaves nothing behind in the
repository), or WORKTREE: the checkout's tracked and untracked,
not-ignored files as they are now, uncommitted edits included. Each side
builds perfbench once from its own sources (an untimed warm-up run),
then pair i runs both sides at seed first_seed + i for BENCHMARK.json's
run_seconds through perfbench/run.py, alternating which side runs first.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and interquartile range (statistics.quantiles, n=4, as
perfbench/spread.py), the change/base ratio, the pairs the change won,
the gap between the medians as a multiple of the base's IQR, and
whether the rule for claiming a gain holds (at least 9 in 10 pairs won
and a median gap over the base's IQR). It also prints each run's CPU
steal as perfbench reported it, and appends one row per (commit,
workload, metric) to BENCH_perfbench.json.

A row's q1 and q3 are spread(values) when it carries its per-pair
values ("quartiles": "exclusive", statistics.quantiles' default
method). Rows copied from EXPERIMENTS.md without their values keep the
printed quartiles and name the method they were computed with
("inclusive") or say it was "not recorded". A WORKTREE side with
uncommitted edits has no commit yet: its rows carry "commit": null and
"on": the commit those edits were made on, and belong to the commit
that lands the edits, the first one after "on".

--selftest checks the statistics, the gain rule, the pair order and the
row format on fixed inputs, and every row of BENCH_perfbench.json
against the quartile rule above; it needs no build.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKTREE = "WORKTREE"
RECORD = "BENCH_perfbench.json"
RUN_TIMEOUT_S = 400
QUARTILE_METHODS = ("exclusive", "inclusive", "not recorded")


def fail(message):
    print(f"scripts/ab_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args, cwd="."):
    done = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def resolve(side):
    """The fields that name a side's sources in its rows: its commit, or
    for uncommitted edits no commit and the commit they were made on."""
    if side != WORKTREE:
        return {"commit": git("rev-parse", side + "^{commit}").strip()[:12]}
    head = git("rev-parse", "HEAD").strip()[:12]
    if git("status", "--porcelain").strip():
        return {"commit": None, "on": head}
    return {"commit": head}


def extract(side, dest):
    """Puts the sources of `side` into the empty directory `dest`."""
    os.makedirs(dest)
    if side != WORKTREE:
        archive = subprocess.Popen(["git", "archive", side],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", dest],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail(f"could not extract {side}")
        return
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    for name in filter(None, files):
        if not os.path.isfile(name):
            continue  # deleted but not yet staged
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
        shutil.copy2(name, target)


def clean_env():
    """perfbench refuses to run with any AERO_* variable set."""
    return {k: v for k, v in os.environ.items() if not k.startswith("AERO_")}


def parse_output(stdout):
    """(result dict, steal percent or None) from a perfbench stdout."""
    lines = stdout.strip().splitlines()
    steal = None
    for line in lines:
        if line.startswith("# host: cpu steal"):
            steal = float(line.split()[4].rstrip("%"))
    return json.loads(lines[-1]), steal


def run_side(directory, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=directory, env=clean_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{directory}: seed {seed} ran over {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{directory}: seed {seed} exited {done.returncode}")
    return parse_output(done.stdout)


def pair_order(index):
    """Sides of pair `index` in running order: the base first on even
    pairs, the change first on odd ones."""
    return ("base", "change") if index % 2 == 0 else ("change", "base")


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(base, change, better):
    """Compares two equally long lists of per-pair values of one metric,
    where `better` is "higher" or "lower"."""
    b_med, b_q1, b_q3 = spread(base)
    c_med, c_q1, c_q3 = spread(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    iqr = b_q3 - b_q1
    gap = abs(c_med - b_med)
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / b_med if b_med else None,
        "wins": wins,
        "pairs": len(base),
        "gap_over_base_iqr": gap / iqr if iqr > 0 else float("inf"),
        # The rule for claiming a gain: the change wins at least nine
        # tenths of the pairs and its median is better by more than the
        # base's IQR.
        "gain": (sign * (c_med - b_med) > 0 and 10 * wins >= 9 * len(base)
                 and gap > iqr),
    }


def make_rows(commits, label, workload, seeds, metrics, series, steal,
              date):
    """One row per (commit, workload, metric): the base side's, then the
    change side's, which also carries the comparison."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        summary = summarize(series["base"][name], series["change"][name],
                            metric["better"])
        for side in ("base", "change"):
            row = {
                **commits[side],
                "label": label if side == "change" else f"parent of {label}",
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "median": round(summary[side]["median"], 4),
                "q1": round(summary[side]["q1"], 4),
                "q3": round(summary[side]["q3"], 4),
                "quartiles": "exclusive",
                "values": [round(v, 4) for v in series[side][name]],
                "seeds": seeds,
                "steal_pct": steal[side],
                "failed": series[side]["failed"],
                "date": date,
            }
            if side == "change":
                row["vs"] = commits["base"]["commit"]
                row["wins"] = summary["wins"]
                row["pairs"] = summary["pairs"]
                row["ratio"] = (None if summary["ratio"] is None else
                                round(summary["ratio"], 4))
            rows.append(row)
    return rows


def append_rows(path, rows):
    existing = []
    if os.path.exists(path):
        with open(path) as f:
            existing = json.load(f)
    existing.extend(rows)
    with open(path, "w") as f:
        f.write("[\n")
        f.write(",\n".join(json.dumps(row) for row in existing))
        f.write("\n]\n")


def report(metrics, series, seeds, steal, order_log):
    for i, seed in enumerate(seeds):
        first, second = order_log[i]
        print(f"pair {i + 1} seed {seed} ({first} first): steal base "
              f"{steal['base'][i]}%, change {steal['change'][i]}%")
    print(f"{'metric':18s} {'base median [IQR]':>28s} "
          f"{'change median [IQR]':>28s} {'ratio':>7s} {'wins':>6s} "
          f"{'gap/IQR':>8s} gain")
    for metric in metrics:
        name = metric["name"]
        s = summarize(series["base"][name], series["change"][name],
                      metric["better"])
        b, c = s["base"], s["change"]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}x"
        print(f"{name:18s} {b['median']:10.4g} [{b['q1']:.4g}-{b['q3']:.4g}]"
              f"  {c['median']:10.4g} [{c['q1']:.4g}-{c['q3']:.4g}]"
              f"  {ratio:>7s} {s['wins']:2d}/{s['pairs']:<2d}"
              f" {s['gap_over_base_iqr']:8.2f} {'yes' if s['gain'] else 'no'}")
    for side in ("base", "change"):
        print(f"failed ({side}): {series[side]['failed']}")


def run_pairs(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    sides = {"base": args.base, "change": args.change}
    commits = {side: resolve(rev) for side, rev in sides.items()}
    workdir = tempfile.mkdtemp(prefix="ab_pairs_")
    dirs = {side: os.path.join(workdir, side) for side in sides}
    try:
        for side, rev in sides.items():
            extract(rev, dirs[side])
            source = (commits[side]["commit"] or
                      f"edits on {commits[side]['on']}")
            print(f"{side}: {rev} ({source}), building", flush=True)
            run_side(dirs[side], args.workload, 0, 1)

        seeds = [args.first_seed + i for i in range(args.pairs)]
        series = {side: {m["name"]: [] for m in metrics} for side in sides}
        for side in sides:
            series[side]["failed"] = 0
        steal = {side: [] for side in sides}
        order_log = []
        for i, seed in enumerate(seeds):
            order = pair_order(i)
            order_log.append(order)
            for side in order:
                result, side_steal = run_side(dirs[side], args.workload,
                                              seed, seconds)
                for m in metrics:
                    series[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                series[side]["failed"] += result["failed"]
                steal[side].append(side_steal)
            print(f"pair {i + 1}/{args.pairs} seed {seed} (base/change): " +
                  ", ".join(f"{m['name']} {series['base'][m['name']][-1]:.4g}"
                            f"/{series['change'][m['name']][-1]:.4g}"
                            for m in metrics), flush=True)
        report(metrics, series, seeds, steal, order_log)
        date = datetime.date.today().isoformat()
        rows = make_rows(commits, args.label, args.workload, seeds, metrics,
                         series, steal, date)
        append_rows(RECORD, rows)
        print(f"appended {len(rows)} rows to {RECORD}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_stored(rows):
    """Problems with recorded rows: missing fields, a median outside its
    quartiles, or quartiles that break the rule of the module docstring."""
    required = {"commit", "label", "workload", "metric", "median", "q1",
                "q3", "quartiles"}
    problems = []
    for i, row in enumerate(rows):
        missing = required - set(row)
        if missing:
            problems.append(f"row {i} lacks {sorted(missing)}")
            continue
        if row["commit"] is None and "on" not in row:
            problems.append(f"row {i} names neither a commit nor 'on'")
        if row["quartiles"] not in QUARTILE_METHODS:
            problems.append(f"row {i}: unknown quartile method "
                            f"{row['quartiles']!r}")
        if not row["q1"] <= row["median"] <= row["q3"]:
            problems.append(f"row {i}: median outside its quartiles")
        if "values" in row:
            # Stored figures are rounded to 4 decimals, values included.
            want = spread(row["values"])
            got = (row["median"], row["q1"], row["q3"])
            if row["quartiles"] != "exclusive" or any(
                    abs(w - g) > 2e-4 for w, g in zip(want, got)):
                problems.append(f"row {i}: q1, q3 are not spread(values)")
    return problems


def selftest():
    problems = []

    def check(condition, message):
        if not condition:
            problems.append(message)

    check(pair_order(0) == ("base", "change"), "pair 0 runs the base first")
    check(pair_order(1) == ("change", "base"), "pair 1 runs the change first")
    check(spread([3.0]) == (3.0, 3.0, 3.0), "one value is its own spread")
    med, q1, q3 = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    check((med, q1, q3) == (4.5, 2.25, 6.75),
          f"spread of 1..8 is (4.5, 2.25, 6.75), got {(med, q1, q3)}")

    base = [10.0, 11.0, 12.0, 13.0]
    change = [12.0, 10.5, 15.0, 16.0]
    up = summarize(base, change, "higher")
    check(up["wins"] == 3, f"higher-is-better wins 3/4, got {up['wins']}")
    check(not up["gain"], "3 wins of 4 do not meet the gain rule")
    check(abs(up["ratio"] - 13.5 / 11.5) < 1e-12, "ratio of the medians")
    check(abs(up["gap_over_base_iqr"] - 2.0 / 2.5) < 1e-12,
          f"gap 2.0 over base IQR 2.5, got {up['gap_over_base_iqr']}")
    down = summarize(base, change, "lower")
    check(down["wins"] == 1, f"lower-is-better wins 1/4, got {down['wins']}")
    check(not down["gain"], "a higher median is no gain when lower is "
          "better")
    clear = summarize(base, [20.0, 21.0, 22.0, 23.0], "higher")
    check(clear["gain"], "4/4 wins and a gap over the IQR meet the gain rule")
    narrow = summarize(base, [10.5, 11.5, 12.5, 13.5], "higher")
    check(not narrow["gain"], "4/4 wins with a gap under the IQR do not")
    ties = summarize([1.0, 2.0], [1.0, 2.0], "higher")
    check(ties["wins"] == 0, "a tie is not a win")
    check(ties["gap_over_base_iqr"] == 0.0, "equal medians have no gap")

    stdout = ("# workload train_fit\n# host: cpu steal 2.5% of the run\n"
              '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
              '{"p50_ms": {"value": 1.5, "unit": "ms"}}}\n')
    result, steal = parse_output(stdout)
    check(steal == 2.5, f"steal parsed as 2.5, got {steal}")
    check(result["metrics"]["p50_ms"]["value"] == 1.5, "result line parsed")

    metrics = [{"name": "p50_ms", "unit": "ms", "better": "lower"}]
    series = {"base": {"p50_ms": [2.0, 4.0], "failed": 0},
              "change": {"p50_ms": [1.0, 3.0], "failed": 0}}
    rows = make_rows({"base": {"commit": "aaa"},
                      "change": {"commit": None, "on": "aaa"}},
                     "tiles", "train_fit", [5, 6], metrics, series,
                     {"base": [0.1, 0.2], "change": [0.3, 0.4]}, "2000-01-01")
    check(len(rows) == 2, "one row per commit and metric")
    check(rows[0]["commit"] == "aaa" and "on" not in rows[0],
          "the base row names its commit")
    check(rows[1]["commit"] is None and rows[1]["on"] == "aaa",
          "uncommitted edits name the commit they were made on")
    check(rows[1]["wins"] == 2 and rows[1]["vs"] == "aaa",
          "the change row carries wins and the base commit")
    check(rows[1]["median"] == 2.0 and rows[0]["median"] == 3.0,
          "rows carry each side's median")
    check(not check_stored(rows), "fresh rows keep the quartile rule")
    skewed = dict(rows[0], q1=2.5)
    check(check_stored([skewed]) == ["row 0: q1, q3 are not spread(values)"],
          "quartiles that are not spread(values) are caught")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        append_rows(path, rows[:1])
        append_rows(path, rows[1:])
        with open(path) as f:
            stored = json.load(f)
        check(stored == rows, "append keeps earlier rows and adds new ones")

    if os.path.exists(RECORD):
        with open(RECORD) as f:
            problems += [f"{RECORD} {p}" for p in check_stored(json.load(f))]

    for problem in problems:
        print(f"ab_pairs selftest: FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("ab_pairs selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--base", help="git revision of the base side")
    parser.add_argument("--change",
                        help=f"git revision of the change side, or {WORKTREE}")
    parser.add_argument("--workload", choices=["bulk_repeat", "train_fit"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="", help="e.g. the PR title")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not (args.base and args.change and args.workload):
        fail("--base, --change and --workload are required")
    if args.pairs < 1 or args.first_seed < 0:
        fail("--pairs must be >= 1 and --first-seed >= 0")
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root")
    run_pairs(args)


if __name__ == "__main__":
    main()
