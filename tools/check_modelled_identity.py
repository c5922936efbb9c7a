#!/usr/bin/env python3
"""Fail unless a repository-benchmark run models exactly the committed result.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_fleet --seed 1 --seconds 5 --trace 0 \\
        > perfbench_kv_fleet.txt
    python3 tools/check_modelled_identity.py --result perfbench_kv_fleet.txt

`--result` is the output of one `perfbench/run.py --trace 0` run; its last
line is the JSON object run.py prints, and the report's `context` line
names the workload and seed. The modelled metrics (sim_mean_us,
sim_goodput_ops_s, ok_pct) are virtual-time results: for a fixed seed they
repeat bit for bit on any host, so a change that only makes the simulator
cheaper to run must leave them exactly equal. They are compared with ==,
not a tolerance.

The baseline is the newest BENCH_PR<n>.json in the repository root (highest
n) that records perfbench runs of the workload at that seed; within it, the
runs of the recorded change ("side": "change", or records with no side),
which must all agree. A change that means to move a modelled number commits
a new BENCH_PR<n>.json with the new runs (and says so in CHANGES.md); this
check then holds the next change to the new numbers.
"""

import argparse
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELLED = ("sim_mean_us", "sim_goodput_ops_s", "ok_pct")


def fail(message):
    print(f"check_modelled_identity: {message}", file=sys.stderr)
    sys.exit(1)


def read_result(path):
    """Returns (workload, seed, {metric: value}) from a run.py report."""
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        fail(f"{path} is empty")
    context = None
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    if context is None:
        fail(f"{path} has no context line (not a perfbench/run.py report?)")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        fail(f"{path}: the run failed its correctness check")
    metrics = result.get("metrics", {})
    missing = [m for m in MODELLED if m not in metrics]
    if missing:
        fail(f"{path} lacks {missing} (was it run with --trace 0?)")
    return context["workload"], context["seed"], {m: metrics[m]["value"] for m in MODELLED}


def bench_files():
    """BENCH_PR<n>.json files in the repository root, newest (highest n) first."""
    numbered = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_PR*.json")):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", os.path.basename(path))
        if match:
            numbered.append((int(match.group(1)), path))
    return [path for _, path in sorted(numbered, reverse=True)]


def baseline_for(workload, seed):
    """Returns (path, {metric: value}) from the newest file recording the
    workload at the seed."""
    for path in bench_files():
        with open(path) as f:
            data = json.load(f)
        runs = data.get("runs") if isinstance(data, dict) else None
        if not isinstance(runs, list):
            continue
        rows = [r for r in runs
                if r.get("workload") == workload and r.get("seed") == seed
                and r.get("side", "change") == "change"]
        if not rows:
            continue
        expected = {m: rows[0]["metrics"][m] for m in MODELLED}
        for row in rows[1:]:
            for m in MODELLED:
                if row["metrics"][m] != expected[m]:
                    fail(f"{os.path.basename(path)} disagrees with itself on {workload} "
                         f"seed {seed} {m}: {expected[m]!r} vs {row['metrics'][m]!r}")
        return path, expected
    fail(f"no BENCH_PR<n>.json records perfbench runs of {workload} at seed {seed}")
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--result", required=True,
                        help="saved stdout of one perfbench/run.py --trace 0 run")
    args = parser.parse_args()

    workload, seed, got = read_result(args.result)
    path, expected = baseline_for(workload, seed)
    name = os.path.basename(path)
    drifted = [m for m in MODELLED if got[m] != expected[m]]
    for m in MODELLED:
        mark = "ok" if m not in drifted else "DRIFTED"
        print(f"{workload} seed {seed} {m}: {got[m]!r} vs {name} {expected[m]!r} [{mark}]")
    if drifted:
        fail(f"modelled metrics {drifted} of {workload} moved from {name}; a deliberate "
             f"rebaseline commits a new BENCH_PR<n>.json with the new runs")
    print(f"check_modelled_identity: {workload} seed {seed} models exactly as in {name}")


if __name__ == "__main__":
    main()
