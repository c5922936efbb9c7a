#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json at the repository
root; this script prints every metric it declares, by name and unit.

* --trace 0 prints the end-to-end metrics. Simulator cost is host time:
  host_ops_per_ref_s, operations per second of the median measured run
  (over the runs that fit in --seconds after one warm-up run; xdp_ingress
  takes the median of each of 32 slices of its run), where each run's wall
  time is converted to seconds of a reference host by a fixed CPU-bound
  pass timed right before and after it, so that the shared host's swings
  in speed cancel out; setup_s, set-up time in the same reference seconds
  (median over fresh processes); and peak RSS. The unscaled wall figures
  are printed in the report. Modelled service is sim-time: mean client
  latency, goodput and the share of operations that succeeded in time; it
  repeats exactly for a fixed seed.
* --trace 1 prints the per-layer metrics from untraced, traced and (for
  kv_fleet) one-shard and threaded runs of the same seed.

The simulator and the harness are built from source, optimised, under
$CARGO_TARGET_DIR (default .bench_build) in the repository root. Each
workload runs in its own harness process, so peak RSS belongs to that
workload alone. The harness checks each workload's outputs (see harness.cc)
and that every run of one seed reproduces the same modelled results; on a
failed check this script prints {"correct": false, ...} with no metrics and
exits 1.

Seeds: record baselines with seed 1; confirm a claimed gain on the held-out
seed 7 as well.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything before it is a human-readable report, including the machine
context (CPUs, build type, compiler, source digest, CPU steal during run).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
HARNESS_TIMEOUT_S = 150
# Set-up is timed in this many fresh harness processes (median reported).
SETUP_SAMPLES = 9

# Which kind of number each end-to-end metric is.
KIND = {
    "host_ops_per_ref_s": "simulator",
    "setup_s": "simulator",
    "peak_rss_mib": "simulator",
    "sim_mean_us": "modelled",
    "sim_goodput_ops_s": "modelled",
    "ok_pct": "modelled",
}

# The count each per-layer metric is a ratio or share of, as a key of the
# harness' layer block.
BASE = {
    "sim.wall_ns_per_event": "sim.events",
    "sim.threaded_wall_ns_per_event": "sim.events",
    "sim.barrier_ns_per_event": "sim.events",
    "sim.epoch_ns_per_event": "sim.events",
    "sim.events_per_op": "sim.ops",
    "sim.windows_skipped_pct": "sim.windows",
    "dpu.rpc_frames_per_op": "sim.ops",
    "nvme.commands_per_op": "sim.ops",
    "nvme.doorbells_per_op": "sim.ops",
    "net.sim_ns_per_op": "sim.ops",
    "rpc.sim_ns_per_op": "sim.ops",
    "nvme.sim_ns_per_op": "sim.ops",
    "store.sim_ns_per_op": "sim.ops",
    "fpga.sim_ns_per_op": "sim.ops",
    "app.sim_ns_per_op": "sim.ops",
    "format.device_bytes_per_query": "scan.queries",
    "format.groups_skipped_pct": "scan.queries",
    "fpga.reconfigs_per_query": "scan.queries",
    "scan.mean_us": "scan.queries",
    "fpga.fast_hit_pct": "fpga.flow_stage_frames",
    "load.slow_path_pct": "sim.ops",
    "obs.trace_overhead_pct": "obs.trace_roots",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"missing {path}")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench-release")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_harness", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the report.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_harness")


def source_digest():
    """sha256 over the simulator and benchmark sources; identifies the code
    even in a source export without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_ticks():
    """(total, steal) jiffies from /proc/stat; steal is CPU time the
    hypervisor gave to other guests."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return sum(fields), fields[7] if len(fields) > 7 else 0


def run_harness(harness, argv):
    """Runs one harness process; returns its JSON result or exits when the
    workload's correctness check fails."""
    try:
        proc = subprocess.run([harness] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if not out.get("correct") or proc.returncode != 0:
        print(f"perfbench: correctness check failed: "
              f"{out.get('error', f'harness exited {proc.returncode}')}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        sys.exit(1)
    return out


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    args = parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    harness = build()
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    ticks_before = cpu_ticks()
    started = time.monotonic()
    setups = [run_harness(harness, workload + ["--setup-only", "1"])["setup"]
              for _ in range(SETUP_SAMPLES)]
    out = run_harness(harness, workload + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)])
    wall = time.monotonic() - started
    ticks_after = cpu_ticks()
    setup = {name: statistics.median(s[name] for s in setups) for name in setups[0]}
    out["e2e"]["setup_s"] = setup.pop("setup_s")
    out["layer"].update(setup)

    total = ticks_after[0] - ticks_before[0]
    steal_pct = 100.0 * (ticks_after[1] - ticks_before[1]) / total if total > 0 else 0.0
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": out["build_type"],
        "optimised": out["optimised"],
        "compiler": out["compiler"],
        "benchmark_library": "none (standalone harness, no Google Benchmark)",
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_steal_pct": round(steal_pct, 2),
        "harness_wall_s": round(wall, 2),
        "measured_runs": out["runs"],
        "variant_runs": out["variant_runs"],
    }
    print("context " + json.dumps(context))
    if not out["optimised"]:
        print("WARNING: harness built without optimisation; simulator-cost "
              "numbers are not comparable")
    print(f"measured runs, wall s: {[round(x, 4) for x in out['run_s']]}")
    print(f"wall throughput {fmt(out['host']['wall_ops_per_s'])} ops/s; reference seconds "
          f"per wall second {fmt(out['host']['host_scale'])} (median over the runs)")
    print(f"fresh-process set-ups, reference s: {[round(s['setup_s'], 4) for s in setups]}, "
          f"wall s: {[round(s['setup_wall_s'], 4) for s in setups]}")
    modelled = out["modelled"]
    exact = "exact" if modelled.get("latency_exact") else "log-bucketed, +-3%"
    print(f"modelled latency of {int(modelled['latency_samples'])} in-deadline successes: "
          f"mean {fmt(modelled['sim_mean_us'])} us, p50 {fmt(modelled['sim_p50_us'])} us, "
          f"p99 {fmt(modelled['sim_p99_us'])} us ({exact})")
    if "scan_queries" in modelled:
        print(f"modelled scan latency of {int(modelled['scan_queries'])} queries: "
              f"mean {fmt(modelled['scan_mean_us'])} us, p50 {fmt(modelled['scan_p50_us'])} us, "
              f"p99 {fmt(modelled['scan_p99_us'])} us, ICAP reconfig p50 "
              f"{fmt(modelled['scan_reconfig_p50_ms'])} ms (log-bucketed, +-3%)")
    print(f"operations per run: {out['attempted']} attempted, {out['failed']} not an "
          f"in-deadline success")

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            value = out["e2e"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"end_to_end {m['name']} = {fmt(value)} {m['unit']} "
                  f"[{KIND[m['name']]}]")
    else:
        layer = out["layer"]
        for m in spec["per_layer"]:
            name = m["name"]
            value = layer.get(name)
            base = BASE.get(name)
            note = ""
            if value is None:
                value, note = 0.0, " (n/a on this workload)"
            elif base is not None:
                note = f" (base: {fmt(layer.get(base, 0))} {base})"
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"per_layer {name} = {fmt(value)} {m['unit']}{note}")

    print(json.dumps({"correct": True, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
