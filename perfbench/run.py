#!/usr/bin/env python3
"""Runs one workload of the cuTS repository benchmark.

    python3 perfbench/run.py --workload solo-skewed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Builds the benchmark package in
perfbench/ (a workspace of its own, with path dependencies on the engine
crates) into $CARGO_TARGET_DIR (default .bench_build), runs the workload
in a fresh process, prints a human-readable summary, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (the traced run also writes its chrome trace
to .bench_out/). The names must be exactly those BENCHMARK.json declares:
a per-layer metric may be missing from a workload's record only if
NOT_MEASURED lists it for that workload, and is then reported as 0.

Exit code 0 only when the build and the run succeed and every output
check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics grouped by layer, for the lists below.
SNAPSHOT = ["snapshot.decode_ms", "snapshot.bytes"]
PLAN = ["plan.build_ms", "plan.cache_hits", "plan.cache_misses", "self_frac.plan"]
KERNEL_RUNS = ["kernels.run_ms_p50", "kernels.run_ms_p90", "kernels.paths",
               "kernels.useful_ratio", "session.spilled_runs"]
GPUSIM = ["gpusim.sim_ms", "gpusim.dram_words", "gpusim.shmem_words", "gpusim.atomics",
          "gpusim.instructions", "gpusim.divergent_branches", "gpusim.kernel_launches"]
TRIE = ["trie.peak_entries", "arena.slab_acquires", "arena.slab_releases",
        "arena.high_water_words"]
DIST = ["dist.run_ms_p50", "dist.donations", "dist.donations_iqr", "dist.bytes_sent",
        "dist.messages", "dist.chunks", "dist.busy_ms_max", "dist.busy_ms_min",
        "dist.idle_frac", "dist.balance_ratio", "self_frac.dist"]
SERVE = ["serve.exec_ms_p50", "serve.exec_ms_p90", "serve.queue_ms_p50",
         "serve.queue_ms_p90", "serve.latency_ms_p99", "serve.migrated",
         "serve.rank_jobs_ratio", "serve.peak_reserved_frac", "bench.late_ms_p50",
         "bench.late_ms_p99", "self_frac.serve"]
DYNAMIC = ["dynamic.register_ms", "dynamic.dirty_ball_ms_p50", "dynamic.dirty_roots",
           "dynamic.reseeded", "dynamic.released_entries", "dynamic.delta_paths",
           "dynamic.reseed_yield", "self_frac.dynamic"]

# Per-layer metrics each workload does not measure, reported as 0: the
# layers it bypasses, and numbers the public API does not expose for it.
NOT_MEASURED = {
    "solo-skewed": ["graph.apply_batch_ms_p50"] + SNAPSHOT + DIST + SERVE + DYNAMIC,
    # Decodes snapshots instead of building graphs; the tier's sessions,
    # devices and arenas are private, and its kernels run on its lanes,
    # outside the benchmark's spans.
    "serve-light": ["graph.build_ms", "graph.profile_ms", "graph.apply_batch_ms_p50",
                    "gpusim.device_allocs", "self_frac.kernels"]
                   + PLAN + TRIE + DIST + DYNAMIC,
    # cuts_dist::run plans and carves per rank inside the call, and its
    # result carries per-rank counters but no per-run MatchResult.
    "dist-skewed": ["graph.apply_batch_ms_p50", "gpusim.device_allocs", "self_frac.kernels"]
                   + SNAPSHOT + PLAN + KERNEL_RUNS + TRIE + SERVE + DYNAMIC,
    # DynamicSession reports match deltas, not MatchResults.
    "live-updates": ["gpusim.device_allocs", "trie.peak_entries", "self_frac.kernels"]
                    + SNAPSHOT + PLAN + KERNEL_RUNS + GPUSIM + DIST + SERVE,
}


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "cuts-perfbench")


def declared_metrics(trace):
    """Metrics BENCHMARK.json declares for this mode: name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_metrics(workload, trace, measured):
    """The metrics of the result line: what the workload measured, plus 0
    for each per-layer metric it lists as not measured. Fails on any name
    or unit that differs from BENCHMARK.json."""
    declared = declared_metrics(trace)
    skipped = set(NOT_MEASURED[workload]) if trace else set()
    if unknown := skipped - set(declared):
        fail(f"NOT_MEASURED[{workload!r}] names undeclared metrics {sorted(unknown)}")
    if both := skipped & set(measured):
        fail(f"{workload} measured {sorted(both)}, which NOT_MEASURED lists")
    if extra := set(measured) - set(declared):
        fail(f"{workload} reported undeclared metrics {sorted(extra)}")
    if missing := set(declared) - set(measured) - skipped:
        fail(f"{workload} did not report {sorted(missing)}")
    for name, m in measured.items():
        if m["unit"] != declared[name]:
            fail(f"{name}: unit {m['unit']!r}, BENCHMARK.json says {declared[name]!r}")
    metrics = dict(measured)
    for name in sorted(skipped):
        metrics[name] = {"value": 0, "unit": declared[name]}
    return metrics


def summary(record):
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {int(record['trace'])}: correct={record['correct']}"]
    for p in record["phases"]:
        lines.append(f"  phase {p['name']:<12} attempted {p['attempted']:>7} "
                     f"succeeded {p['succeeded']:>7} failed {p['failed']:>4}")
    for e in record["errors"]:
        lines.append(f"  error: {e}")
    if not record["trace"]:
        lines.append(f"  {'metric':<16} {'normalised':>16} {'raw':>16}  unit")
        for name, m in record["end_to_end"].items():
            raw = record["raw"].get(name, m)["value"]
            lines.append(f"  {name:<16} {m['value']:>16.6g} {raw:>16.6g}  {m['unit']}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run: {e}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"workload produced no report (exit {done.returncode})")
    record = json.loads(lines[-1])
    print(summary(record))

    metrics = result_metrics(args.workload, args.trace,
                             record["per_layer" if args.trace else "end_to_end"])
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)

    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and record["correct"] else 1)


if __name__ == "__main__":
    main()
