#!/usr/bin/env python3
"""Repeat and compare mode of the cuTS repository benchmark.

Run workloads N times, each run a fresh process with its own seed, and
summarise every end-to-end metric (median, quartiles, spread):

    python3 perfbench/repeat.py run --workload solo-skewed --workload dist-skewed \\
        --runs 10 --seed 100 --out set_a.json [--root ../parent --root .]

Successive iterations alternate the order of the workloads and of the
checkouts (--root, default the current directory), so slow host phases
fall on every side alike. Each set is checked against the spread bound
BENCHMARK.json records for each metric, setup_s included.

Compare two sets, for instance of the same code at two times:

    python3 perfbench/repeat.py compare set_a.json set_b.json

or the two checkouts of one set made with two --root (first, then
second):

    python3 perfbench/repeat.py compare pair.json

This fails when, for any workload and metric, the second set's median
is worse than the first's by more than the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "n": len(values)}


def worse_by(first, second, better):
    """Relative worsening of `second` against `first` (positive = worse)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} in {root} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def cmd_run(args):
    spec = load_spec(args.roots[0])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {r: {w: {} for w in args.workload} for r in args.roots}
    for i in range(args.runs):
        workloads = args.workload if i % 2 == 0 else args.workload[::-1]
        roots = args.roots if i % 2 == 0 else args.roots[::-1]
        for w in workloads:
            for root in roots:
                res = run_once(root, w, args.seed + i, seconds)
                if not res["correct"] or res["failed"]:
                    sys.exit(f"error: {w} seed {args.seed + i}: incorrect output")
                for name, m in res["metrics"].items():
                    values[root][w].setdefault(name, []).append(m["value"])
                print(f"run {i + 1}/{args.runs} {w} seed {args.seed + i} {root}: " +
                      " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr)
    summary = {}
    ok = True
    for root in args.roots:
        summary[root] = {}
        for w in args.workload:
            summary[root][w] = {}
            for name, vals in values[root][w].items():
                s = stats(vals)
                s["values"] = vals
                summary[root][w][name] = s
                bound = bounds[name]["bound"]
                flag = ""
                if s["spread"] > bound:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                print(f"{root} {w:<13} {name:<15} median {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f} "
                      f"(bound {bound}){flag}")
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "runs": summary}, f, indent=1)
    sys.exit(0 if ok else 1)


def cmd_compare(args):
    spec = load_spec(args.root)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as f:
        sets = list(json.load(f)["runs"].values())
    if args.second:
        with open(args.second) as f:
            sets += list(json.load(f)["runs"].values())
    if len(sets) != 2:
        sys.exit("error: compare needs two sets of one checkout each, or one set of two")
    a, b = sets
    ok = True
    for w in a:
        for name, sa in a[w].items():
            sb = b[w][name]
            m = metrics[name]
            worse = worse_by(sa["median"], sb["median"], m["better"])
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  WORSE THAN BOUND", False
            print(f"{w:<13} {name:<15} {sa['median']:<12.6g} -> {sb['median']:<12.6g} "
                  f"worse by {worse:+.3f} (bound {m['bound']}; spreads {sa['spread']:.3f}, "
                  f"{sb['spread']:.3f}){flag}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="repeat workloads in fresh processes")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1, help="seed of the first run; run i uses seed + i")
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--root", dest="roots", action="append", default=None,
                   help="checkout to run (repeatable; default: the current directory)")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="check a second set against a first")
    c.add_argument("first")
    c.add_argument("second", nargs="?")
    c.add_argument("--root", default=".", help="checkout whose BENCHMARK.json holds the bounds")
    args = ap.parse_args()
    if args.cmd == "run":
        args.roots = [os.path.abspath(p) for p in (args.roots or ["."])]
        cmd_run(args)
    else:
        cmd_compare(args)


if __name__ == "__main__":
    main()
