#!/usr/bin/env python3
"""Repeat the benchmark, or compare a parent and a change checkout.

    python3 perfbench/compare.py repeat [--workloads W,..] [--runs 10] [--trace 0|1]
    python3 perfbench/compare.py pair --parent DIR --change DIR [--workloads W,..] [--runs 10]

repeat runs this checkout's benchmark --runs times per workload, run i
with seed i, from 1, and prints each metric's median, quartiles and
spread: (q3 - q1) / median, beside the metric's bound.

pair runs parent and change --runs times each with the same seed per
pair, alternating which side runs first, and gives each metric a
verdict by the choosing-metrics rule:
  gain        the change is better in at least 9 of 10 pairs (ties count
              for neither side) and the medians differ by more than the
              parent's quartile spread;
  regression  the change's median is worse than the parent's by more
              than the bound;
  unresolved  the parent's spread exceeds the bound, and not every
              change run beats every parent run;
  same        none of the above.
Per-layer metrics have no bound; they get gain or "no claim".
Run length comes from BENCHMARK.json and is the same on both sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed} exited {res.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in out["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, meta):
    direction, bound = meta["better"], meta.get("bound")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gain = (wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1
            and better(cm, pm, direction))
    if gain:
        return "gain", wins
    if bound is None:
        return "no claim", wins
    worse = (cm - pm) if direction == "lower" else (pm - cm)
    if pm and worse / abs(pm) > bound:
        return "regression", wins
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def fmt(x):
    return f"{x:.6g}"


def cmd_repeat(args, spec, metrics):
    for w in args.workloads:
        runs = [run_once(ROOT, w, seed, args.seconds, args.trace)
                for seed in range(1, args.runs + 1)]
        print(f"{w}: {args.runs} runs, seeds 1..{args.runs}")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            q1, med, q3 = quartiles(vals)
            bound = metrics.get(name, {}).get("bound")
            flag = "" if bound is None or spread(vals) <= bound / 3 else "  > bound/3"
            print(f"  {name:30} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{spread(vals):8.4f} {'' if bound is None else bound:>6}{flag}")


def cmd_pair(args, spec, metrics):
    for w in args.workloads:
        parent, change = [], []
        for seed in range(1, args.runs + 1):
            order = [("parent", args.parent), ("change", args.change)]
            if seed % 2 == 0:
                order.reverse()
            for side, root in order:
                (parent if side == "parent" else change).append(
                    run_once(root, w, seed, args.seconds, args.trace))
        print(f"{w}: {args.runs} pairs, alternating order")
        print(f"  {'metric':30} {'parent med [q1,q3]':>36} {'change med [q1,q3]':>36} "
              f"{'wins':>5}  verdict")
        for name in parent[0]:
            pv = [r[name] for r in parent]
            cv = [r[name] for r in change]
            v, wins = verdict(pv, cv, metrics[name])
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"  {name:30} {fmt(pq[1]):>12} [{fmt(pq[0])},{fmt(pq[2])}]".ljust(68)
                  + f" {fmt(cq[1]):>12} [{fmt(cq[0])},{fmt(cq[2])}]".ljust(37)
                  + f" {wins:>5}  {v}")


def main():
    spec, metrics = load_spec(ROOT)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["repeat", "pair"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    args = ap.parse_args()
    args.workloads = args.workloads.split(",")
    if args.mode == "pair":
        if not (args.parent and args.change):
            ap.error("pair needs --parent and --change")
        cmd_pair(args, spec, metrics)
    else:
        cmd_repeat(args, spec, metrics)


if __name__ == "__main__":
    main()
