#!/usr/bin/env python3
"""Build and run the psim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin 0-10,12345

Every call configures and builds perfbench/ (which compiles the
simulator from src/) into $CARGO_TARGET_DIR/perfbench-<checkout hash>,
default under .bench_build; after the first, both steps are incremental.
Build output goes to stderr, so the benchmark's last stdout line stays
its JSON summary. --workload all runs every workload in a process of
its own, so that each reports its own peak RSS, and merges their
summaries with metric names prefixed "<workload>/". --pin reruns every
workload once per listed seed and rewrites perfbench/pins.json with the
digests of every cell; cells whose digest is the same at every pinned
seed are pinned under "any".
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper16", "bfs64_s2", "server_mix", "fuzz_audit"]


def build_dir():
    # Keyed by checkout, so two checkouts sharing one CARGO_TARGET_DIR
    # do not rebuild over each other.
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), f"perfbench-{key}"))


def build():
    try:
        return build_in(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")


def build_in(out):
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(cache):
        cmd += ["-G", "Ninja"]
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(cmd, stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, check=True, env=env)
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def fold(workload, pins):
    """Move cells pinned alike at every seed (two at least) under "any"."""
    any_ = pins.setdefault("any", {})
    seeds = [k for k in pins if k != "any"]
    for seed in seeds:
        for cell, digest in list(pins[seed].items()):
            if cell in any_:
                if digest != any_[cell]:
                    sys.exit(f"pin: {workload} {cell} is pinned under any, "
                             f"but seed {seed} gives another digest")
                del pins[seed][cell]
    if len(seeds) >= 2:
        for cell in set.intersection(*(set(pins[s]) for s in seeds)):
            digests = {pins[s][cell] for s in seeds}
            if len(digests) == 1:
                any_[cell] = digests.pop()
                for s in seeds:
                    del pins[s][cell]
    for key in [k for k in pins if not pins[k]]:
        del pins[key]


def pin(binary, seeds):
    path = os.path.join(HERE, "pins.json")
    pins = {}
    if os.path.exists(path):
        with open(path) as f:
            pins = json.load(f)
    for workload in WORKLOADS:
        for seed in seeds:
            res = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed), "--emit-pins",
                 "--root", ROOT, "--scratch", os.path.join(build_dir(), "tmp")],
                stdout=subprocess.PIPE, text=True)
            if res.returncode != 0:
                sys.exit(f"pin: {workload} seed {seed} failed its checks; not pinned")
            pinned = json.loads(res.stdout.strip().splitlines()[-1])
            pins.setdefault(workload, {})[pinned["key"]] = pinned["digests"]
            print(f"pinned {workload} seed {seed} as {pinned['key']}: "
                  f"{len(pinned['digests'])} cells", file=sys.stderr)
        fold(workload, pins[workload])
    save_pins(path, pins)


def save_pins(path, pins):
    with open(path, "w") as f:
        f.write("{\n")
        rows = [f'  "{w}": {{\n' + ",\n".join(
                    f'    "{s}": {json.dumps(pins[w][s], sort_keys=True)}'
                    for s in sorted(pins[w], key=lambda k: k.zfill(20))) + "\n  }"
                for w in sorted(pins)]
        f.write(",\n".join(rows) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", metavar="SEEDS", help="e.g. 0-10,12345")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.pin):
        ap.error("one of --workload, --selftest, --pin is required")

    out = build()
    scratch = os.path.join(out, "tmp")
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest"), scratch]).returncode)
    binary = os.path.join(out, "perfbench")
    if args.pin:
        pin(binary, parse_seeds(args.pin))
        return
    sys.stdout.flush()
    cmd = [binary, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT, "--scratch", scratch]
    if args.workload != "all":
        sys.exit(subprocess.run(cmd + ["--workload", args.workload]).returncode)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run(cmd + ["--workload", workload],
                             stdout=subprocess.PIPE, text=True)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"perfbench: {workload} exited {res.returncode} without a result")
        merged["correct"] = merged["correct"] and out["correct"] and res.returncode == 0
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for name, metric in out["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
