#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, alternating run by run.

    python3 perfbench/steady.py --pairs 10 [--workloads router_mix,...] [--seconds 10]

Run from the repository root. For each workload, pair i runs the benchmark
once for set A (seed base+2i) and once for set B (seed base+2i+1),
alternating which set goes first, so slow host drift lands on both sets
alike; every run has its own seed, so seed-to-seed variation is measured
too. It then
prints, per end-to-end metric, each set's median and quartiles, the
quartile spread as a share of the median, how many pairs each set won, the
same figures over both sets together (set "all"), and flags:
  SPREAD  a set's spread exceeds the metric's bound (setup_s exempt);
  DRIFT   set B's median is worse than set A's by more than the bound;
  TUNE    a spread above a third of the bound (the tuning target).
Every run's result line is appended to --log (JSON lines). Exit status is 1
when any run fails or any SPREAD/DRIFT flag is raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--log", default=os.path.join(".bench_build", "steady.jsonl"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in spec["workloads"]]
    log_path = os.path.join(ROOT, args.log)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    bad = False
    for workload in workloads:
        runs = {"A": [], "B": []}
        for i in range(args.pairs):
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                seed = args.seed_base + 2 * i + (side == "B")
                result = run_once(workload, seed, seconds)
                if result is None or not result["correct"]:
                    print(f"{workload} pair {i} set {side}: run failed")
                    bad = True
                    continue
                runs[side].append(result["metrics"])
                with open(log_path, "a") as log:
                    log.write(json.dumps({"workload": workload, "pair": i, "set": side,
                                          "seed": seed, "result": result}) + "\n")
        print(f"\n== {workload}: {len(runs['A'])}+{len(runs['B'])} runs of {seconds} s")
        print(f"{'metric':16} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'wins':>5}  flags")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            a = [r[name]["value"] for r in runs["A"]]
            b = [r[name]["value"] for r in runs["B"]]
            if not a or not b:
                continue
            wins = {"A": 0, "B": 0}
            for x, y in zip(a, b):
                if x != y:
                    wins["A" if (x > y) == higher else "B"] += 1
            med = {}
            for side, values in (("A", a), ("B", b), ("all", a + b)):
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                med[side] = q2
                flags = []
                if name != "setup_s" and spread > bound:
                    flags.append("SPREAD")
                if spread > bound / 3:
                    flags.append("TUNE")
                bad |= "SPREAD" in flags
                print(f"{name:16} {side:3} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {bound:6.2f} {wins.get(side, ''):>5}  {' '.join(flags)}")
            worse = (med["A"] - med["B"]) / med["A"] if higher else (med["B"] - med["A"]) / med["A"]
            if med["A"] and worse > bound:
                print(f"{name:16} DRIFT: set B worse than set A by {worse:.3f} > {bound}")
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
