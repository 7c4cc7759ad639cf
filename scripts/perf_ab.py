#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a parent revision against a change.

    python3 scripts/perf_ab.py --parent <rev> --change <rev> [--pairs 10]
        [--workloads router_mix,pool_dip32] [--seconds 30] [--seed-base 7000]
        [--claim router_mix/throughput_pps] [--log .bench_build/ab/ab.jsonl]

Run from the repository root. Each <rev> is any git tree-ish: a commit, a
branch, or the id that `git stash create` or `git write-tree` prints for
uncommitted work. Each is extracted with `git archive` into
.bench_build/ab/<tree id>/ (no worktree metadata) and builds into its own
CARGO_TARGET_DIR beside it, so the two sides never share objects.

For every workload, pair i runs `perfbench/run.py --trace 0` once per side
with seed seed-base + i; the side that runs first alternates from pair to
pair, so slow host phases land on both sides alike. It then prints, per
end-to-end metric of BENCHMARK.json: each side's median and quartiles, the
change of the medians in % (positive = better), how many pairs the change
won, and flags:
  WORSE       the change's median is worse than the parent's by more than
              the metric's bound;
  UNRESOLVED  either side's quartile spread, as a share of its median,
              exceeds the bound (the runs cannot tell the sides apart).
With --claim workload/metric it also applies the gain rule: the change wins
at least 9 of every 10 pairs, and its median beats the parent's by more than
the parent's inter-quartile distance; it prints MET or NOT MET.

Every run's result line, and every summary row, is appended to --log as
JSON lines. Exit status is 1 when any run fails, any metric is WORSE, or a
claim is NOT MET; UNRESOLVED alone does not fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def tree_id(rev):
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{tree}"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"perf_ab: not a git tree-ish: {rev}")
    return out.stdout.strip()


def extract(rev):
    """Extract rev once into .bench_build/ab/<tree>; returns (tree dir, build dir)."""
    tree = tree_id(rev)
    src = os.path.join(AB_DIR, tree[:16])
    done = os.path.join(src, ".extracted")
    if not os.path.exists(done):
        os.makedirs(src, exist_ok=True)
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", tree],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.exit(f"perf_ab: git archive {rev} failed: {archive.stderr.decode()[-500:]}")
        tar_path = src + ".tar"
        with open(tar_path, "wb") as f:
            f.write(archive.stdout)
        with tarfile.open(tar_path) as t:
            t.extractall(src)
        os.remove(tar_path)
        open(done, "w").close()
    return src, src + "-build"


def run_once(tree, build, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--seed-base", type=int, default=7000)
    parser.add_argument("--claim", action="append", default=[],
                        help="workload/metric the change claims to improve (repeatable)")
    parser.add_argument("--log", default=os.path.join(".bench_build", "ab", "ab.jsonl"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in spec["workloads"]]
    claims = {tuple(c.split("/", 1)) for c in args.claim}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload, metric in claims:
        if workload not in workloads or metric not in metrics:
            sys.exit(f"perf_ab: claim {workload}/{metric} names no run workload/metric")
    sides = {"parent": extract(args.parent), "change": extract(args.change)}
    log_path = os.path.join(ROOT, args.log)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)

    def log(record):
        with open(log_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    bad = False
    for workload in workloads:
        runs = {"parent": [], "change": []}  # metrics of the pairs both sides completed
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                tree, build = sides[side]
                result = run_once(tree, build, workload, seed, seconds)
                ok = result is not None and result["correct"] and result["failed"] == 0
                log({"type": "run", "workload": workload, "pair": i, "side": side,
                     "rev": getattr(args, side), "seed": seed, "result": result})
                if not ok:
                    print(f"{workload} pair {i} {side}: run failed", flush=True)
                    bad = True
                else:
                    print(f"{workload} pair {i} {side} seed {seed}: " + " ".join(
                        f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                        flush=True)
                pair[side] = result["metrics"] if ok else None
            if pair["parent"] is not None and pair["change"] is not None:
                runs["parent"].append(pair["parent"])
                runs["change"].append(pair["change"])

        n = len(runs["parent"])
        print(f"\n== {workload}: {n} complete pairs of {seconds} s")
        print(f"{'metric':16} {'side':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'change%':>8} {'wins':>6}  flags")
        if n == 0:
            continue
        for name, m in metrics.items():
            higher = m["better"] == "higher"
            bound = m["bound"]
            values = {s: [r[name]["value"] for r in runs[s]] for s in runs}
            stats = {s: quartiles(values[s]) for s in values}
            spread = {s: (stats[s][2] - stats[s][0]) / stats[s][1] if stats[s][1] else 0.0
                      for s in values}
            p_med, c_med = stats["parent"][1], stats["change"][1]
            gain = ((c_med - p_med) if higher else (p_med - c_med)) / p_med if p_med else 0.0
            wins = sum(1 for p, c in zip(values["parent"], values["change"])
                       if (c > p if higher else c < p))
            flags = []
            if gain < -bound:
                flags.append("WORSE")
                bad = True
            if max(spread.values()) > bound:
                flags.append("UNRESOLVED")
            claim = None
            if (workload, name) in claims:
                iqr = stats["parent"][2] - stats["parent"][0]
                beyond = (c_med - p_med if higher else p_med - c_med) > iqr
                claim = "MET" if wins * 10 >= 9 * n and beyond else "NOT MET"
                flags.append(f"claim {claim}")
                bad |= claim != "MET"
            for side in ("parent", "change"):
                q1, q2, q3 = stats[side]
                tail = (f"{100 * gain:8.1f} {wins:>3}/{n:<2}  {' '.join(flags)}"
                        if side == "change" else "")
                print(f"{name:16} {side:6} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread[side]:7.3f} {tail}")
            log({"type": "summary", "workload": workload, "metric": name, "pairs": n,
                 "parent": stats["parent"], "change": stats["change"],
                 "gain": gain, "wins": wins, "bound": bound, "flags": flags, "claim": claim})
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
