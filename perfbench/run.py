#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload router_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the program's libraries from src/ plus the dipbench driver) in
Release under $CARGO_TARGET_DIR (default .bench_build); later runs reuse
that build. The run prints a human-readable envelope (commit, build flags,
host, load, seed, command line, per-window spread), then, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics (a layer the workload does not
load reads 0), and the traced detail (self times, tracing overhead, the
mesh residual) is written to a separate file named in the envelope.

Exit status is 0 only when the build succeeded and every correctness check
passed.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("router_mix", "pool_dip32", "mesh_torus")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build dipbench; returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "dipbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build failed: {' '.join(cmd)} (log: {log_path})")
    binary = os.path.join(out_dir, "dipbench")
    if not os.path.exists(binary):
        die("build produced no dipbench binary")
    return binary


def source_commit():
    """The git commit when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(results, stem + ".raw.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.jsonl")]

    load_before = loadavg()
    started = time.time()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    elapsed = time.time() - started
    try:
        with open(raw_path) as f:
            raw = json.load(f)
    except (OSError, ValueError) as e:
        die(f"dipbench exited {proc.returncode} without a readable result ({e})")

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and not args.trace:
            die(f"{args.workload} did not report end-to-end metric {m['name']}")
        # A per-layer metric the workload does not load (its layer is
        # bypassed) reads 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}

    envelope = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": " ".join(shlex.quote(a) for a in sys.argv),
        "commit": source_commit(),
        "build": raw.get("build", {}),
        "march": "none (program default)" if "-march" not in raw.get("build", {}).get(
            "cxx_flags", "") else raw["build"]["cxx_flags"],
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "elapsed_s": round(elapsed, 3),
        "window_spread": {k[: -len(".window_spread")]: v for k, v in raw["diag"].items()
                          if k.endswith(".window_spread")},
        "window_median": {k[: -len(".window_median")]: v for k, v in raw["diag"].items()
                          if k.endswith(".window_median")},
        "samples": {k: raw["diag"][k] for k in ("windows", "latency_samples",
                                                 "reconverge_samples") if k in raw["diag"]},
        "errors": raw.get("errors", []),
    }
    if args.trace:
        detail_path = os.path.join(results, stem + ".layers.json")
        with open(detail_path, "w") as f:
            json.dump({"envelope": envelope, "per_layer": raw["metrics"],
                       "diag": raw["diag"]}, f, indent=1, sort_keys=True)
        envelope["traced_detail"] = os.path.relpath(detail_path, ROOT)
    print("envelope: " + json.dumps(envelope, sort_keys=True))

    correct = bool(raw["correct"]) and proc.returncode == 0
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
