#!/usr/bin/env bash
# Full verification pipeline: release build + tests + benches, then an
# ASan/UBSan build + tests. This is what CI should run.
#
#   --fast   docs + no-getenv + single-FIB-type + single-switch-model +
#            series-catalogue + one-host-side checks + release build +
#            the unit/property/ctrl/fib/mesh/pisa/
#            dtn test tiers only (see docs/TESTING.md): the inner-loop lane,
#            no benches, no sanitizer rebuilds.
#            `ctest -L fib` alone slices just the FIB lane
#            (docs/FIB.md); `ctest -L mesh` the UDP mesh lane
#            (docs/MESH.md); `ctest -L pisa` the stage-budget compiler +
#            switch-model lane (docs/PISA.md); `ctest -L dtn` the
#            custody/disruption-tolerance lane (docs/DTN.md).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

echo "== docs link check =="
# Markdown link targets (relative ones must exist) and backtick-quoted
# repo paths with an extension (e.g. `tests/stats_test.cpp`) in the
# operator docs must resolve — stale references rot fastest.
fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir=$(dirname "$doc")
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*|'') continue ;;
    esac
    target="${target%%#*}"
    if [ ! -e "$dir/$target" ]; then
      echo "  BROKEN $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
  while IFS= read -r target; do
    if [ ! -e "$target" ]; then
      echo "  BROKEN $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '`(src|tests|bench|examples|docs|scripts)/[A-Za-z0-9_./-]*\.[A-Za-z0-9_]+`' "$doc" | tr -d '`')
done
if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED"
  exit 1
fi
echo "  all links resolve"

echo "== the program reads no environment =="
# A knob in src/ would make the benchmark measure whatever the caller's
# environment selects instead of the program's defaults. Test and bench
# variables (DIP_REGEN_VECTORS, DIP_BENCH_ALLOW_DEBUG) live outside src/.
if grep -rn 'getenv' src/; then
  echo "getenv under src/ FAILED"
  exit 1
fi
echo "  no getenv under src/"

echo "== one FIB type =="
# fib::TreeBitmap is the only LPM table (docs/FIB.md): no virtual interface,
# engine enum or factory comes back, and the binary-trie and DIR-24-8
# references stay in tests/support/ for tests and benches.
if grep -rnwE 'LpmTable|make_lpm|LpmEngine' src tests bench examples ||
   grep -rnwE 'virtual|override' src/fib ||
   grep -rnwE 'BinaryTrie|Dir24' src; then
  echo "single FIB type FAILED"
  exit 1
fi
echo "  fib::TreeBitmap is the only LPM type"

echo "== one switch model, no name FIB =="
# The PISA switch model is one fixed description (docs/PISA.md): no function
# or constructor under src/pisa takes a TnaModel or CostModel, and the second
# deployability check, the model factories and the stateful compiler stay
# deleted. NDN names ride 32-bit codes through the IPv4 LPM, so the unread
# name FIB and its control-plane lane stay deleted too (docs/FIB.md).
if grep -rnwE 'NameFib|names_view|tables_ptr|TofinoConstraints|validate_program|default_tna_model|default_cost_model|StageCompiler' \
     src tests bench examples ||
   grep -rnE '(\(|,)\s*(const\s+)?(pisa::)?(TnaModel|CostModel)\b|^\s*(const\s+)?(pisa::)?(TnaModel|CostModel)\s*&?\s+[a-z_]+\s*[,)=]' \
     src/pisa; then
  echo "one switch model FAILED"
  exit 1
fi
echo "  one fixed switch model; no name FIB"

echo "== every emitted series is catalogued =="
# Each "dip_..." series literal under src/ must appear in
# docs/OBSERVABILITY.md. A catalogue name may group alternatives in braces
# (`dip_mesh_{lost,dropped}_total`), which expand before the comparison; a
# series added without a catalogue row fails here.
python3 - <<'PY'
import pathlib, re, sys
doc = pathlib.Path("docs/OBSERVABILITY.md").read_text()
token = re.compile(r"dip_[A-Za-z0-9_]*(?:\{[A-Za-z0-9_,]+\}[A-Za-z0-9_]*)*")
def expand(name):
    group = re.search(r"\{([A-Za-z0-9_,]+)\}", name)
    if not group:
        return [name]
    return [n for alt in group.group(1).split(",")
            for n in expand(name[:group.start()] + alt + name[group.end():])]
catalogued = {n for t in token.findall(doc) for n in expand(t)}
emitted = set()
for path in pathlib.Path("src").rglob("*"):
    if path.suffix in (".cpp", ".hpp"):
        emitted.update(re.findall(r'"(dip_[A-Za-z0-9_]+)"', path.read_text()))
missing = sorted(emitted - catalogued)
if missing:
    sys.exit("series missing from docs/OBSERVABILITY.md: " + ", ".join(missing)
             + "\nseries catalogue FAILED")
print(f"  all {len(emitted)} series literals under src/ are catalogued")
PY

echo "== one host side =="
# Each host role has one implementation (docs/DTN.md): custody headers are
# minted and the chain digest seeded by dtn::BundleSender alone, and
# host::ReliableSender is the one retransmission loop. A second file calling
# either function, or the deleted consumer config, fleet reassembly state or
# retired-sender list coming back, means a host role was copied again.
for pattern in 'make_dip32_custody_header(' 'chain_mix(0,'; do
  callers=$(grep -rlF -- "$pattern" src |
    grep -vE '^src/dtn/(src/custody\.cpp|include/dip/dtn/custody\.hpp)$' || true)
  if [ "$(printf '%s\n' "$callers" | sed '/^$/d' | wc -l)" -gt 1 ]; then
    echo "  $pattern is called from more than one file under src/:"
    printf '    %s\n' $callers
    echo "one host side FAILED"
    exit 1
  fi
done
if grep -rnwE 'ConsumerConfig|RxBundle|retired_' src; then
  echo "one host side FAILED"
  exit 1
fi
echo "  one custody fragment minter, one ReliableSender"

echo "== release build =="
# Bench lanes depend on this being a real Release tree (-O3, NDEBUG):
# bench_guard.hpp aborts the binaries otherwise. DIP_NATIVE=1 additionally
# tunes codegen for this machine (-march=native) — numbers then only
# compare against baselines measured on the same host.
cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release \
  -DDIP_NATIVE=$([ "${DIP_NATIVE:-0}" = "1" ] && echo ON || echo OFF) >/dev/null
cmake --build build

if [ "$FAST" -eq 1 ]; then
  echo "== tests (--fast: unit + property + ctrl + fib + mesh + pisa + dtn tiers) =="
  ctest --test-dir build -L "unit|property|ctrl|fib|mesh|pisa|dtn" --output-on-failure
  echo "FAST CHECKS PASSED"
  exit 0
fi

echo "== tests =="
ctest --test-dir build -LE bench-smoke --output-on-failure

echo "== hardware AES path is live =="
# dip_crypto picks AES-NI at run time and falls back to the portable rounds
# on a CPU without AES. A broken CPU check would fall back silently (about
# 3x router_mix throughput, no test failure), so on a host that lists
# `aes` every hardware-implementation case of crypto_test must run, not
# skip.
if grep -qw aes /proc/cpuinfo 2>/dev/null; then
  aes_out=$(build/tests/crypto_test --gtest_filter='*Hardware*' 2>&1) || {
    echo "$aes_out"
    echo "hardware AES cases FAILED"
    exit 1
  }
  if grep -q SKIPPED <<<"$aes_out"; then
    grep SKIPPED <<<"$aes_out"
    echo "hardware AES cases skipped on a CPU with AES FAILED"
    exit 1
  fi
  aes_ran=$(sed -n 's/^\[  PASSED  \] \([0-9]*\) test.*/\1/p' <<<"$aes_out")
  if [ "${aes_ran:-0}" -eq 0 ]; then
    echo "no hardware AES case ran FAILED"
    exit 1
  fi
  echo "  $aes_ran hardware AES cases ran on AES-NI"
else
  echo "  CPU lists no aes: portable rounds only"
fi

echo "== benches (smoke lane: ctest -L bench-smoke, ~1 iteration each) =="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "== examples =="
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue  # skip CMake metadata
  "$e" >/dev/null
  echo "  $(basename "$e") ok"
done

echo "== benchmark link-time seams + route recompute cost (short traced perfbench mesh_torus) =="
# perfbench times the mesh by --wrap-ping mangled symbols (sendto/recvfrom,
# the frame codec, mesh::LinkImpairer::next, Router::process_batch) through
# weak __real_ references. A refactor that moves or inlines one of them
# still links, but its traced metric then reads 0 (or the run crashes), so
# every seam metric must be non-zero after a short traced run.
# ctrl.spf_ns is the median mesh::publish_routes call (SPF over the LSDB,
# route diff, journal flush) on the 108-router torus: 10-14 us when SPF
# reads the origin-indexed LSDB and the route set arrives sorted, 21-28 us
# when it gathers the LSAs from a std::map LSDB and the journal sorts the
# set, 74-93 us when it walks the map per edge. A return to the
# map-walking gather fails the 20 us bound.
seam_json=$(python3 perfbench/run.py --workload mesh_torus --seed 1 --seconds 4 --trace 1 | tail -n 1)
python3 - "$seam_json" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
seams = ["mesh.impair_ns", "mesh.frame.encode_ns", "mesh.frame.decode_ns",
         "mesh.socket.send_ns", "mesh.socket.recv_ns", "mesh.burst_pkts_mean"]
dead = [name for name in seams if not metrics.get(name, {}).get("value")]
if dead:
    sys.exit("perfbench seams read 0: " + ", ".join(dead))
spf = metrics.get("ctrl.spf_ns", {}).get("value") or 0.0
if not 0 < spf < 20_000:
    sys.exit(f"ctrl.spf_ns = {spf!r} ns, not in (0, 20000): route recompute walks the LSDB map")
print("  all seams traced: " + ", ".join(f"{n}={metrics[n]['value']:.4g}" for n in seams)
      + f"; spf = {spf:.4g} ns")
PY

echo "== core dispatch series, kernel fn_ns rows + journal publish cost (short traced perfbench router_mix) =="
# router_mix reads core.wave_pkt_share and core.legacy_pkt_share as
# RouterStats::burst_wave and burst_legacy over burst_bound, and
# core.dispatch_ns_per_pkt from the dispatch-phase histogram. Phase 2 counts
# every bound packet in exactly one of the two, so the shares sum to 1; a
# router refactor that stops counting one of them, or stops timing phase 2,
# would otherwise zero these series silently.
# ctrl.flush_ns_p50 is the median journal flush of a one-route flap on a
# 600k-route table set: a few microseconds when the journal recycles its
# standby (left-right publish), ~1.5 ms when every flush clones the table.
# A journal that silently falls back to cloning fails the 100 us bound.
# The core.fn_ns rows of the batched kernels (match32, match128, fib, parm,
# mac) come from the kernels themselves, which time every sampled packet
# they execute; a row that reads 0 means a kernel stopped recording.
core_json=$(python3 perfbench/run.py --workload router_mix --seed 1 --seconds 4 --trace 1 | tail -n 1)
python3 - "$core_json" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
value = lambda name: metrics.get(name, {}).get("value") or 0.0
shares = value("core.wave_pkt_share") + value("core.legacy_pkt_share")
dispatch = value("core.dispatch_ns_per_pkt")
flush = value("ctrl.flush_ns_p50")
if abs(shares - 1.0) > 1e-6:
    sys.exit(f"core.wave_pkt_share + core.legacy_pkt_share = {shares!r}, not 1")
if not dispatch > 0:
    sys.exit(f"core.dispatch_ns_per_pkt = {dispatch!r}, not > 0")
if not 0 < flush < 100_000:
    sys.exit(f"ctrl.flush_ns_p50 = {flush!r} ns, not in (0, 100000): the journal clones")
kernels = [f"core.fn_ns.{fn}" for fn in ("match32", "match128", "fib", "parm", "mac")]
dead = [name for name in kernels if not value(name) > 0]
if dead:
    sys.exit("batched kernels record no fn_ns samples: " + ", ".join(dead))
print(f"  wave + legacy share = {shares:.6f}, dispatch = {dispatch:.4g} ns/pkt, "
      f"flush p50 = {flush:.4g} ns, "
      + ", ".join(f"{n.rsplit('.', 1)[1]} = {value(n):.4g} ns" for n in kernels))
PY

echo "== sanitizer build (ASan + UBSan) =="
cmake -B build-san -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
  >/dev/null
cmake --build build-san

echo "== tests under sanitizers =="
# -LE keeps the full unit/property tiers; the burst-arena and multi-block
# crypto coverage (allocation_test, crypto_test batch oracles, pipeline
# burst suites) runs here under ASan/UBSan in addition to the TSan pass, on
# an AES CPU through the AES-NI rounds (crypto_test's hardware cases pin
# them against the portable ones); and so does the pisa lane (pisa_test's
# stage-budget property suite +
# ndn_switch_test) — the placement compiler's shrinker and report
# formatting are exactly the kind of index arithmetic ASan pays for.
ctest --test-dir build-san -LE bench-smoke --output-on-failure

echo "== bench smoke under sanitizers (arena + multi-block crypto, AES-NI where present) =="
ctest --test-dir build-san -L bench-smoke \
  -R "bench_smoke_bench_batch_pipeline|bench_smoke_bench_crypto|bench_smoke_bench_chaos" \
  --output-on-failure

echo "== TSan build (RouterPool / SpscRing concurrency + chaos harness) =="
cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=Debug -DDIP_SANITIZE=thread \
  >/dev/null
cmake --build build-tsan --target pipeline_test stats_test chaos_test \
  differential_test conformance_test ctrl_test fib_test mesh_test dtn_test

echo "== pipeline + stats + chaos + differential + conformance + ctrl + fib-churn + mesh + dtn tests under TSan =="
# fib_churn_test runs only the TreeBitmapChurn pool-under-journal-flush
# suite (docs/FIB.md) — full fib_test under TSan would mostly re-run
# single-threaded engine oracles at 10x cost. mesh_test includes the
# real-UDP two-thread router exchange (docs/MESH.md) — the thread-
# confinement contract's race probe. dtn_test rides along for the custody
# conformance sweep over the pool engine (docs/DTN.md).
ctest --test-dir build-tsan \
  -R "pipeline_test|stats_test|chaos_test|differential_test|conformance_test|ctrl_test|fib_churn_test|mesh_test|dtn_test" \
  --output-on-failure

echo "== chaos clean-path overhead (BENCH_chaos.json refresh: run manually) =="
# The committed BENCH_chaos.json comes from:
#   build/bench/bench_chaos --benchmark_min_time=0.2 \
#     --benchmark_out=BENCH_chaos.json --benchmark_out_format=json
# The smoke loop above already executes bench_chaos once per run.
# bench/BENCH_control_plane.json (snapshot read overhead vs static FIB)
# is refreshed the same way from bench_control_plane,
# BENCH_fib_scale.json (Internet-scale FIB sweep + zero-blackhole churn
# leg, docs/FIB.md) from bench_fib_scale, and BENCH_batch_pipeline.json
# from bench_batch_pipeline. Each also takes
#   --benchmark_context=commit=<sha>,build_type=Release,loadavg=<1-min load>
# so the file names its commit and host load next to the CPU count.

echo "ALL CHECKS PASSED"
