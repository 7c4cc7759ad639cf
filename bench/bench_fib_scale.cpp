// bench_fib_scale — Internet-scale FIB sweep (ROADMAP item 1 / ISSUE 7).
//
// Where bench_fib (A3) compares table *mechanics* at toy scale, this lane
// asks the deployment questions at DFZ scale, over synthesized tables with
// realistic length histograms and allocation clustering (dip/fib/synth.hpp):
//
//   * BM_ScaleLookup*/N    — lookup ns per table at 10k/100k/1M routes,
//     with bytes/prefix and mean lookup depth as counters (the CRAM-lens
//     trade-off surface: Dir24 buys depth ~1 with a 64 MiB slab; the tree
//     bitmap holds ~tens of bytes/prefix at depth ~4-6). Dir24 and the
//     binary trie are the references in tests/support/; the trie rides
//     along at 10k/100k only — ~1 GiB of pointer chasing at 1M is exactly
//     the non-option the compressed table exists to replace.
//   * BM_ScaleLookupBatch*/N — the tree bitmap's lookup_batch over the
//     serial legs' tables and probes, 32 addresses per call (a burst's
//     worth): ns per lookup when a batch's walks interleave and their
//     cache misses overlap, as on the burst pipeline's FIB path.
//   * BM_ScaleLookup6*/N   — the IPv6 picture at 200k routes (/48-heavy),
//     serial and batched.
//   * BM_ScaleBuild*/N     — full-table build rate (routes/sec): the cost
//     of standing up a snapshot from scratch, and the reason RouteJournal
//     updates copies of a table instead of rebuilding it.
//   * BM_ChurnPublish*/N   — journal flush latency vs table size: replay
//     the previous 32-update delta onto the recycled standby, apply the
//     coalesced 32-update delta, publish, reclaim. No reader holds the
//     standby, so after the first flush (a clone of the seed) the cost is
//     the deltas', not the table's: it grows with N only as the updates
//     miss cache more often. Counter `clones` counts the fallbacks.
//   * BM_ChurnForwardPool  — the acceptance leg: a 2-worker RouterPool
//     forwards flows covered by a stable /8 while the journal applies
//     tens of thousands of updates/sec against a 100k-route tree-bitmap
//     snapshot, publishing every 32 updates. Counters report achieved
//     updates_per_sec, publish latency and `clones` (flushes that found a
//     worker still holding the standby); `blackholed` (pool drops +
//     errors) must be 0 — every packet is covered by the stable aggregate
//     throughout, so any drop is a lost-route window in the RCU swap.
//     Timed in real time: the workers forward while the submitting
//     thread blocks, so its CPU time would overstate the packet rate.
//
// Tables are built once per (type, size) and shared across legs; at 1M
// routes the builds (Dir24's block refreshes especially) dominate process
// startup, not the measured loops.
//
// JSON trajectory: BENCH_fib_scale.json, refreshed from a Release tree via
//   build/bench/bench_fib_scale --benchmark_min_time=0.2
//     --benchmark_context=commit=<sha>,build_type=Release,loadavg=<1-min>
//     --benchmark_out=BENCH_fib_scale.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <map>
#include <span>

#include "bench_util.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/fib/synth.hpp"
#include "support/reference_lpm.hpp"

namespace dip::bench {
namespace {

using fib::BinaryTrie;
using fib::Dir24;
using fib::TreeBitmap;

constexpr std::size_t kProbeCount = 4096;

const std::vector<fib::synth::SynthRoute<32>>& routes32(std::size_t count) {
  static std::map<std::size_t, std::vector<fib::synth::SynthRoute<32>>> cache;
  auto& slot = cache[count];
  if (slot.empty()) slot = fib::synth::ipv4_table(count, 42);
  return slot;
}

const std::vector<fib::synth::SynthRoute<128>>& routes128(std::size_t count) {
  static std::map<std::size_t, std::vector<fib::synth::SynthRoute<128>>> cache;
  auto& slot = cache[count];
  if (slot.empty()) slot = fib::synth::ipv6_table(count, 42);
  return slot;
}

template <typename Table>
const Table& table32(std::size_t count) {
  static std::map<std::size_t, std::unique_ptr<Table>> cache;
  auto& slot = cache[count];
  if (!slot) {
    slot = std::make_unique<Table>();
    for (const auto& r : routes32(count)) slot->insert(r.prefix, r.nh);
  }
  return *slot;
}

const fib::Ipv6Lpm& table128(std::size_t count) {
  static std::map<std::size_t, std::unique_ptr<fib::Ipv6Lpm>> cache;
  auto& slot = cache[count];
  if (!slot) {
    slot = std::make_unique<fib::Ipv6Lpm>();
    for (const auto& r : routes128(count)) slot->insert(r.prefix, r.nh);
  }
  return *slot;
}

template <typename Table, std::size_t W>
void report_shape(benchmark::State& state, const Table& table,
                  const std::vector<fib::Address<W>>& probes) {
  std::size_t depth = 0;
  for (const auto& a : probes) depth += table.lookup_depth(a);
  state.counters["routes"] = static_cast<double>(table.size());
  state.counters["table_bytes"] = static_cast<double>(table.memory_bytes());
  state.counters["bytes_per_prefix"] =
      static_cast<double>(table.memory_bytes()) / static_cast<double>(table.size());
  state.counters["avg_lookup_depth"] =
      static_cast<double>(depth) / static_cast<double>(probes.size());
}

// ---------------------------------------------------------------------------
// Lookup sweep
// ---------------------------------------------------------------------------

template <typename Table>
void run_scale_lookup(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const Table& table = table32<Table>(count);
  const auto probes = fib::synth::probes(routes32(count), kProbeCount, 7);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i++ & (kProbeCount - 1)]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  report_shape(state, table, probes);
}

void BM_ScaleLookupBinaryTrie(benchmark::State& state) {
  run_scale_lookup<BinaryTrie<32>>(state);
}
void BM_ScaleLookupDir24(benchmark::State& state) { run_scale_lookup<Dir24>(state); }
void BM_ScaleLookupTreeBitmap(benchmark::State& state) {
  run_scale_lookup<TreeBitmap<32>>(state);
}

BENCHMARK(BM_ScaleLookupBinaryTrie)->Arg(10'000)->Arg(100'000);
BENCHMARK(BM_ScaleLookupDir24)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_ScaleLookupTreeBitmap)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// The serial legs' table and probes, looked up kBatch at a time; items are
// lookups, so ns/item compares directly with the serial leg.
constexpr std::size_t kBatch = 32;
static_assert(kProbeCount % kBatch == 0);

template <std::size_t W>
void run_scale_lookup_batch(benchmark::State& state, const TreeBitmap<W>& table,
                            const std::vector<fib::Address<W>>& probes) {
  std::array<fib::NextHop, kBatch> out{};
  std::size_t i = 0;
  for (auto _ : state) {
    table.lookup_batch(std::span(probes).subspan(i, kBatch), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + kBatch) & (kProbeCount - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
  report_shape(state, table, probes);
}

void BM_ScaleLookupBatchTreeBitmap(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  run_scale_lookup_batch(state, table32<TreeBitmap<32>>(count),
                         fib::synth::probes(routes32(count), kProbeCount, 7));
}

BENCHMARK(BM_ScaleLookupBatchTreeBitmap)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_ScaleLookup6TreeBitmap(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const fib::Ipv6Lpm& table = table128(count);
  const auto probes = fib::synth::probes(routes128(count), kProbeCount, 7);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i++ & (kProbeCount - 1)]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  report_shape(state, table, probes);
}

BENCHMARK(BM_ScaleLookup6TreeBitmap)->Arg(200'000);

void BM_ScaleLookup6BatchTreeBitmap(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  run_scale_lookup_batch(state, table128(count),
                         fib::synth::probes(routes128(count), kProbeCount, 7));
}

BENCHMARK(BM_ScaleLookup6BatchTreeBitmap)->Arg(200'000);

// ---------------------------------------------------------------------------
// Build rate
// ---------------------------------------------------------------------------

template <typename Table>
void run_scale_build(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto& routes = routes32(count);
  for (auto _ : state) {
    auto table = std::make_unique<Table>();
    for (const auto& r : routes) table->insert(r.prefix, r.nh);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_ScaleBuildDir24(benchmark::State& state) { run_scale_build<Dir24>(state); }
void BM_ScaleBuildTreeBitmap(benchmark::State& state) {
  run_scale_build<TreeBitmap<32>>(state);
}

BENCHMARK(BM_ScaleBuildDir24)->Arg(100'000);
BENCHMARK(BM_ScaleBuildTreeBitmap)->Arg(100'000);

// ---------------------------------------------------------------------------
// Churn: journal publish latency vs table size
// ---------------------------------------------------------------------------

constexpr std::size_t kUpdatesPerFlush = 32;

void BM_ChurnPublishTreeBitmap(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  auto tables = std::make_shared<ctrl::ControlTables>();
  ctrl::RouteJournal journal(tables);
  journal.seed(&table32<TreeBitmap<32>>(count));

  // Flap windows of existing routes: even iterations withdraw a fresh
  // window, odd iterations restore it — every delta is a real change.
  const auto& routes = routes32(count);
  std::size_t window = 0;
  bool removing = true;
  std::uint64_t updates = 0;
  for (auto _ : state) {
    const std::size_t base = (window * kUpdatesPerFlush) % routes.size();
    for (std::size_t j = 0; j < kUpdatesPerFlush; ++j) {
      const auto& r = routes[(base + j) % routes.size()];
      if (removing) {
        journal.remove_route32(r.prefix);
      } else {
        journal.add_route32(r.prefix, r.nh);
      }
      ++updates;
    }
    journal.flush();
    if (!removing) ++window;
    removing = !removing;
  }
  const auto& js = journal.stats();
  state.counters["updates"] = static_cast<double>(updates);
  state.counters["updates_per_sec"] =
      benchmark::Counter(static_cast<double>(updates), benchmark::Counter::kIsRate);
  if (js.flushes != 0) {
    state.counters["publish_latency_ns"] =
        static_cast<double>(js.total_flush_ns) / static_cast<double>(js.flushes);
    state.counters["publish_latency_max_ns"] = static_cast<double>(js.max_flush_ns);
  }
  state.counters["clones"] = static_cast<double>(js.clones);
}

BENCHMARK(BM_ChurnPublishTreeBitmap)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

// ---------------------------------------------------------------------------
// Churn + forwarding: the zero-blackhole acceptance leg
// ---------------------------------------------------------------------------

void BM_ChurnForwardPool(benchmark::State& state) {
  constexpr std::size_t kTableRoutes = 100'000;
  auto tables = std::make_shared<ctrl::ControlTables>();
  ctrl::RouteJournal journal(tables);
  {
    fib::Ipv4Lpm seeded;
    // The stable covering aggregate: all bench traffic is 10.x.y.z, so no
    // flap below can ever legitimately blackhole a packet.
    seeded.insert({fib::ipv4_from_u32(0x0A000000u), 8}, 1);
    for (const auto& r : routes32(kTableRoutes)) seeded.insert(r.prefix, r.nh);
    journal.seed(&seeded);
  }

  const auto registry = shared_registry();
  const auto envf = [&tables](std::size_t worker) {
    core::RouterEnv env;
    env.node_id = static_cast<std::uint32_t>(worker);
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    env.flow_cache = std::make_unique<core::FlowCache>();
    env.default_egress.reset();
    return env;
  };
  core::RouterPoolConfig cfg;
  cfg.workers = 2;
  core::RouterPool pool(registry.get(), envf, cfg);

  std::vector<std::vector<std::uint8_t>> templates(256);
  fib::synth::Splitmix64 rng(3);
  for (auto& t : templates) {
    t = core::make_dip32_header(
            fib::ipv4_from_u32(0x0A000000u |
                               (static_cast<std::uint32_t>(rng.next()) & 0x00ff'ffffu)),
            fib::ipv4_from_u32(0x7F000001u))
            ->serialize();
  }

  std::size_t pos = 0;
  SimTime now = 0;
  std::size_t window = 0;
  bool removing = false;  // first pass installs the flap /20s
  std::uint64_t updates = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      pool.submit(templates[pos++ & 255], 0, now += kMicrosecond);
    }
    // Flap /20 more-specifics under the stable /8.
    const std::uint32_t base = static_cast<std::uint32_t>(window) & 0x3ffu;
    for (std::size_t j = 0; j < kUpdatesPerFlush; ++j) {
      const fib::Prefix<32> p{
          fib::ipv4_from_u32(0x0A000000u |
                             (((base + static_cast<std::uint32_t>(j)) & 0xfffu) << 12)),
          20};
      if (removing) {
        journal.remove_route32(p);
      } else {
        journal.add_route32(p, 77);
      }
      ++updates;
    }
    journal.flush();
    if (removing) ++window;
    removing = !removing;
  }
  pool.drain();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto snap = pool.counters();
  const auto& js = journal.stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(snap.processed));
  state.counters["updates_per_sec"] =
      secs > 0 ? static_cast<double>(updates) / secs : 0.0;
  state.counters["forwarded"] = static_cast<double>(snap.forwarded);
  state.counters["blackholed"] = static_cast<double>(snap.dropped + snap.errors);
  if (js.flushes != 0) {
    state.counters["publish_latency_ns"] =
        static_cast<double>(js.total_flush_ns) / static_cast<double>(js.flushes);
    state.counters["publish_latency_max_ns"] = static_cast<double>(js.max_flush_ns);
  }
  state.counters["clones"] = static_cast<double>(js.clones);
  pool.stop();
  if (snap.dropped + snap.errors != 0) {
    state.SkipWithError("blackholed packets under churn — RCU swap lost routes");
  }
}

BENCHMARK(BM_ChurnForwardPool)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
