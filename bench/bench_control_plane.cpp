// Control-plane benchmark (src/ctrl/): what the RCU snapshot layer costs.
//
// Legs:
//   * BM_Forward_StaticFib     — seed read path: env's static shared_ptr FIB.
//   * BM_Forward_SnapshotFib   — same workload through SnapshotTable::read()
//     at zero churn. The acceptance bound is <5% items_per_second regression
//     vs the static leg (one extra seq_cst load + branch per lookup).
//   * BM_Forward_UnderChurn/N  — forwarding while the journal flaps a route
//     and publishes every N packets: read-path cost including snapshot
//     swaps, grace-period reclamation, and generation-invalidated flow
//     cache entries. Counter `publishes` reports the publish volume.
//   * BM_Journal_Flush/R       — control-side cost of one delta cycle
//     against an R-route table: replay the previous cycle's 2 deltas onto
//     the recycled standby, apply 2 new ones, publish, reclaim. O(delta),
//     flat in R; only the first flush after seed() clones the table, the
//     O(R) fallback a held standby would force on every publish.
//
// Flow cache is OFF in the forwarding legs so every packet actually reaches
// the FIB lookup being measured (the cache would mask the indirection).
//
// JSON trajectory: bench/BENCH_control_plane.json, refreshed from a
// Release tree via
//   build/bench/bench_control_plane --benchmark_min_time=0.2
//     --benchmark_context=commit=<sha>,build_type=Release,loadavg=<1-min>
//     --benchmark_out=bench/BENCH_control_plane.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "dip/ctrl/journal.hpp"

namespace dip::bench {
namespace {

constexpr std::size_t kRoutes = 512;  // /24s under 10.0.0.0/9, as bench_fib

void install_routes(fib::Ipv4Lpm& fib) {
  for (std::size_t i = 0; i < kRoutes; ++i) {
    fib.insert({fib::ipv4_from_u32(0x0A000000u | (static_cast<std::uint32_t>(i) << 8)), 24},
               static_cast<core::FaceId>(1 + i % 8));
  }
}

std::vector<std::uint8_t> probe_packet(std::size_t flow) {
  return core::make_dip32_header(
             fib::ipv4_from_u32(0x0A000000u |
                                (static_cast<std::uint32_t>(flow % kRoutes) << 8) | 1),
             fib::parse_ipv4("172.16.0.1").value())
      ->serialize();
}

const std::vector<std::vector<std::uint8_t>>& probe_templates() {
  static const std::vector<std::vector<std::uint8_t>> t = [] {
    std::vector<std::vector<std::uint8_t>> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = probe_packet(i * 7);
    return v;
  }();
  return t;
}

void run_forwarding(benchmark::State& state, bool snapshot, std::size_t churn_every) {
  core::RouterEnv env = netsim::make_basic_env(1);
  env.flow_cache = nullptr;  // measure the FIB read path, not the cache
  install_routes(*env.fib32);

  std::shared_ptr<ctrl::ControlTables> tables;
  std::unique_ptr<ctrl::RouteJournal> journal;
  if (snapshot) {
    tables = std::make_shared<ctrl::ControlTables>();
    journal = std::make_unique<ctrl::RouteJournal>(tables);
    journal->seed(env.fib32.get());
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    tables->domain.resume(env.ctrl_reader);
  }
  core::Router router(std::move(env), shared_registry().get());

  const auto& templates = probe_templates();
  std::vector<std::uint8_t> packet = templates[0];
  std::size_t pos = 0;
  std::size_t since_churn = 0;
  std::uint64_t publishes = 0;
  const fib::Prefix<32> flap{fib::ipv4_from_u32(0x0A008000), 25};
  bool flap_present = false;

  for (auto _ : state) {
    const auto& tmpl = templates[pos];
    if (++pos == templates.size()) pos = 0;
    packet.assign(tmpl.begin(), tmpl.end());
    benchmark::DoNotOptimize(router.process(packet, 0, 0));
    if (churn_every != 0 && ++since_churn >= churn_every) {
      since_churn = 0;
      if (flap_present) {
        journal->remove_route32(flap);
      } else {
        journal->add_route32(flap, 9);
      }
      flap_present = !flap_present;
      publishes += journal->flush();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (snapshot) {
    state.counters["publishes"] = static_cast<double>(publishes);
    state.counters["reclaim_backlog"] = static_cast<double>(tables->domain.backlog());
  }
}

void BM_Forward_StaticFib(benchmark::State& state) {
  run_forwarding(state, /*snapshot=*/false, /*churn_every=*/0);
}
BENCHMARK(BM_Forward_StaticFib);

void BM_Forward_SnapshotFib(benchmark::State& state) {
  run_forwarding(state, /*snapshot=*/true, /*churn_every=*/0);
}
BENCHMARK(BM_Forward_SnapshotFib);

void BM_Forward_UnderChurn(benchmark::State& state) {
  run_forwarding(state, /*snapshot=*/true,
                 static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_Forward_UnderChurn)->Arg(4096)->Arg(512)->Arg(64);

void BM_Journal_Flush(benchmark::State& state) {
  const auto routes = static_cast<std::size_t>(state.range(0));
  auto tables = std::make_shared<ctrl::ControlTables>();
  ctrl::RouteJournal journal(tables);
  const auto seed = std::make_unique<fib::Ipv4Lpm>();
  for (std::size_t i = 0; i < routes; ++i) {
    seed->insert({fib::ipv4_from_u32(static_cast<std::uint32_t>(i) << 12), 24},
                 static_cast<core::FaceId>(1 + i % 8));
  }
  journal.seed(seed.get());

  // No registered readers: grace periods elapse immediately, so every flush
  // after the first recycles the standby and this isolates replay + apply
  // + publish + reclaim.
  bool flip = false;
  for (auto _ : state) {
    journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, flip ? 1 : 2);
    journal.remove_route32({fib::ipv4_from_u32(flip ? 0x0B000000u : 0x0C000000u), 8});
    flip = !flip;
    benchmark::DoNotOptimize(journal.flush());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["clones"] = static_cast<double>(journal.stats().clones);
}
BENCHMARK(BM_Journal_Flush)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
