// A1 — dispatch cost per FN count (§4.1 compromise #1).
//
// Tofino could not loop over FN[], so the paper unrolled dispatch into an
// if-else ladder on FN_Num. In software the ladder measured the same as the
// loop (EXPERIMENTS.md A1): the hardware constraint, not performance, forced
// it, so the router keeps only the loop and the ladder lives on as the PISA
// model's tna::kMaxUnrolledFns rule. BM_Loop measures the loop's per-packet cost
// as FNs are added.
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.hpp"

namespace dip::bench {
namespace {

std::vector<std::uint8_t> packet_with_n_fns(std::size_t fn_count) {
  core::HeaderBuilder b;
  const auto dst = fib::parse_ipv4("10.1.1.9").value();
  for (std::size_t i = 0; i < fn_count; ++i) {
    // First FN forwards; the rest are cheap F_source no-ops.
    b.add_router_fn(i == 0 ? core::OpKey::kMatch32 : core::OpKey::kSource, dst.bytes);
  }
  return b.build()->serialize();
}

void BM_Loop(benchmark::State& state) {
  core::RouterEnv env = bench_env();
  env.limits.per_packet_budget = 1000;  // don't let the budget interfere
  core::Router router(std::move(env), shared_registry().get());

  const auto base = packet_with_n_fns(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> packet = base;
  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), packet.size());
    benchmark::DoNotOptimize(router.process(packet, 0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_Loop)->DenseRange(1, 16, 3);

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
