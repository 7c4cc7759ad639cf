// A3 — LPM ablation: the binary-trie oracle vs the production tree bitmap
// vs the DIR-24-8 flat-table reference across table sizes (the cost inside
// F_32_match and F_FIB). The references come from tests/support/.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "support/reference_lpm.hpp"

namespace dip::bench {
namespace {

using fib::BinaryTrie;
using fib::Dir24;
using fib::Ipv4Addr;
using fib::Prefix;
using fib::TreeBitmap;

/// Deterministic route table: clustered prefixes of mixed lengths, the way
/// real FIBs look (many /16..,/24s, few /8s, some host routes).
std::vector<Prefix<32>> make_routes(std::size_t count, std::uint64_t seed) {
  crypto::Xoshiro256 rng(seed);
  std::vector<Prefix<32>> routes;
  routes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    static constexpr std::uint8_t kLengths[] = {8, 16, 16, 20, 24, 24, 24, 32};
    Prefix<32> p{fib::ipv4_from_u32(rng.u32()), kLengths[rng.below(8)]};
    p.normalize();
    routes.push_back(p);
  }
  return routes;
}

template <typename Table>
std::unique_ptr<Table> loaded_table(std::size_t routes) {
  auto table = std::make_unique<Table>();
  std::uint32_t nh = 0;
  for (const auto& p : make_routes(routes, 42)) {
    table->insert(p, nh++ % 256);
  }
  return table;
}

template <typename Table>
void run_lookup(benchmark::State& state) {
  const auto routes = static_cast<std::size_t>(state.range(0));
  const auto table = loaded_table<Table>(routes);

  // Probe addresses: half drawn from installed prefixes (hits), half random.
  crypto::Xoshiro256 rng(7);
  const auto installed = make_routes(routes, 42);
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 4096; ++i) {
    if (i % 2 == 0) {
      Ipv4Addr a = installed[rng.below(installed.size())].addr;
      a.bytes[3] = static_cast<std::uint8_t>(rng.next());
      probes.push_back(a);
    } else {
      probes.push_back(fib::ipv4_from_u32(rng.u32()));
    }
  }

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->lookup(probes[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LookupBinaryTrie(benchmark::State& state) { run_lookup<BinaryTrie<32>>(state); }
void BM_LookupTreeBitmap(benchmark::State& state) { run_lookup<TreeBitmap<32>>(state); }
void BM_LookupDir24(benchmark::State& state) { run_lookup<Dir24>(state); }

BENCHMARK(BM_LookupBinaryTrie)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_LookupTreeBitmap)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_LookupDir24)->Arg(1000)->Arg(10000)->Arg(100000);

template <typename Table>
void run_insert(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto routes = make_routes(count, 99);
  for (auto _ : state) {
    state.PauseTiming();
    auto table = std::make_unique<Table>();
    state.ResumeTiming();
    std::uint32_t nh = 0;
    for (const auto& p : routes) table->insert(p, nh++ % 256);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_InsertBinaryTrie(benchmark::State& state) { run_insert<BinaryTrie<32>>(state); }
void BM_InsertTreeBitmap(benchmark::State& state) { run_insert<TreeBitmap<32>>(state); }
void BM_InsertDir24(benchmark::State& state) { run_insert<Dir24>(state); }

BENCHMARK(BM_InsertBinaryTrie)->Arg(10000);
BENCHMARK(BM_InsertTreeBitmap)->Arg(10000);
BENCHMARK(BM_InsertDir24)->Arg(10000);

// IPv6 lookup (F_128_match cost).
template <typename Table>
void run_lookup6(benchmark::State& state) {
  auto table = std::make_unique<Table>();
  crypto::Xoshiro256 rng(11);
  std::vector<fib::Ipv6Addr> probes;
  for (int i = 0; i < 10000; ++i) {
    fib::Ipv6Addr a;
    a.bytes[0] = 0x20;
    a.bytes[1] = 0x01;
    for (std::size_t b = 2; b < 16; ++b) a.bytes[b] = static_cast<std::uint8_t>(rng.next());
    fib::Prefix<128> p{a, static_cast<std::uint8_t>(32 + rng.below(33))};
    p.normalize();
    table->insert(p, static_cast<std::uint32_t>(rng.below(256)));
    probes.push_back(a);
  }

  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->lookup(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Lookup6BinaryTrie(benchmark::State& state) { run_lookup6<BinaryTrie<128>>(state); }
void BM_Lookup6TreeBitmap(benchmark::State& state) { run_lookup6<TreeBitmap<128>>(state); }
BENCHMARK(BM_Lookup6BinaryTrie);
BENCHMARK(BM_Lookup6TreeBitmap);

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
