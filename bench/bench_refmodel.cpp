// How much does "obviously correct" cost? The executable-spec reference
// model (src/refmodel/) trades every production optimisation — flow cache,
// dense dispatch, tree bitmaps — for linear scans and allocations. This
// bench puts a number on that gap per Table-1 composition: the refmodel is
// the conformance oracle, so its throughput bounds how big the property
// streams in tests/conformance_test.cpp can affordably get.
#include <benchmark/benchmark.h>

#include "bench_guard.hpp"

#include <cstring>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/refmodel/refmodel.hpp"

namespace dip::bench {
namespace {

const opt::Session& session() {
  static const opt::Session s = [] {
    crypto::Xoshiro256 rng(0xC0FFEE);
    const std::vector<crypto::Block> secrets{rng.block()};
    return opt::negotiate_session(rng.block(), secrets, rng.block());
  }();
  return s;
}

std::vector<std::uint8_t> template_packet(int which) {
  switch (which) {
    case 0:  // DIP-32
      return core::make_dip32_header(fib::ipv4_from_u32(0x0A010203),
                                     fib::ipv4_from_u32(0xC0000201))
          ->serialize();
    case 1:  // NDN interest
      return ndn::make_interest_header32(0x0A0B0C0D)->serialize();
    default: {  // OPT
      const std::vector<std::uint8_t> payload = {'b'};
      auto wire = opt::make_opt_header(session(), payload, 7)->serialize();
      wire.push_back('b');
      return wire;
    }
  }
}

refmodel::RefNode make_ref_node() {
  refmodel::RefConfig cfg;
  cfg.node_id = 1;
  crypto::Xoshiro256 rng(0xC0FFEE);
  cfg.node_secret = rng.block();
  cfg.default_egress = 9;
  cfg.content_store_capacity = 64;
  refmodel::RefNode node(cfg);
  node.add_route32(0x0A000000, 8, 1);
  return node;
}

void BM_RefModel(benchmark::State& state) {
  refmodel::RefNode node = make_ref_node();
  const auto base = template_packet(static_cast<int>(state.range(0)));
  std::vector<std::uint8_t> packet = base;
  SimTime now = 0;
  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), base.size());
    const auto v = node.process(packet, 1, now += kMicrosecond);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_RefModel)->Arg(0)->Arg(1)->Arg(2);

void BM_Production(benchmark::State& state) {
  const auto registry = netsim::make_default_registry();
  auto env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  env.content_store.emplace(64);
  env.default_egress = 9;
  crypto::Xoshiro256 rng(0xC0FFEE);
  env.node_secret = rng.block();
  core::Router router(std::move(env), registry.get());

  const auto base = template_packet(static_cast<int>(state.range(0)));
  std::vector<std::uint8_t> packet = base;
  SimTime now = 0;
  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), base.size());
    const auto v = router.process(packet, 1, now += kMicrosecond);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_Production)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace dip::bench

BENCHMARK_MAIN();
