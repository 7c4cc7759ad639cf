// E1 — Figure 2: packet processing time per protocol and packet size.
//
// The paper forwards IPv4/IPv6 (native baselines), DIP-32, DIP-128, NDN,
// OPT, and NDN+OPT packets of 128/768/1500 bytes through a Tofino and plots
// per-packet processing time (1000 trials per point). Our substrate is the
// software router, so absolute numbers differ from switch hardware; the
// claim under test is the *shape*:
//
//   IPv4 ~ IPv6 ~ DIP-32 ~ DIP-128 ~ NDN   <<   OPT ~ NDN+OPT
//
// (DIP adds little over native IP; the MAC chain dominates OPT.) Processing
// time should be ~flat in packet size since no module touches the payload.
//
// Methodology: each iteration memcpy-restores the packet from a pristine
// template (identical overhead for every protocol/size) and processes it.
// NDN measures the interest+data pair in PIT steady state and reports
// per-packet time via items_processed.
//
// The deterministic switch-cycle estimates (pisa cost model) for the same
// compositions print before the timed runs — that is the "same experiment
// on the modeled Tofino".
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "dip/legacy/ipv4.hpp"
#include "dip/legacy/ipv6.hpp"
#include "dip/pisa/dip_program.hpp"

namespace dip::bench {
namespace {

constexpr std::size_t kSizes[] = {128, 768, 1500};

// ---------- native baselines ----------

void BM_Ipv4Native(benchmark::State& state) {
  legacy::Ipv4Forwarder fwd;
  fwd.table().insert({fib::parse_ipv4("10.0.0.0").value(), 8}, 1);
  fwd.table().insert({fib::parse_ipv4("10.1.1.0").value(), 24}, 3);

  legacy::Ipv4Header h;
  h.ttl = 255;
  h.src = fib::parse_ipv4("172.16.0.1").value();
  h.dst = fib::parse_ipv4("10.1.1.9").value();
  std::vector<std::uint8_t> base(static_cast<std::size_t>(state.range(0)), 0xA5);
  (void)h.serialize(base);
  std::vector<std::uint8_t> packet = base;

  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), packet.size());
    const auto decision = fwd.forward(packet);
    benchmark::DoNotOptimize(decision);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Ipv6Native(benchmark::State& state) {
  legacy::Ipv6Forwarder fwd;
  fwd.table().insert({fib::parse_ipv6("2001:db8::").value(), 32}, 1);
  fwd.table().insert({fib::parse_ipv6("2001:db8:1::").value(), 48}, 2);

  legacy::Ipv6Header h;
  h.hop_limit = 255;
  h.src = fib::parse_ipv6("2001:db8::1").value();
  h.dst = fib::parse_ipv6("2001:db8:1::9").value();
  std::vector<std::uint8_t> base(static_cast<std::size_t>(state.range(0)), 0xA5);
  (void)h.serialize(base);
  std::vector<std::uint8_t> packet = base;

  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), packet.size());
    const auto decision = fwd.forward(packet);
    benchmark::DoNotOptimize(decision);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// ---------- DIP compositions ----------

void run_dip(benchmark::State& state, const std::vector<std::uint8_t>& base,
             core::Router& router) {
  std::vector<std::uint8_t> packet = base;
  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), packet.size());
    const auto result = router.process(packet, 0, 0);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Dip32(benchmark::State& state) {
  core::Router router(bench_env(), shared_registry().get());
  run_dip(state, dip32_packet(static_cast<std::size_t>(state.range(0))), router);
}

void BM_Dip128(benchmark::State& state) {
  core::Router router(bench_env(), shared_registry().get());
  run_dip(state, dip128_packet(static_cast<std::size_t>(state.range(0))), router);
}

void BM_Ndn(benchmark::State& state) {
  core::RouterEnv env = bench_env();
  ndn::install_name_route(*env.fib32, fib::Name::parse("/hotnets"), 1);
  core::Router router(std::move(env), shared_registry().get());

  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const auto interest_base = ndn_interest_packet(size);
  const auto data_base = ndn_data_packet(size);
  std::vector<std::uint8_t> interest = interest_base;
  std::vector<std::uint8_t> data = data_base;

  // Steady state: every interest creates the PIT entry the following data
  // packet consumes. Two packets per iteration.
  for (auto _ : state) {
    std::memcpy(interest.data(), interest_base.data(), interest.size());
    benchmark::DoNotOptimize(router.process(interest, 0, 0));
    std::memcpy(data.data(), data_base.data(), data.size());
    benchmark::DoNotOptimize(router.process(data, 1, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_Opt(benchmark::State& state) {
  core::Router router(bench_env(), shared_registry().get());
  run_dip(state, opt_packet(static_cast<std::size_t>(state.range(0))), router);
}

void BM_NdnOpt(benchmark::State& state) {
  core::RouterEnv env = bench_env();
  ndn::install_name_route(*env.fib32, fib::Name::parse("/hotnets"), 1);
  core::Router router(std::move(env), shared_registry().get());

  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const auto interest_base = ndn_opt_packet(size, /*interest=*/true);
  const auto data_base = ndn_opt_packet(size, /*interest=*/false);
  std::vector<std::uint8_t> interest = interest_base;
  std::vector<std::uint8_t> data = data_base;

  for (auto _ : state) {
    std::memcpy(interest.data(), interest_base.data(), interest.size());
    benchmark::DoNotOptimize(router.process(interest, 0, 0));
    std::memcpy(data.data(), data_base.data(), data.size());
    benchmark::DoNotOptimize(router.process(data, 1, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void register_all() {
  for (const std::size_t size : kSizes) {
    const auto s = static_cast<std::int64_t>(size);
    benchmark::RegisterBenchmark("Fig2/IPv4_native", BM_Ipv4Native)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/IPv6_native", BM_Ipv6Native)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/DIP32", BM_Dip32)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/DIP128", BM_Dip128)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/NDN", BM_Ndn)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/OPT", BM_Opt)->Arg(s);
    benchmark::RegisterBenchmark("Fig2/NDN_OPT", BM_NdnOpt)->Arg(s);
  }
}

// Deterministic switch-cycle estimates (the modeled Tofino leg of Fig. 2).
void print_switch_model() {
  using pisa::estimate_protocol_cycles;

  struct Row {
    const char* name;
    std::vector<core::FnTriple> fns;
    std::size_t loc_bytes;
  };

  const auto dip32 = core::make_dip32_header(fib::parse_ipv4("10.0.0.1").value(),
                                             fib::parse_ipv4("10.0.0.2").value());
  const auto dip128 = core::make_dip128_header(fib::parse_ipv6("::1").value(),
                                               fib::parse_ipv6("::2").value());
  const auto ndn = ndn::make_interest_header32(1);
  const auto opt_fns = opt::opt_fn_triples();
  std::vector<core::FnTriple> ndn_opt{core::FnTriple::router(544, 32, core::OpKey::kFib)};
  ndn_opt.insert(ndn_opt.end(), opt_fns.begin(), opt_fns.end());

  const Row rows[] = {
      {"DIP-32", dip32->fns, dip32->locations.size()},
      {"DIP-128", dip128->fns, dip128->locations.size()},
      {"NDN", ndn->fns, ndn->locations.size()},
      {"OPT", opt_fns, opt::kBlockBytes},
      {"NDN+OPT", ndn_opt, opt::kBlockBytes + 4},
  };

  std::printf("=== Figure 2 (modeled PISA switch, cycles/packet; size-independent) ===\n");
  std::printf("%-10s %8s %8s %8s %8s %9s\n", "protocol", "parse", "match", "crypto",
              "transit", "total");
  for (const Row& row : rows) {
    const auto c = estimate_protocol_cycles(row.fns, row.loc_bytes);
    std::printf("%-10s %8llu %8llu %8llu %8llu %9llu\n", row.name,
                static_cast<unsigned long long>(c.parse),
                static_cast<unsigned long long>(c.match),
                static_cast<unsigned long long>(c.crypto),
                static_cast<unsigned long long>(c.transit),
                static_cast<unsigned long long>(c.total()));
  }
  std::printf(
      "Expected Figure-2 shape: IP/DIP/NDN close together, OPT and NDN+OPT\n"
      "clearly above them (MAC-dominated), flat in packet size.\n\n");
}

}  // namespace
}  // namespace dip::bench

int main(int argc, char** argv) {
  dip::bench::print_switch_model();
  dip::bench::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
