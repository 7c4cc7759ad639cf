// A2 — MAC-primitive ablation (§4.1 compromise #2).
//
// The paper chose 2EM over AES because AES requires packet resubmission on
// Tofino. Two legs here:
//  (a) software cost of the two primitives over the OPT coverage (52 B) and
//      other sizes — in software AES-CMAC and 2EM-CMAC are comparable, so
//      the hardware resubmission, not raw compute, drove the choice;
//  (b) modeled switch cycles with/without resubmission (printed first) —
//      the leg that reproduces the paper's reasoning.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/pisa/dip_program.hpp"

namespace dip::bench {
namespace {

void run_mac(benchmark::State& state, crypto::MacKind kind) {
  crypto::Xoshiro256 rng(1);
  const crypto::Block key = rng.block();
  const auto mac = crypto::make_mac(kind, key);
  std::vector<std::uint8_t> message(static_cast<std::size_t>(state.range(0)));
  for (auto& b : message) b = static_cast<std::uint8_t>(rng.next());

  for (auto _ : state) {
    benchmark::DoNotOptimize(mac->compute(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Em2Mac(benchmark::State& state) { run_mac(state, crypto::MacKind::kEm2); }
void BM_AesCmac(benchmark::State& state) { run_mac(state, crypto::MacKind::kAesCmac); }

// 16 B = one block, 52 B = the OPT F_MAC coverage, larger for scaling.
BENCHMARK(BM_Em2Mac)->Arg(16)->Arg(52)->Arg(256)->Arg(1500);
BENCHMARK(BM_AesCmac)->Arg(16)->Arg(52)->Arg(256)->Arg(1500);

// Full-packet leg: OPT processing with each primitive.
void run_opt_packet(benchmark::State& state, crypto::MacKind kind) {
  core::RouterEnv env = bench_env();
  env.mac_kind = kind;
  core::Router router(std::move(env), shared_registry().get());

  crypto::Xoshiro256 rng(2);
  const std::vector<crypto::Block> secrets{router.env().node_secret};
  const auto session = opt::negotiate_session(rng.block(), secrets, rng.block(), kind);
  const std::vector<std::uint8_t> payload = {'m'};
  auto base = opt::make_opt_header(session, payload, 0)->serialize();
  base.insert(base.end(), payload.begin(), payload.end());

  std::vector<std::uint8_t> packet = base;
  for (auto _ : state) {
    std::memcpy(packet.data(), base.data(), packet.size());
    benchmark::DoNotOptimize(router.process(packet, 0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_OptPacket_Em2(benchmark::State& state) {
  run_opt_packet(state, crypto::MacKind::kEm2);
}
void BM_OptPacket_AesCmac(benchmark::State& state) {
  run_opt_packet(state, crypto::MacKind::kAesCmac);
}
BENCHMARK(BM_OptPacket_Em2);
BENCHMARK(BM_OptPacket_AesCmac);

void print_switch_model() {
  const auto fns = opt::opt_fn_triples();
  const auto em2 =
      pisa::estimate_protocol_cycles(fns, opt::kBlockBytes, /*aes_mac=*/false);
  const auto aes =
      pisa::estimate_protocol_cycles(fns, opt::kBlockBytes, /*aes_mac=*/true);
  std::printf("=== A2: modeled switch cycles for the OPT chain ===\n");
  std::printf("2EM      : total=%llu cycles, resubmissions=%u\n",
              static_cast<unsigned long long>(em2.total()), em2.resubmissions);
  std::printf("AES-CMAC : total=%llu cycles, resubmissions=%u\n",
              static_cast<unsigned long long>(aes.total()), aes.resubmissions);
  std::printf(
      "Paper 4.1: \"2EM ... can be completed without resubmitting the packet,\n"
      "while the AES needs to resubmit the packet\" -> the cycle gap above.\n\n");
}

}  // namespace
}  // namespace dip::bench

int main(int argc, char** argv) {
  dip::bench::print_switch_model();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
