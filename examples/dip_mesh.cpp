// dip_mesh — a scale-out DIP mesh on real loopback UDP (docs/MESH.md).
//
//   $ ./dip_mesh                         # 108-node torus, quick soak
//   $ ./dip_mesh --rows 9 --cols 12 --waves 20 --out BENCH_mesh.json
//
// One process, one event loop, 100+ MeshRouters each on its own UDP socket:
// in-band LSA discovery, SPF routes through the PR-5 control plane, Zipf
// flow-churn traffic under seeded netem-style impairments, a link-failure
// convergence measurement, and the conservation-ledger check
//   transmitted + duplicated == delivered + lost + blackholed + dropped
// asserted exactly (a violation is the process exit status). With --out the
// run writes a BENCH_mesh.json-style report: discovery time (discovery
// plus the first SPF) and its hello frames, per-router packet rate,
// end-to-end latency, and convergence-under-link-failure.
//
// Flags: --rows N --cols N --waves N --wave-packets N --flows N --seed N
//        --drop P --dup P --reorder P --out FILE
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "dip/core/ip.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/mesh/traffic.hpp"
#include "dip/telemetry/exposition.hpp"

namespace {

using namespace dip;

struct Options {
  std::size_t rows = 9;
  std::size_t cols = 12;  // 9 x 12 = 108 nodes, 4-regular torus
  std::size_t waves = 10;
  std::size_t wave_packets = 200;
  std::size_t flows = 128;
  std::uint64_t seed = 1;
  double drop = 0.02;
  double dup = 0.02;
  double reorder = 0.05;
  std::string out;
};

bool parse_args(int argc, char** argv, Options& opt) {
  const auto next_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--rows" && (v = next_value(i))) {
      opt.rows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cols" && (v = next_value(i))) {
      opt.cols = std::strtoull(v, nullptr, 10);
    } else if (arg == "--waves" && (v = next_value(i))) {
      opt.waves = std::strtoull(v, nullptr, 10);
    } else if (arg == "--wave-packets" && (v = next_value(i))) {
      opt.wave_packets = std::strtoull(v, nullptr, 10);
    } else if (arg == "--flows" && (v = next_value(i))) {
      opt.flows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next_value(i))) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drop" && (v = next_value(i))) {
      opt.drop = std::strtod(v, nullptr);
    } else if (arg == "--dup" && (v = next_value(i))) {
      opt.dup = std::strtod(v, nullptr);
    } else if (arg == "--reorder" && (v = next_value(i))) {
      opt.reorder = std::strtod(v, nullptr);
    } else if (arg == "--out" && (v = next_value(i))) {
      opt.out = v;
    } else {
      std::fprintf(stderr, "unknown or valueless flag: %s\n", argv[i]);
      return false;
    }
  }
  return opt.rows >= 2 && opt.cols >= 2;
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  const std::size_t nodes = opt.rows * opt.cols;

  mesh::MeshConfig cfg;  // real UDP sockets, steady clock
  cfg.fault_seed = opt.seed;
  mesh::MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = opt.drop;
  plan.duplicate_rate = opt.dup;
  plan.reorder_rate = opt.reorder;
  plan.reorder_window = kMillisecond;
  net.build_torus(opt.rows, opt.cols, plan);
  std::printf("== dip_mesh: %zu routers (%zux%zu torus) on loopback UDP ==\n",
              nodes, opt.rows, opt.cols);

  // In-band discovery: TTL-1 probes, then a mesh-wide LSA flood.
  const std::uint64_t t_discover = wall_ns();
  if (!net.discover(10 * kSecond)) {
    std::fprintf(stderr, "discovery did not converge\n");
    return 1;
  }
  const std::size_t routed = net.recompute_routes();
  const std::uint64_t discovery_ns = wall_ns() - t_discover;
  const std::uint64_t hello_frames = net.aggregate_ledger().hello_tx;
  std::printf("discovery + SPF: %zu LSDB entries/node, %zu routes published "
              "in %.1f ms (%llu hello frames)\n",
              net.router(0).lsdb().size(), routed,
              static_cast<double>(discovery_ns) / 1e6,
              static_cast<unsigned long long>(hello_frames));

  // Zipf flow-churn soak under the seeded impairments.
  mesh::TrafficConfig tcfg;
  tcfg.flows = opt.flows;
  tcfg.seed = opt.seed;
  tcfg.churn_flows = opt.flows / 16 + 1;
  mesh::MeshTrafficGen gen(net, tcfg);

  const std::uint64_t t_traffic = wall_ns();
  for (std::size_t wave = 0; wave < opt.waves; ++wave) {
    gen.tick(opt.wave_packets);
    net.loop().run_until_idle();
    gen.churn();
    if (!net.quiesce(2 * kSecond)) {
      std::fprintf(stderr, "wave %zu did not quiesce\n", wave);
      return 1;
    }
  }
  const double traffic_secs =
      static_cast<double>(wall_ns() - t_traffic) / 1e9;

  const mesh::TrafficStats& ts = gen.stats();
  const double pkt_per_s = static_cast<double>(ts.sent) / traffic_secs;
  std::printf("soak: %llu sent, %llu received (%.1f%%), %.0f pkt/s "
              "(%.1f pkt/s/router), mean e2e %.0f us, max %.0f us\n",
              static_cast<unsigned long long>(ts.sent),
              static_cast<unsigned long long>(ts.received),
              100.0 * static_cast<double>(ts.received) /
                  static_cast<double>(ts.sent ? ts.sent : 1),
              pkt_per_s, pkt_per_s / static_cast<double>(nodes),
              ts.mean_latency_ns() / 1e3,
              static_cast<double>(ts.latency_max_ns) / 1e3);

  // Convergence under link failure: dark both half-links, flood the new
  // LSAs, recompute, and time until a probe crosses the detour.
  const std::uint64_t t_fail = wall_ns();
  net.fail_link(0, 1);
  (void)net.quiesce(2 * kSecond);  // let the failure gossip settle
  (void)net.recompute_routes();
  bool rerouted = false;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) { rerouted |= node == 1; });
  std::vector<std::uint8_t> probe =
      core::make_dip32_header(mesh::addr_of(net.router(1).node_id()),
                              mesh::addr_of(net.router(0).node_id()))
          ->serialize();
  net.router(0).inject(probe, net.local_face_of(0));
  const std::uint64_t probe_deadline = net.loop().now_ns() + 2 * kSecond;
  while (!rerouted && net.loop().now_ns() < probe_deadline) {
    (void)net.loop().run(net.loop().now_ns() + kMillisecond);
  }
  const std::uint64_t convergence_ns = wall_ns() - t_fail;
  if (!rerouted) {
    std::fprintf(stderr, "link-failure probe was never rerouted\n");
    return 1;
  }
  std::printf("link failure 1<->2: rerouted via detour in %.1f ms\n",
              static_cast<double>(convergence_ns) / 1e6);

  // The acceptance gate: a quiescent mesh must balance the ledger exactly.
  if (!net.quiesce(5 * kSecond)) {
    std::fprintf(stderr, "mesh did not quiesce for the ledger check\n");
    return 1;
  }
  const mesh::WireLedger ledger = net.aggregate_ledger();
  std::printf("ledger: transmitted=%llu duplicated=%llu delivered=%llu "
              "lost=%llu blackholed=%llu dropped=%llu (corrupted=%llu, "
              "seq_gaps=%llu) imbalance=%lld\n",
              static_cast<unsigned long long>(ledger.transmitted),
              static_cast<unsigned long long>(ledger.duplicated),
              static_cast<unsigned long long>(ledger.delivered),
              static_cast<unsigned long long>(ledger.lost),
              static_cast<unsigned long long>(ledger.blackholed),
              static_cast<unsigned long long>(ledger.dropped),
              static_cast<unsigned long long>(ledger.corrupted),
              static_cast<unsigned long long>(ledger.seq_gaps),
              static_cast<long long>(ledger.imbalance()));
  if (ledger.imbalance() != 0) {
    std::fprintf(stderr, "CONSERVATION VIOLATION: imbalance %lld\n",
                 static_cast<long long>(ledger.imbalance()));
    return 1;
  }
  std::printf("conservation ledger balanced.\n");

  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    out << "{\n"
        << "  \"name\": \"dip_mesh\",\n"
        << "  \"topology\": {\"rows\": " << opt.rows << ", \"cols\": " << opt.cols
        << ", \"nodes\": " << nodes << "},\n"
        << "  \"seed\": " << opt.seed << ",\n"
        << "  \"faults\": {\"drop_rate\": " << opt.drop
        << ", \"duplicate_rate\": " << opt.dup
        << ", \"reorder_rate\": " << opt.reorder << "},\n"
        << "  \"discovery_ns\": " << discovery_ns << ",\n"
        << "  \"hello_frames\": " << hello_frames << ",\n"
        << "  \"traffic\": {\"sent\": " << ts.sent
        << ", \"received\": " << ts.received
        << ", \"flows_churned\": " << ts.flows_churned << "},\n"
        << "  \"pkt_per_s\": " << pkt_per_s << ",\n"
        << "  \"pkt_per_s_per_router\": " << pkt_per_s / static_cast<double>(nodes)
        << ",\n"
        << "  \"e2e_latency_ns\": {\"mean\": " << ts.mean_latency_ns()
        << ", \"max\": " << ts.latency_max_ns << "},\n"
        << "  \"convergence_under_link_failure_ns\": " << convergence_ns << ",\n"
        << "  \"ledger\": {\"transmitted\": " << ledger.transmitted
        << ", \"duplicated\": " << ledger.duplicated
        << ", \"delivered\": " << ledger.delivered << ", \"lost\": " << ledger.lost
        << ", \"blackholed\": " << ledger.blackholed
        << ", \"dropped\": " << ledger.dropped
        << ", \"corrupted\": " << ledger.corrupted
        << ", \"seq_gaps\": " << ledger.seq_gaps
        << ", \"imbalance\": " << ledger.imbalance() << "}\n"
        << "}\n";
    std::printf("report written to %s\n", opt.out.c_str());
  }
  return 0;
}
