// dip_dtn — disruption tolerance through the FN abstraction (docs/DTN.md).
//
//   $ ./dip_dtn                          # quick run, both harnesses
//   $ ./dip_dtn --bundles 16 --blackout-ms 4000 --out BENCH_dtn.json
//
// Two seeded harnesses drive the dip32+custody composition through
// multi-second outages and print the recovery ledger:
//
//   1. netsim chaos: host A -- R1 -- R2 -- host B with the middle link dark
//      for the blackout window (and lossy afterwards). The sender hands
//      custody to R1 on the clean first hop; R1's bounded CustodyStore
//      carries the outage and retransmits until R2 ACKs.
//   2. mesh torus: a rows x cols (>= 27 node) mock-UDP mesh, every link dark
//      for the same window, MeshCustodyFleet relaying bundles hop by hop
//      over SPF routes.
//
// Exit status is the acceptance gate: every committed bundle must assemble
// byte-identically (100% recovery) and the mesh conservation ledger must
// balance exactly. With --out the run writes a BENCH_dtn.json report with
// recovery rate, recovery latency, and store high-water marks.
//
// Flags: --bundles N --payload N --blackout-ms N --rows N --cols N
//        --seed N --drop P --dup P --out FILE
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dip/dtn/bundle.hpp"
#include "dip/dtn/mesh_dtn.hpp"
#include "dip/dtn/node.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/netsim/topology.hpp"

namespace {

using namespace dip;

struct Options {
  std::size_t bundles = 6;
  std::size_t payload = 256;
  std::uint64_t blackout_ms = 2500;
  std::size_t rows = 9;
  std::size_t cols = 3;  // 9 x 3 = 27 custody-capable mesh routers
  std::uint64_t seed = 42;
  double drop = 0.05;
  double dup = 0.05;
  std::string out;
};

bool parse_args(int argc, char** argv, Options& opt) {
  const auto next_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--bundles" && (v = next_value(i))) {
      opt.bundles = std::strtoull(v, nullptr, 10);
    } else if (arg == "--payload" && (v = next_value(i))) {
      opt.payload = std::strtoull(v, nullptr, 10);
    } else if (arg == "--blackout-ms" && (v = next_value(i))) {
      opt.blackout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rows" && (v = next_value(i))) {
      opt.rows = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cols" && (v = next_value(i))) {
      opt.cols = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next_value(i))) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drop" && (v = next_value(i))) {
      opt.drop = std::strtod(v, nullptr);
    } else if (arg == "--dup" && (v = next_value(i))) {
      opt.dup = std::strtod(v, nullptr);
    } else if (arg == "--out" && (v = next_value(i))) {
      opt.out = v;
    } else {
      std::fprintf(stderr, "unknown or valueless flag: %s\n", argv[i]);
      return false;
    }
  }
  return opt.bundles > 0 && opt.payload > 0 && opt.rows * opt.cols >= 4;
}

crypto::Block overlay_key(std::uint64_t seed) {
  return crypto::Xoshiro256(seed ^ 0xD7A).block();
}

struct Latencies {
  std::uint64_t mean_ns = 0;
  std::uint64_t max_ns = 0;
};

Latencies summarize(const std::vector<std::uint64_t>& samples) {
  Latencies l;
  if (samples.empty()) return l;
  std::uint64_t sum = 0;
  for (const std::uint64_t s : samples) {
    sum += s;
    l.max_ns = std::max(l.max_ns, s);
  }
  l.mean_ns = sum / samples.size();
  return l;
}

struct NetsimReport {
  std::size_t sent = 0;
  std::size_t recovered = 0;
  Latencies latency;
  std::uint64_t retransmissions = 0;
  std::size_t store_high_water = 0;
  std::uint64_t blackholed = 0;
  bool stores_drained = false;
};

/// Harness 1: the four-node store-and-forward chain through a dark middle
/// link. Returns the recovery ledger; payload mismatches count as lost.
NetsimReport run_netsim_chaos(const Options& opt) {
  const crypto::Block key = overlay_key(opt.seed);
  netsim::Network net(opt.seed);
  netsim::HostNode a, b;
  auto registry = netsim::make_default_registry();
  dtn::add_custody_modules(*registry);
  auto custody_env = [&key](std::uint32_t node) {
    core::RouterEnv env = netsim::make_basic_env(node);
    env.custody_key = key;
    env.accept_custody = true;
    return env;
  };
  dtn::CustodyRouterNode r1(custody_env(1), registry, {});
  dtn::CustodyRouterNode r2(custody_env(2), registry, {});
  net.add_node(a);
  net.add_node(r1);
  net.add_node(r2);
  net.add_node(b);

  netsim::LinkParams middle;
  middle.faults.blackout_period = 3600 * kSecond;  // one dark window at t=0
  middle.faults.blackout_duration = opt.blackout_ms * kMillisecond;
  middle.faults.drop_rate = opt.drop;
  middle.faults.duplicate_rate = opt.dup;
  const auto fa = net.connect(a, r1).first;
  const auto f12 = net.connect(r1, r2, middle).first;
  const auto [f2b, fb] = net.connect(r2, b);
  r1.env().fib32->insert(mesh::prefix_of(100), f12);
  r2.env().fib32->insert(mesh::prefix_of(100), f2b);

  dtn::BundleSender::Config sc;
  sc.self = mesh::addr_of(99);
  sc.node_id = 99;
  sc.custody_key = key;
  sc.frag_payload = 64;
  sc.retry.max_retries = 8;  // outlive the blackout even if R1 refuses
  host::NetsimPort port_a(a, fa);
  dtn::BundleSender sender(port_a, sc);
  a.set_receiver([&](netsim::FaceId, netsim::PacketBytes p, SimTime) {
    sender.on_packet(p);
  });

  std::map<std::uint32_t, std::vector<std::uint8_t>> delivered;
  std::map<std::uint32_t, SimTime> completed_at;
  SimTime rx_now = 0;
  dtn::BundleReceiver::Config bc;
  bc.self = mesh::addr_of(100);
  bc.custody_key = key;
  host::NetsimPort port_b(b, fb);
  dtn::BundleReceiver receiver(port_b, bc,
                               [&](std::uint32_t id, std::vector<std::uint8_t> p) {
                                 delivered[id] = std::move(p);
                                 completed_at[id] = rx_now;
                               });
  b.set_receiver([&](netsim::FaceId, netsim::PacketBytes p, SimTime now) {
    rx_now = now;
    receiver.on_packet(p);
  });

  // All bundles enter at t=0, while the middle link is dark.
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t n = 0; n < opt.bundles; ++n) {
    std::vector<std::uint8_t> payload(opt.payload);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7 + n * 31 + 1);
    }
    ids.push_back(sender.send(mesh::addr_of(100), payload));
    payloads.push_back(std::move(payload));
  }
  net.run();

  NetsimReport r;
  r.sent = ids.size();
  std::vector<std::uint64_t> latencies;
  for (std::size_t n = 0; n < ids.size(); ++n) {
    const auto it = delivered.find(ids[n]);
    if (it == delivered.end() || it->second != payloads[n]) continue;
    ++r.recovered;
    latencies.push_back(completed_at[ids[n]]);
  }
  r.latency = summarize(latencies);
  r.retransmissions =
      r1.store().stats().retransmissions + r2.store().stats().retransmissions;
  r.store_high_water = std::max(r1.store().stats().bytes_high_water,
                                r2.store().stats().bytes_high_water);
  r.blackholed = net.stats().blackholed;
  r.stores_drained = r1.store().bundles() == 0 && r2.store().bundles() == 0;
  return r;
}

struct MeshReport {
  std::size_t nodes = 0;
  std::size_t sent = 0;
  std::size_t recovered = 0;
  Latencies latency;
  std::uint64_t retransmissions = 0;
  std::size_t store_high_water = 0;
  std::uint64_t blackholed = 0;
  bool stores_drained = false;
  bool ledger_balanced = false;
};

/// Harness 2: every mesh link dark for the blackout window; bundles injected
/// into the darkness relay across the torus once it lifts.
MeshReport run_mesh_torus(const Options& opt) {
  mesh::ManualClock clock;
  mesh::MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = opt.seed;
  cfg.registry = dtn::MeshCustodyFleet::make_registry();
  mesh::MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = opt.drop;
  plan.duplicate_rate = opt.dup;
  plan.reorder_rate = 0.10;
  plan.reorder_window = 2 * kMillisecond;
  plan.blackout_period = 3600 * kSecond;
  plan.blackout_duration = opt.blackout_ms * kMillisecond;
  net.build_torus(opt.rows, opt.cols, plan);

  MeshReport r;
  r.nodes = opt.rows * opt.cols;
  if (!net.discover(kSecond) || net.recompute_routes() == 0) {
    std::fprintf(stderr, "mesh discovery did not converge\n");
    return r;
  }

  dtn::MeshCustodyFleet::Config fleet_cfg;
  fleet_cfg.custody_key = overlay_key(opt.seed);
  fleet_cfg.frag_payload = 64;
  dtn::MeshCustodyFleet fleet(net, fleet_cfg);

  crypto::Xoshiro256 rng(opt.seed);
  std::vector<std::uint32_t> bundles;
  std::vector<std::uint8_t> payload(opt.payload);
  for (std::size_t n = 0; n < opt.bundles; ++n) {
    const std::size_t src = rng.below(r.nodes);
    std::size_t dst = rng.below(r.nodes);
    if (dst == src) dst = (dst + r.nodes / 2) % r.nodes;
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i + src * 31 + dst + n);
    }
    bundles.push_back(fleet.send(src, dst, payload));
  }
  net.loop().run_until_idle();
  if (!net.drain(clock, 120 * kSecond)) {
    std::fprintf(stderr, "mesh did not drain\n");
  }

  r.sent = bundles.size();
  std::vector<std::uint64_t> latencies;
  for (const std::uint32_t b : bundles) {
    if (!fleet.bundle_complete(b)) continue;
    ++r.recovered;
    const auto [sent_ns, done_ns] = fleet.bundle_times(b);
    latencies.push_back(done_ns - sent_ns);
  }
  r.latency = summarize(latencies);
  r.retransmissions = fleet.aggregate_store_stats().retransmissions;
  r.store_high_water = fleet.store_bytes_high_water();
  r.blackholed = net.aggregate_ledger().blackholed;
  r.stores_drained = fleet.stores_empty();
  r.ledger_balanced = net.ledger_balanced() && net.pending_holdbacks() == 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  std::printf("== dip_dtn: custody recovery through a %llu ms blackout ==\n",
              static_cast<unsigned long long>(opt.blackout_ms));

  const NetsimReport chaos = run_netsim_chaos(opt);
  std::printf("netsim chaos: %zu/%zu bundles recovered, mean latency %.1f ms "
              "(max %.1f ms), %llu custody retransmissions, store high-water "
              "%zu B, %llu blackholed\n",
              chaos.recovered, chaos.sent,
              static_cast<double>(chaos.latency.mean_ns) / 1e6,
              static_cast<double>(chaos.latency.max_ns) / 1e6,
              static_cast<unsigned long long>(chaos.retransmissions),
              chaos.store_high_water,
              static_cast<unsigned long long>(chaos.blackholed));

  const MeshReport mesh = run_mesh_torus(opt);
  std::printf("mesh torus (%zu nodes): %zu/%zu bundles recovered, mean latency "
              "%.1f ms (max %.1f ms), %llu custody retransmissions, store "
              "high-water %zu B, %llu blackholed, ledger %s\n",
              mesh.nodes, mesh.recovered, mesh.sent,
              static_cast<double>(mesh.latency.mean_ns) / 1e6,
              static_cast<double>(mesh.latency.max_ns) / 1e6,
              static_cast<unsigned long long>(mesh.retransmissions),
              mesh.store_high_water,
              static_cast<unsigned long long>(mesh.blackholed),
              mesh.ledger_balanced ? "balanced" : "IMBALANCED");

  const bool recovered_all =
      chaos.recovered == chaos.sent && mesh.recovered == mesh.sent;
  const bool drained = chaos.stores_drained && mesh.stores_drained;
  if (!recovered_all || !drained || !mesh.ledger_balanced) {
    std::fprintf(stderr, "RECOVERY GATE FAILED: recovered=%d drained=%d "
                 "ledger=%d\n", recovered_all, drained, mesh.ledger_balanced);
    return 1;
  }
  std::printf("100%% recovery on both harnesses; all custody stores drained.\n");

  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    const auto pct = [](std::size_t got, std::size_t want) {
      return want == 0 ? 0.0 : 100.0 * static_cast<double>(got) /
                                   static_cast<double>(want);
    };
    out << "{\n"
        << "  \"name\": \"dip_dtn\",\n"
        << "  \"seed\": " << opt.seed << ",\n"
        << "  \"blackout_ms\": " << opt.blackout_ms << ",\n"
        << "  \"bundles\": " << opt.bundles
        << ", \"payload_bytes\": " << opt.payload << ",\n"
        << "  \"netsim_chaos\": {\"sent\": " << chaos.sent
        << ", \"recovered\": " << chaos.recovered
        << ", \"recovery_pct\": " << pct(chaos.recovered, chaos.sent)
        << ", \"recovery_latency_ns\": {\"mean\": " << chaos.latency.mean_ns
        << ", \"max\": " << chaos.latency.max_ns
        << "}, \"retransmissions\": " << chaos.retransmissions
        << ", \"store_bytes_high_water\": " << chaos.store_high_water
        << ", \"blackholed\": " << chaos.blackholed << "},\n"
        << "  \"mesh_torus\": {\"nodes\": " << mesh.nodes
        << ", \"sent\": " << mesh.sent << ", \"recovered\": " << mesh.recovered
        << ", \"recovery_pct\": " << pct(mesh.recovered, mesh.sent)
        << ", \"recovery_latency_ns\": {\"mean\": " << mesh.latency.mean_ns
        << ", \"max\": " << mesh.latency.max_ns
        << "}, \"retransmissions\": " << mesh.retransmissions
        << ", \"store_bytes_high_water\": " << mesh.store_high_water
        << ", \"blackholed\": " << mesh.blackholed
        << ", \"ledger_balanced\": " << (mesh.ledger_balanced ? "true" : "false")
        << "}\n"
        << "}\n";
    std::printf("report written to %s\n", opt.out.c_str());
  }
  return 0;
}
