// dip_simulate — scenario-driven simulation runner.
//
//   $ ./dip_simulate scenario.conf
//   $ ./dip_simulate            # runs the built-in demo scenarios
//
// Scenario format (one `key value` per line, '#' comments):
//
//   topology  linear          # linear is the only topology (hops below)
//   hops      4               # routers on the path
//   protocol  dip32           # dip32 | dip128 | ndn | opt | xia
//   packets   1000            # how many packets (NDN: interests)
//   size      256             # padded packet size, bytes
//   loss      0.01            # per-link loss probability
//   latency_us 10             # per-link propagation delay
//   bandwidth_mbps 1000       # per-link bandwidth
//   seed      7               # PRNG seed (loss, workloads)
//
// Prints delivery/drop statistics and mean end-to-end latency.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "dip/core/ip.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/xia/xia.hpp"

namespace {

using namespace dip;

struct Scenario {
  std::string protocol = "dip32";
  std::size_t hops = 3;
  std::size_t packets = 1000;
  std::size_t size = 256;
  double loss = 0.0;
  std::uint64_t latency_us = 10;
  std::uint64_t bandwidth_mbps = 1000;
  std::uint64_t seed = 7;
};

bool parse_scenario(std::istream& in, Scenario& out, std::string& error) {
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) continue;  // blank

    std::string value;
    if (!(tokens >> value)) {
      error = "line " + std::to_string(line_no) + ": missing value for " + key;
      return false;
    }
    auto as_u64 = [&](std::uint64_t& dst) {
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), dst);
      return ec == std::errc{} && ptr == value.data() + value.size();
    };
    bool ok = true;
    if (key == "topology") {
      ok = value == "linear";
    } else if (key == "protocol") {
      ok = value == "dip32" || value == "dip128" || value == "ndn" ||
           value == "opt" || value == "xia";
      out.protocol = value;
    } else if (key == "hops") {
      std::uint64_t v = 0;
      ok = as_u64(v) && v >= 1 && v <= 64;
      out.hops = v;
    } else if (key == "packets") {
      std::uint64_t v = 0;
      ok = as_u64(v) && v >= 1;
      out.packets = v;
    } else if (key == "size") {
      std::uint64_t v = 0;
      ok = as_u64(v) && v <= 9000;
      out.size = v;
    } else if (key == "loss") {
      try {
        out.loss = std::stod(value);
      } catch (...) {
        ok = false;
      }
      ok = ok && out.loss >= 0.0 && out.loss < 1.0;
    } else if (key == "latency_us") {
      ok = as_u64(out.latency_us);
    } else if (key == "bandwidth_mbps") {
      ok = as_u64(out.bandwidth_mbps) && out.bandwidth_mbps > 0;
    } else if (key == "seed") {
      ok = as_u64(out.seed);
    } else {
      error = "line " + std::to_string(line_no) + ": unknown key " + key;
      return false;
    }
    if (!ok) {
      error = "line " + std::to_string(line_no) + ": bad value for " + key;
      return false;
    }
  }
  return true;
}

struct RunResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double mean_latency_us = 0;
  std::map<std::string, std::uint64_t> drops;
};

RunResult run_scenario(const Scenario& s) {
  netsim::Network net(s.seed);
  auto registry = netsim::make_default_registry();
  netsim::LinkParams link;
  link.latency = s.latency_us * kMicrosecond;
  link.bandwidth_bps = s.bandwidth_mbps * 1'000'000;
  link.faults.drop_rate = s.loss;

  auto path = netsim::make_linear_path(net, s.hops, registry, [](std::size_t i) {
    return netsim::make_basic_env(static_cast<std::uint32_t>(i));
  }, link);

  std::vector<crypto::Block> secrets;
  const auto ad = xia::xid_from_label("sim-ad");
  const auto hid = xia::xid_from_label("sim-hid");
  for (std::size_t i = 0; i < s.hops; ++i) {
    auto& env = path->routers[i]->env();
    secrets.push_back(env.node_secret);
    env.fib32->insert({fib::parse_ipv4("10.0.0.0").value(), 8},
                      path->downstream_face[i]);
    env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32},
                       path->downstream_face[i]);
    ndn::install_name_route(*env.fib32, fib::Name::parse("/sim"),
                            path->downstream_face[i]);
    if (i + 1 < s.hops) {
      env.xid_table->insert(fib::XidType::kAd, ad, path->downstream_face[i]);
    } else {
      env.xid_table->set_local(fib::XidType::kAd, ad);
      env.xid_table->insert(fib::XidType::kHid, hid, path->downstream_face[i]);
    }
    if (s.protocol == "opt") env.default_egress = path->downstream_face[i];
    else env.default_egress.reset();
  }

  // Build the per-packet template.
  crypto::Xoshiro256 rng(s.seed);
  const auto session =
      opt::negotiate_session(rng.block(), secrets, rng.block());
  auto pad = [&](std::vector<std::uint8_t> wire) {
    if (wire.size() < s.size) wire.resize(s.size, 0xA5);
    return wire;
  };

  std::vector<std::uint8_t> packet;
  if (s.protocol == "dip32") {
    packet = pad(core::make_dip32_header(fib::parse_ipv4("10.9.9.9").value(),
                                         fib::parse_ipv4("172.16.0.1").value())
                     ->serialize());
  } else if (s.protocol == "dip128") {
    packet = pad(core::make_dip128_header(fib::parse_ipv6("2001:db8::9").value(),
                                          fib::parse_ipv6("2001:db8::1").value())
                     ->serialize());
  } else if (s.protocol == "opt") {
    const std::vector<std::uint8_t> payload = {'s'};
    auto wire = opt::make_opt_header(session, payload, 1)->serialize();
    wire.insert(wire.end(), payload.begin(), payload.end());
    packet = pad(std::move(wire));
  } else if (s.protocol == "xia") {
    const auto dag =
        xia::make_service_dag(ad, hid, fib::XidType::kSid,
                              xia::xid_from_label("sim-sid"), false);
    packet = pad(xia::make_xia_header(dag)->serialize());
  }

  RunResult result;
  std::uint64_t latency_sum = 0;
  // One packet is in flight at a time (net.run() per send), so a single
  // timestamp suffices — and stays correct when packets are lost.
  SimTime last_send = 0;

  if (s.protocol == "ndn") {
    // NDN: distinct names so the PIT doesn't collapse the workload; the
    // destination answers every interest.
    path->destination.set_receiver(
        [&](netsim::FaceId face, netsim::PacketBytes bytes, SimTime) {
          const auto h = core::DipHeader::parse(bytes);
          if (!h) return;
          const auto code = ndn::extract_name_code(*h);
          if (!code) return;
          path->destination.send(face, ndn::make_data_header32(*code)->serialize());
        });
    path->source.set_receiver([&](netsim::FaceId, netsim::PacketBytes, SimTime at) {
      latency_sum += at - last_send;
      ++result.delivered;
    });
    for (std::uint64_t i = 0; i < s.packets; ++i) {
      const auto name = fib::Name::parse("/sim/obj" + std::to_string(i));
      last_send = net.now();
      path->source.send(path->source_face,
                        pad(ndn::make_interest_header(name)->serialize()));
      ++result.sent;
      net.run();
    }
  } else {
    path->destination.set_receiver(
        [&](netsim::FaceId, netsim::PacketBytes, SimTime at) {
          latency_sum += at - last_send;
          ++result.delivered;
        });
    for (std::uint64_t i = 0; i < s.packets; ++i) {
      last_send = net.now();
      path->source.send(path->source_face, packet);
      ++result.sent;
      net.run();
    }
  }

  if (result.delivered > 0) {
    result.mean_latency_us = static_cast<double>(latency_sum) /
                             static_cast<double>(result.delivered) / 1000.0;
  }
  for (const auto& router : path->routers) {
    for (int reason = 0; reason < 16; ++reason) {
      const auto count = router->drops(static_cast<core::DropReason>(reason));
      if (count > 0) {
        result.drops[std::string(
            core::to_string(static_cast<core::DropReason>(reason)))] += count;
      }
    }
  }
  return result;
}

void print_result(const Scenario& s, const RunResult& r) {
  std::printf("protocol=%-7s hops=%zu packets=%zu size=%zuB loss=%.2f\n",
              s.protocol.c_str(), s.hops, s.packets, s.size, s.loss);
  std::printf("  sent=%llu delivered=%llu (%.1f%%) mean_latency=%.1f us\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.delivered),
              r.sent ? 100.0 * static_cast<double>(r.delivered) /
                           static_cast<double>(r.sent)
                     : 0.0,
              r.mean_latency_us);
  for (const auto& [reason, count] : r.drops) {
    std::printf("  router drops: %s = %llu\n", reason.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    Scenario scenario;
    std::string error;
    if (!parse_scenario(file, scenario, error)) {
      std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
      return 1;
    }
    print_result(scenario, run_scenario(scenario));
    return 0;
  }

  std::printf("== dip_simulate demo scenarios ==\n\n");
  for (const char* protocol : {"dip32", "dip128", "ndn", "opt", "xia"}) {
    Scenario s;
    s.protocol = protocol;
    s.packets = 200;
    s.loss = 0.02;
    print_result(s, run_scenario(s));
  }
  std::printf("write your own scenario file (see the header comment) and run\n"
              "  dip_simulate scenario.conf\n");
  return 0;
}
