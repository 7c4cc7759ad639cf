// dip_inspect — decode and explain a DIP packet.
//
//   $ ./dip_inspect <hex-bytes>        # inspect your own packet
//   $ ./dip_inspect                    # demo: inspects one of each protocol
//
// Prints the basic header, the FN program (with Table-1 notation, tag bits,
// the budget cost a default-registry router charges, path-criticality),
// the locations block, the stage-budget compiler's verdict on the
// Tofino-like switch model, and the modeled switch cost — a one-stop
// debugging tool for anyone composing their own FN programs.
#include <cstdio>
#include <string>

#include "dip/bytes/hex.hpp"
#include "dip/crypto/random.hpp"
#include "dip/core/ip.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/opt/opt.hpp"
#include "dip/pisa/compiler.hpp"
#include "dip/xia/xia.hpp"

namespace {

void inspect(std::span<const std::uint8_t> packet) {
  using namespace dip;

  std::printf("packet: %zu bytes\n", packet.size());
  const auto header = core::DipHeader::parse(packet);
  if (!header) {
    std::printf("  not a valid DIP packet: %s error\n",
                bytes::to_string(header.error()));
    return;
  }

  const auto& b = header->basic;
  std::printf("  basic header : next_header=%u fn_num=%u hop_limit=%u "
              "parallel=%s loc_len=%u\n",
              b.next_header, b.fn_num, b.hop_limit, b.parallel ? "yes" : "no",
              b.loc_len);
  std::printf("  header size  : %zu bytes (6 + %zux6 + %u)\n", header->wire_size(),
              header->fns.size(), b.loc_len);

  // Budget cost is what the router charges: the registered module's cost(),
  // "-" for a key no router module serves (host-side F_ver, for one).
  static const auto registry = netsim::make_default_registry();
  std::printf("  FN program   :\n");
  std::printf("    %-4s %-12s %-6s %-6s %-6s %-5s %s\n", "#", "operation", "loc",
              "len", "tag", "cost", "path-critical");
  for (std::size_t i = 0; i < header->fns.size(); ++i) {
    const auto& fn = header->fns[i];
    const auto info = core::fn_info(fn.key());
    const core::OpModule* module = registry->find(fn.key());
    const std::string cost = module ? std::to_string(module->cost()) : "-";
    std::printf("    %-4zu %-12s %-6u %-6u %-6s %-5s %s\n", i,
                std::string(core::op_key_name(fn.key())).c_str(), fn.field_loc,
                fn.field_len, fn.host_tagged() ? "host" : "router", cost.c_str(),
                info && info->requires_full_path ? "yes" : "no");
  }

  std::printf("  locations    :\n%s", bytes::hex_dump(header->locations).c_str());

  const auto fit = pisa::compile(header->fns, header->locations.size());
  std::printf("  tofino check : %s (%s)\n",
              std::string(pisa::to_string(fit.verdict)).c_str(), fit.reason.c_str());

  const auto cycles =
      pisa::estimate_protocol_cycles(header->fns, header->locations.size());
  std::printf("  switch cost  : %llu cycles (parse %llu, match %llu, crypto %llu)\n",
              static_cast<unsigned long long>(cycles.total()),
              static_cast<unsigned long long>(cycles.parse),
              static_cast<unsigned long long>(cycles.match),
              static_cast<unsigned long long>(cycles.crypto));

  const std::size_t payload = packet.size() - header->wire_size();
  if (payload > 0) std::printf("  payload      : %zu bytes\n", payload);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dip;

  if (argc > 1) {
    const auto bytes = bytes::from_hex(argv[1]);
    if (!bytes) {
      std::fprintf(stderr, "not a hex string: %s\n", argv[1]);
      return 1;
    }
    inspect(*bytes);
    return 0;
  }

  std::printf("== dip_inspect demo: one packet per protocol ==\n\n");

  std::printf("--- DIP-32 ---\n");
  inspect(core::make_dip32_header(fib::parse_ipv4("10.1.1.9").value(),
                                  fib::parse_ipv4("172.16.0.1").value())
              ->serialize());

  std::printf("--- NDN interest ---\n");
  inspect(ndn::make_interest_header(fib::Name::parse("/hotnets/org"))->serialize());

  std::printf("--- NDN+OPT data ---\n");
  crypto::Xoshiro256 rng(1);
  const std::vector<crypto::Block> secrets{rng.block(), rng.block()};
  const auto session = opt::negotiate_session(rng.block(), secrets, rng.block());
  const std::vector<std::uint8_t> payload = {'x'};
  inspect(opt::make_ndn_opt_header(ndn::encode_name32(fib::Name::parse("/x")), false,
                                   session, payload, 1000)
              ->serialize());

  std::printf("--- XIA ---\n");
  const auto dag = xia::make_service_dag(xia::xid_from_label("ad"),
                                         xia::xid_from_label("host"),
                                         fib::XidType::kSid, xia::xid_from_label("svc"));
  inspect(xia::make_xia_header(dag)->serialize());

  std::printf("tip: pass any hex string to inspect your own packet, e.g.\n"
              "  dip_inspect $(your-tool --dump-hex)\n");
  return 0;
}
