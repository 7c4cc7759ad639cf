// Incremental deployment (§2.4): two DIP islands joined across a
// DIP-agnostic IPv6 core by a tunnel, plus border-router down/up-conversion
// for talking to pure-legacy hosts.
#include <cstdio>

#include "dip/core/ip.hpp"
#include "dip/legacy/border.hpp"
#include "dip/legacy/tunnel.hpp"
#include "dip/netsim/topology.hpp"

int main() {
  using namespace dip;

  std::printf("== Incremental deployment: DIP islands over a legacy IPv6 core ==\n\n");

  // Island A (DIP) ... border L ====(IPv6 core, 2 legacy routers)==== border R ... Island B (DIP)
  const auto left_addr = fib::parse_ipv6("2001:db8:a::1").value();
  const auto right_addr = fib::parse_ipv6("2001:db8:b::1").value();
  legacy::Ipv6Tunnel tunnel_left(left_addr, right_addr);
  legacy::Ipv6Tunnel tunnel_right(right_addr, left_addr);

  legacy::Ipv6Forwarder core1;
  legacy::Ipv6Forwarder core2;
  core1.table().insert({fib::parse_ipv6("2001:db8:b::").value(), 48}, 1);
  core2.table().insert({fib::parse_ipv6("2001:db8:b::").value(), 48}, 2);

  // The DIP packet from island A to island B.
  const auto header = core::make_dip32_header(fib::parse_ipv4("10.2.0.9").value(),
                                              fib::parse_ipv4("10.1.0.1").value());
  auto dip_packet = header->serialize();
  const char msg[] = "crossing the legacy core";
  dip_packet.insert(dip_packet.end(), msg, msg + sizeof(msg));
  std::printf("[island A] DIP packet: %zu bytes\n", dip_packet.size());

  // Border L encapsulates.
  auto in_flight = tunnel_left.encapsulate(dip_packet);
  std::printf("[border L] encapsulated in IPv6: %zu bytes (outer dst %s)\n",
              in_flight.size(), fib::format_ipv6(right_addr).c_str());

  // Legacy core forwards on the outer header only — it never parses DIP.
  for (auto* router : {&core1, &core2}) {
    const auto decision = router->forward(in_flight);
    if (decision.status != legacy::ForwardStatus::kForwarded) {
      std::printf("legacy core failed to forward!\n");
      return 1;
    }
    std::printf("[legacy ] forwarded on outer IPv6 header (next hop %u), "
                "hop limit now %u\n",
                decision.next_hop, in_flight[7]);
  }

  // Border R decapsulates.
  const auto delivered = tunnel_right.decapsulate(in_flight);
  if (!delivered || *delivered != dip_packet) {
    std::printf("tunnel corrupted the DIP packet!\n");
    return 1;
  }
  std::printf("[border R] decapsulated: %zu bytes, DIP packet intact\n\n",
              delivered->size());

  // ---- Part 2: talking to a pure-legacy host via border conversion --------
  std::printf("== Backward compatibility: DIP <-> native IPv6 (no tunnel) ==\n\n");

  // A DIP host builds a packet whose FN locations ARE a native IPv6 header
  // (the paper: "the existing network protocol header can be viewed as an
  // FN location in the DIP").
  legacy::Ipv6Header native;
  native.src = fib::parse_ipv6("2001:db8:a::42").value();
  native.dst = fib::parse_ipv6("2001:db8:ffff::7").value();
  native.next_header = 17;
  native.payload_length = 4;
  std::vector<std::uint8_t> native_packet(40 + 4, 0xEE);
  (void)native.serialize(native_packet);

  const auto wrapped = legacy::wrap_ipv6(native_packet);
  std::printf("[DIP host] composed carrier header: %zu bytes "
              "(40 B IPv6 as FN locations + %zu B DIP framing)\n",
              wrapped->wire_size(), wrapped->wire_size() - 40);

  // Outbound border strips the DIP framing; what exits is plain IPv6.
  auto dip_carrier = wrapped->serialize();
  dip_carrier.insert(dip_carrier.end(), native_packet.begin() + 40, native_packet.end());
  const auto stripped = legacy::strip_to_legacy(dip_carrier);
  std::printf("[border  ] stripped to %zu bytes; version nibble = %d\n",
              stripped->size(), (*stripped)[0] >> 4);

  // A legacy IPv6 router happily forwards it.
  legacy::Ipv6Forwarder legacy_router;
  legacy_router.table().insert({fib::parse_ipv6("2001:db8:ffff::").value(), 48}, 9);
  auto legacy_copy = *stripped;
  const auto decision = legacy_router.forward(legacy_copy);
  std::printf("[legacy  ] forwarded natively: %s (next hop %u)\n",
              decision.status == legacy::ForwardStatus::kForwarded ? "yes" : "NO",
              decision.next_hop);

  // Inbound border adds the framing back.
  const auto restored = legacy::add_from_legacy(*stripped);
  std::printf("[border  ] re-wrapped into DIP: %zu bytes; parses as DIP: %s\n",
              restored->size(),
              core::DipHeader::parse(*restored).has_value() ? "yes" : "NO");

  std::printf("\nBoth §2.4 deployment stories demonstrated: tunneling across\n"
              "DIP-agnostic cores, and lossless border conversion to legacy IP.\n");
  return 0;
}
