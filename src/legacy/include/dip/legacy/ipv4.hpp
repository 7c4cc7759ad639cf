// Native IPv4 header codec and forwarding — the Figure-2/Table-2 baseline.
//
// The paper measures IPv4/IPv6 forwarding as its baselines; this module is
// that comparator: a real RFC-791 header (20 bytes, Table 2 row "IPv4
// forwarding") with Internet checksum, TTL handling, and LPM next-hop
// selection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dip/bytes/expected.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/tree_bitmap.hpp"

namespace dip::legacy {

struct Ipv4Header {
  static constexpr std::size_t kWireSize = 20;  // no options
  static constexpr std::uint8_t kProtocolDip = 0xfd;  // experimental: DIP-in-IPv4

  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = kWireSize;
  std::uint16_t identification = 0;
  std::uint16_t flags_fragment = 0x4000;  // DF
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  fib::Ipv4Addr src;
  fib::Ipv4Addr dst;

  [[nodiscard]] bytes::Status serialize(std::span<std::uint8_t> out) const;
  [[nodiscard]] static bytes::Result<Ipv4Header> parse(
      std::span<const std::uint8_t> data);
};

/// RFC 1071 Internet checksum over `data`.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

enum class ForwardStatus : std::uint8_t { kForwarded, kNoRoute, kTtlExpired, kBadPacket };

struct ForwardDecision {
  ForwardStatus status = ForwardStatus::kBadPacket;
  fib::NextHop next_hop = fib::kNoRoute;
};

/// Software IPv4 forwarder: validate checksum, decrement TTL in place
/// (recomputing the checksum incrementally), look up the next hop.
class Ipv4Forwarder {
 public:
  [[nodiscard]] fib::Ipv4Lpm& table() noexcept { return table_; }

  /// `packet` = header + payload (header mutated: TTL/checksum).
  [[nodiscard]] ForwardDecision forward(std::span<std::uint8_t> packet) const;

 private:
  fib::Ipv4Lpm table_;
};

}  // namespace dip::legacy
