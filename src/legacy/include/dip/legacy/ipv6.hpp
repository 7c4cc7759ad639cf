// Native IPv6 header codec and forwarding — the second Figure-2 baseline
// (Table 2 row "IPv6 forwarding", 40 bytes).
#pragma once

#include <cstdint>
#include <span>

#include "dip/bytes/expected.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/legacy/ipv4.hpp"  // ForwardDecision/ForwardStatus

namespace dip::legacy {

struct Ipv6Header {
  static constexpr std::size_t kWireSize = 40;
  static constexpr std::uint8_t kNextHeaderDip = 0xfd;  // experimental: DIP-in-IPv6

  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;  // 20 bits
  std::uint16_t payload_length = 0;
  std::uint8_t next_header = 59;  // No Next Header
  std::uint8_t hop_limit = 64;
  fib::Ipv6Addr src;
  fib::Ipv6Addr dst;

  [[nodiscard]] bytes::Status serialize(std::span<std::uint8_t> out) const;
  [[nodiscard]] static bytes::Result<Ipv6Header> parse(
      std::span<const std::uint8_t> data);
};

/// Software IPv6 forwarder: hop-limit handling + 128-bit LPM.
class Ipv6Forwarder {
 public:
  [[nodiscard]] fib::Ipv6Lpm& table() noexcept { return table_; }

  [[nodiscard]] ForwardDecision forward(std::span<std::uint8_t> packet) const;

 private:
  fib::Ipv6Lpm table_;
};

}  // namespace dip::legacy
