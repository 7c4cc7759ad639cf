// Address and prefix types for the FIB substrate.
//
// F_32_match / F_128_match (Table 1, keys 1-2) operate on 32- and 128-bit
// address fields; both are represented as fixed-size big-endian byte arrays
// so the same trie code serves IPv4, IPv6, and any future field width.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dip::fib {

/// Big-endian address of W bits (W % 8 == 0).
template <std::size_t W>
struct Address {
  static constexpr std::size_t kBits = W;
  static constexpr std::size_t kBytes = W / 8;
  std::array<std::uint8_t, kBytes> bytes{};

  /// Bit i, MSB-first (bit 0 is the top bit of bytes[0]).
  [[nodiscard]] constexpr bool bit(std::size_t i) const noexcept {
    return (bytes[i / 8] >> (7 - (i % 8))) & 1u;
  }

  constexpr void set_bit(std::size_t i, bool v) noexcept {
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - (i % 8)));
    if (v) {
      bytes[i / 8] |= mask;
    } else {
      bytes[i / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }

  auto operator<=>(const Address&) const = default;
};

using Ipv4Addr = Address<32>;
using Ipv6Addr = Address<128>;

/// Build an IPv4 address from a host-order u32.
[[nodiscard]] constexpr Ipv4Addr ipv4_from_u32(std::uint32_t v) noexcept {
  Ipv4Addr a;
  for (int i = 0; i < 4; ++i) a.bytes[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  return a;
}

/// Host-order u32 of an IPv4 address.
[[nodiscard]] constexpr std::uint32_t ipv4_to_u32(const Ipv4Addr& a) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | a.bytes[i];
  return v;
}

/// Parse dotted-quad ("192.0.2.1").
[[nodiscard]] std::optional<Ipv4Addr> parse_ipv4(std::string_view text);

/// Format dotted-quad.
[[nodiscard]] std::string format_ipv4(const Ipv4Addr& a);

/// Parse a *full-form* IPv6 literal of 8 colon-separated hex groups, plus the
/// "::" shorthand. ("2001:db8::1")
[[nodiscard]] std::optional<Ipv6Addr> parse_ipv6(std::string_view text);

/// Format IPv6 as 8 full hex groups (no zero compression; stable for tests).
[[nodiscard]] std::string format_ipv6(const Ipv6Addr& a);

/// A routing prefix: the top `length` bits of `addr` (rest must be zero-able;
/// insert() normalizes).
template <std::size_t W>
struct Prefix {
  Address<W> addr{};
  std::uint8_t length = 0;  ///< 0..W

  /// Zero all bits beyond `length` so equal prefixes compare equal: mask
  /// the byte the boundary falls in, then clear the bytes after it.
  constexpr void normalize() noexcept {
    std::size_t byte = length / 8;
    if (byte >= Address<W>::kBytes) return;
    if (const std::size_t kept = length % 8; kept != 0) {
      addr.bytes[byte++] &= static_cast<std::uint8_t>(0xFF00u >> kept);
    }
    for (; byte < Address<W>::kBytes; ++byte) addr.bytes[byte] = 0;
  }

  /// True iff `a` falls inside this prefix.
  [[nodiscard]] constexpr bool matches(const Address<W>& a) const noexcept {
    for (std::size_t i = 0; i < length; ++i) {
      if (addr.bit(i) != a.bit(i)) return false;
    }
    return true;
  }

  auto operator<=>(const Prefix&) const = default;
};

using Ipv4Prefix = Prefix<32>;
using Ipv6Prefix = Prefix<128>;

/// Next-hop handle: an egress face/port id. kNoRoute means "no entry".
using NextHop = std::uint32_t;
inline constexpr NextHop kNoRoute = 0xffffffffu;

}  // namespace dip::fib
