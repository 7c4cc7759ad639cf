// NDN TLV wire format (NDN Packet Format v0.3 subset).
//
// The paper realizes NDN's *forwarding* on DIP with 32-bit name codes
// (§4.1); real NDN endpoints speak TLV. This codec implements the TLV
// subset needed to interoperate — Interest and Data packets with names,
// nonces, lifetimes, content, and a DigestSha256-style signature stub — so
// the gateway (ndn::Gateway) can translate native NDN traffic onto a DIP
// domain and back, the same role legacy/border.hpp plays for IP.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/fib/name.hpp"

namespace dip::ndn::tlv {

// Assigned TLV type numbers (NDN packet spec v0.3).
inline constexpr std::uint64_t kInterest = 0x05;
inline constexpr std::uint64_t kData = 0x06;
inline constexpr std::uint64_t kName = 0x07;
inline constexpr std::uint64_t kGenericComponent = 0x08;
inline constexpr std::uint64_t kCanBePrefix = 0x21;
inline constexpr std::uint64_t kMustBeFresh = 0x12;
inline constexpr std::uint64_t kNonce = 0x0a;
inline constexpr std::uint64_t kInterestLifetime = 0x0c;
inline constexpr std::uint64_t kMetaInfo = 0x14;
inline constexpr std::uint64_t kFreshnessPeriod = 0x19;
inline constexpr std::uint64_t kContent = 0x15;
inline constexpr std::uint64_t kSignatureInfo = 0x16;
inline constexpr std::uint64_t kSignatureValue = 0x17;
inline constexpr std::uint64_t kSignatureType = 0x1b;

/// Write a TLV variable-length number (1/3/5/9-byte encodings).
void write_varnum(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Read a varnum; advances `pos`.
[[nodiscard]] bytes::Result<std::uint64_t> read_varnum(
    std::span<const std::uint8_t> data, std::size_t& pos);

/// Append a full TLV (type, length, value).
void write_tlv(std::vector<std::uint8_t>& out, std::uint64_t type,
               std::span<const std::uint8_t> value);

/// One parsed TLV element (value aliases the input buffer).
struct Element {
  std::uint64_t type = 0;
  std::span<const std::uint8_t> value;
};

/// Read the next TLV element; advances `pos`.
[[nodiscard]] bytes::Result<Element> read_tlv(std::span<const std::uint8_t> data,
                                              std::size_t& pos);

/// Encode/decode a Name TLV (generic components only).
void write_name(std::vector<std::uint8_t>& out, const fib::Name& name);
[[nodiscard]] bytes::Result<fib::Name> parse_name(std::span<const std::uint8_t> value);

/// NDN Interest (the subset the gateway needs).
struct Interest {
  fib::Name name;
  bool can_be_prefix = false;
  bool must_be_fresh = false;
  std::uint32_t nonce = 0;
  std::optional<std::uint64_t> lifetime_ms;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static bytes::Result<Interest> decode(
      std::span<const std::uint8_t> wire);
};

/// NDN Data.
struct Data {
  fib::Name name;
  std::optional<std::uint64_t> freshness_ms;
  std::vector<std::uint8_t> content;
  /// DigestSha256 stand-in: SipHash over name+content (the real release
  /// would plug a proper signer; the gateway only needs integrity framing).
  std::uint64_t digest = 0;

  /// Compute the digest for the current name/content.
  [[nodiscard]] std::uint64_t compute_digest() const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static bytes::Result<Data> decode(std::span<const std::uint8_t> wire);
};

}  // namespace dip::ndn::tlv
