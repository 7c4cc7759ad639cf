// Legacy interop: native IPv4/IPv6 codecs (the paper's baselines), §2.4
// border-router strip/add, and the incremental-deployment tunnel.
#include <gtest/gtest.h>

#include "dip/core/builder.hpp"
#include "dip/legacy/border.hpp"
#include "dip/legacy/ipv4.hpp"
#include "dip/legacy/ipv6.hpp"
#include "dip/legacy/tunnel.hpp"

namespace dip::legacy {
namespace {

// ---------- IPv4 ----------

Ipv4Header sample_v4() {
  Ipv4Header h;
  h.ttl = 17;
  h.protocol = 17;
  h.total_length = 48;
  h.src = fib::parse_ipv4("10.0.0.1").value();
  h.dst = fib::parse_ipv4("192.0.2.9").value();
  return h;
}

TEST(Ipv4, Table2HeaderIs20Bytes) {
  EXPECT_EQ(Ipv4Header::kWireSize, 20u);
}

TEST(Ipv4, SerializeParseRoundTrip) {
  const Ipv4Header h = sample_v4();
  std::array<std::uint8_t, 20> wire{};
  ASSERT_TRUE(h.serialize(wire));

  const auto back = Ipv4Header::parse(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->ttl, 17);
  EXPECT_EQ(back->protocol, 17);
  EXPECT_EQ(back->total_length, 48);
  EXPECT_EQ(back->src, h.src);
  EXPECT_EQ(back->dst, h.dst);
}

TEST(Ipv4, ChecksumValidatedOnParse) {
  std::array<std::uint8_t, 20> wire{};
  ASSERT_TRUE(sample_v4().serialize(wire));
  wire[15] ^= 1;  // corrupt a source byte
  const auto back = Ipv4Header::parse(wire);
  ASSERT_FALSE(back);
  EXPECT_EQ(back.error(), bytes::Error::kChecksum);
}

TEST(Ipv4, InternetChecksumKnownAnswer) {
  // Classic RFC 1071 example bytes.
  const std::array<std::uint8_t, 8> data = {0x00, 0x01, 0xf2, 0x03,
                                            0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Ipv4Forwarder, ForwardsAndPatchesTtlIncrementally) {
  Ipv4Forwarder fwd;
  fwd.table().insert({fib::parse_ipv4("192.0.2.0").value(), 24}, 6);

  std::vector<std::uint8_t> packet(20 + 8);
  ASSERT_TRUE(sample_v4().serialize(packet));

  const auto decision = fwd.forward(packet);
  EXPECT_EQ(decision.status, ForwardStatus::kForwarded);
  EXPECT_EQ(decision.next_hop, 6u);
  EXPECT_EQ(packet[8], 16) << "TTL decremented";
  // Incremental checksum update must leave a valid header.
  EXPECT_TRUE(Ipv4Header::parse(std::span<const std::uint8_t>(packet).subspan(0, 20)));
}

TEST(Ipv4Forwarder, TtlExpiryAndNoRoute) {
  Ipv4Forwarder fwd;

  Ipv4Header h = sample_v4();
  h.ttl = 1;
  std::vector<std::uint8_t> packet(20);
  ASSERT_TRUE(h.serialize(packet));
  EXPECT_EQ(fwd.forward(packet).status, ForwardStatus::kTtlExpired);

  std::vector<std::uint8_t> packet2(20);
  ASSERT_TRUE(sample_v4().serialize(packet2));
  EXPECT_EQ(fwd.forward(packet2).status, ForwardStatus::kNoRoute);

  std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_EQ(fwd.forward(garbage).status, ForwardStatus::kBadPacket);
}

// ---------- IPv6 ----------

Ipv6Header sample_v6() {
  Ipv6Header h;
  h.hop_limit = 9;
  h.next_header = 6;
  h.payload_length = 100;
  h.flow_label = 0xABCDE;
  h.src = fib::parse_ipv6("2001:db8::1").value();
  h.dst = fib::parse_ipv6("2001:db8:ffff::2").value();
  return h;
}

TEST(Ipv6, Table2HeaderIs40Bytes) {
  EXPECT_EQ(Ipv6Header::kWireSize, 40u);
}

TEST(Ipv6, SerializeParseRoundTrip) {
  std::array<std::uint8_t, 40> wire{};
  ASSERT_TRUE(sample_v6().serialize(wire));
  EXPECT_EQ(wire[0] >> 4, 6);

  const auto back = Ipv6Header::parse(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->hop_limit, 9);
  EXPECT_EQ(back->next_header, 6);
  EXPECT_EQ(back->payload_length, 100);
  EXPECT_EQ(back->flow_label, 0xABCDEu);
  EXPECT_EQ(back->src, sample_v6().src);
  EXPECT_EQ(back->dst, sample_v6().dst);
}

TEST(Ipv6Forwarder, ForwardsByLpm) {
  Ipv6Forwarder fwd;
  fwd.table().insert({fib::parse_ipv6("2001:db8:ffff::").value(), 48}, 3);

  std::vector<std::uint8_t> packet(40);
  ASSERT_TRUE(sample_v6().serialize(packet));
  const auto decision = fwd.forward(packet);
  EXPECT_EQ(decision.status, ForwardStatus::kForwarded);
  EXPECT_EQ(decision.next_hop, 3u);
  EXPECT_EQ(packet[7], 8) << "hop limit decremented";
}

// ---------- border router (§2.4) ----------

TEST(Border, WrapIpv6MatchesNativeOffsets) {
  std::array<std::uint8_t, 40> v6{};
  ASSERT_TRUE(sample_v6().serialize(v6));
  const auto wrapped = wrap_ipv6(v6);
  ASSERT_TRUE(wrapped);
  ASSERT_EQ(wrapped->fns.size(), 2u);
  EXPECT_EQ(wrapped->fns[0].field_loc, 24 * 8);
  EXPECT_EQ(wrapped->fns[0].key(), core::OpKey::kMatch128);
  EXPECT_EQ(wrapped->fns[1].field_loc, 8 * 8);
  EXPECT_EQ(wrapped->locations.size(), 40u);
  // The destination extracted through the FN equals the native field.
  const auto dst = bytes::extract_bits_vec(wrapped->locations,
                                           wrapped->fns[0].range());
  ASSERT_TRUE(dst.has_value());
  EXPECT_TRUE(std::equal(dst->begin(), dst->end(), sample_v6().dst.bytes.begin()));
}

TEST(Border, StripAddRoundTripIpv6) {
  // legacy -> DIP (inbound border) -> legacy (outbound border) must be the
  // identity on the legacy bytes.
  std::vector<std::uint8_t> legacy_packet(40 + 16, 0x5A);
  ASSERT_TRUE(sample_v6().serialize(legacy_packet));

  const auto dip = add_from_legacy(legacy_packet);
  ASSERT_TRUE(dip);
  EXPECT_GT(dip->size(), legacy_packet.size()) << "DIP adds basic header + triples";

  const auto back = strip_to_legacy(*dip);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, legacy_packet);
}

TEST(Border, StripAddRoundTripIpv4) {
  std::vector<std::uint8_t> legacy_packet(20 + 5, 0x77);
  ASSERT_TRUE(sample_v4().serialize(legacy_packet));
  const auto dip = add_from_legacy(legacy_packet);
  ASSERT_TRUE(dip);
  const auto back = strip_to_legacy(*dip);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, legacy_packet);
}

TEST(Border, RejectsNonLegacyLocations) {
  // A DIP packet whose locations are not a legacy header must not be
  // stripped into the legacy domain.
  core::HeaderBuilder b;
  const std::array<std::uint8_t, 4> junk = {0x00, 1, 2, 3};  // version nibble 0
  b.add_router_fn(core::OpKey::kSource, junk);
  const auto wire = b.build()->serialize();
  const auto out = strip_to_legacy(wire);
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error(), bytes::Error::kUnsupported);
}

TEST(Border, RejectsUnknownLegacyVersion) {
  const std::vector<std::uint8_t> bogus = {0x50, 0, 0, 0};
  EXPECT_FALSE(add_from_legacy(bogus));
  EXPECT_FALSE(add_from_legacy({}));
}

// ---------- tunnel (§2.4 incremental deployment) ----------

TEST(Tunnel, EncapDecapRoundTrip) {
  const auto a = fib::parse_ipv6("2001:db8::a").value();
  const auto b = fib::parse_ipv6("2001:db8::b").value();
  Ipv6Tunnel left(a, b);
  Ipv6Tunnel right(b, a);

  const std::vector<std::uint8_t> inner = {9, 8, 7, 6, 5};
  const auto encapsulated = left.encapsulate(inner);
  EXPECT_EQ(encapsulated.size(), 40u + inner.size());
  EXPECT_EQ(encapsulated[6], Ipv6Header::kNextHeaderDip);

  const auto decapsulated = right.decapsulate(encapsulated);
  ASSERT_TRUE(decapsulated);
  EXPECT_EQ(*decapsulated, inner);
}

TEST(Tunnel, RejectsWrongDestinationOrProtocol) {
  const auto a = fib::parse_ipv6("::a").value();
  const auto b = fib::parse_ipv6("::b").value();
  const auto c = fib::parse_ipv6("::c").value();
  Ipv6Tunnel left(a, b);
  Ipv6Tunnel wrong(c, a);

  const std::vector<std::uint8_t> inner3 = {1, 2, 3};
  const auto encapsulated = left.encapsulate(inner3);
  EXPECT_FALSE(wrong.decapsulate(encapsulated)) << "not addressed to c";

  // A plain (non-DIP) IPv6 packet must be refused.
  std::array<std::uint8_t, 40> plain{};
  Ipv6Header h;
  h.dst = b;
  ASSERT_TRUE(h.serialize(plain));
  Ipv6Tunnel right(b, a);
  const auto out = right.decapsulate(plain);
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error(), bytes::Error::kUnsupported);
}

TEST(Tunnel, LegacyRoutersForwardTheOuterHeader) {
  // The encapsulated packet is routable by a plain IPv6 forwarder — that is
  // the whole point of the tunnel.
  const auto a = fib::parse_ipv6("2001:db8::a").value();
  const auto b = fib::parse_ipv6("2001:db8:b::b").value();
  Ipv6Tunnel left(a, b);
  const std::vector<std::uint8_t> inner4 = {1, 2, 3, 4};
  auto packet = left.encapsulate(inner4);

  Ipv6Forwarder fwd;
  fwd.table().insert({fib::parse_ipv6("2001:db8:b::").value(), 48}, 12);
  const auto decision = fwd.forward(packet);
  EXPECT_EQ(decision.status, ForwardStatus::kForwarded);
  EXPECT_EQ(decision.next_hop, 12u);
}

}  // namespace
}  // namespace dip::legacy
