// §2.3 bootstrapping: capability sets, DHCP-like discovery, and BGP-style
// AS-level propagation with end-to-end intersection.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dip/bootstrap/capability.hpp"
#include "dip/bootstrap/dhcp.hpp"
#include "dip/bootstrap/propagation.hpp"
#include "dip/opt/opt.hpp"

namespace dip::bootstrap {
namespace {

using core::OpKey;

// ---------- capability set ----------

TEST(CapabilitySet, BasicOperations) {
  CapabilitySet set{OpKey::kFib, OpKey::kPit};
  EXPECT_TRUE(set.supports(OpKey::kFib));
  EXPECT_FALSE(set.supports(OpKey::kMac));
  set.add(OpKey::kMac);
  EXPECT_TRUE(set.supports(OpKey::kMac));
  set.remove(OpKey::kMac);
  EXPECT_FALSE(set.supports(OpKey::kMac));
  EXPECT_EQ(set.size(), 2u);
}

TEST(CapabilitySet, CoversAndIntersect) {
  const CapabilitySet big = full_capability_set();
  const CapabilitySet small{OpKey::kFib, OpKey::kPit};
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(small.covers(CapabilitySet{}));

  const CapabilitySet a{OpKey::kFib, OpKey::kMac, OpKey::kParm};
  const CapabilitySet b{OpKey::kMac, OpKey::kParm, OpKey::kVer};
  const CapabilitySet both = a.intersect(b);
  EXPECT_EQ(both, (CapabilitySet{OpKey::kMac, OpKey::kParm}));
}

TEST(CapabilitySet, SerializeParseRoundTrip) {
  const CapabilitySet set = table1_capability_set();
  const auto wire = set.serialize();
  EXPECT_EQ(wire.size(), 1u + set.size() * 2);
  const auto back = CapabilitySet::parse(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, set);
}

TEST(CapabilitySet, ParseRejectsTruncation) {
  const auto wire = table1_capability_set().serialize();
  EXPECT_FALSE(CapabilitySet::parse(std::span<const std::uint8_t>(wire.data(), 4)));
  EXPECT_FALSE(CapabilitySet::parse({}));
}

// A capability is any 16-bit key, named by an OpKey enumerator or not:
// such keys survive parse and serialize, sort among the named ones, and a
// repeated key is still malformed.
TEST(CapabilitySet, KeysOutsideTheEnumeratorsKeepTheirPlace) {
  const auto unnamed = static_cast<OpKey>(0xFFFE);
  const auto reserved = static_cast<OpKey>(0x0100);
  CapabilitySet set{unnamed, OpKey::kFib, reserved};
  set.add(OpKey::kMatch32);
  set.add(unnamed);  // already present
  EXPECT_TRUE(set.supports(unnamed));
  EXPECT_FALSE(set.supports(static_cast<OpKey>(0xFFFF)));
  const std::vector<OpKey> sorted{OpKey::kMatch32, OpKey::kFib, reserved, unnamed};
  EXPECT_TRUE(std::ranges::equal(set.keys(), sorted));

  const auto wire = set.serialize();
  EXPECT_EQ(wire, (std::vector<std::uint8_t>{4, 0x00, 0x01, 0x00, 0x04, 0x01, 0x00, 0xFF,
                                             0xFE}));
  const auto back = CapabilitySet::parse(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, set);

  // A wire list out of order parses into the same sorted set.
  const std::vector<std::uint8_t> unsorted = {2, 0xFF, 0xFE, 0x00, 0x04};
  const auto parsed = CapabilitySet::parse(unsorted);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, (CapabilitySet{OpKey::kFib, unnamed}));
  EXPECT_EQ(parsed->serialize(), (std::vector<std::uint8_t>{2, 0x00, 0x04, 0xFF, 0xFE}));

  const std::vector<std::uint8_t> dupes = {3, 0xFF, 0xFE, 0x00, 0x04, 0xFF, 0xFE};
  const auto rejected = CapabilitySet::parse(dupes);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error(), bytes::Error::kMalformed);

  set.remove(unnamed);
  EXPECT_FALSE(set.supports(unnamed));
  EXPECT_EQ(set.size(), 3u);
}

// The wire form counts keys in one byte. A 256th key would serialize as
// count 0, parse as the empty set, and inside a mesh hello bundle its 512
// key bytes would be read as the records behind it; so a set refuses it.
template <std::size_t... I>
CapabilitySet keys_from_one(std::index_sequence<I...>) {
  return CapabilitySet{static_cast<OpKey>(I + 1)...};
}

TEST(CapabilitySet, HoldsAtMostTheKeysItsCountByteCarries) {
  CapabilitySet set;
  for (std::uint32_t key = 1; key <= 256; ++key) set.add(static_cast<OpKey>(key));
  EXPECT_EQ(set.size(), 255u);
  EXPECT_TRUE(set.supports(static_cast<OpKey>(255)));
  EXPECT_FALSE(set.supports(static_cast<OpKey>(256))) << "the 256th key is refused";

  const auto wire = set.serialize();
  ASSERT_EQ(wire.size(), 1u + 2 * 255);
  EXPECT_EQ(wire[0], 255);
  const auto back = CapabilitySet::parse(wire);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, set);

  // The list constructor keeps the first 255 keys in list order.
  const CapabilitySet listed = keys_from_one(std::make_index_sequence<256>{});
  EXPECT_EQ(listed, set);

  set.remove(static_cast<OpKey>(7));
  set.add(static_cast<OpKey>(256));
  EXPECT_TRUE(set.supports(static_cast<OpKey>(256))) << "room again after a remove";
  EXPECT_EQ(set.size(), 255u);
}

TEST(CapabilitySet, Table1HasElevenFns) {
  EXPECT_EQ(table1_capability_set().size(), 11u);
  EXPECT_EQ(full_capability_set().size(), 13u);
}

// ---------- DHCP-like exchange ----------

TEST(Dhcp, FullDiscoveryFlow) {
  BootstrapServer as_server(table1_capability_set());

  // Host asks for everything, over the wire.
  const DiscoverRequest request{};
  const auto request_wire = request.serialize();
  const auto request_back = DiscoverRequest::parse(request_wire);
  ASSERT_TRUE(request_back);

  const DiscoverOffer offer = as_server.respond(*request_back);
  const auto offer_wire = offer.serialize();
  const auto offer_back = DiscoverOffer::parse(offer_wire);
  ASSERT_TRUE(offer_back);

  BootstrapClient host;
  host.learn(*offer_back);
  EXPECT_EQ(host.offered(), table1_capability_set());
}

TEST(Dhcp, ConstrainedRequestIntersects) {
  BootstrapServer as_server(CapabilitySet{OpKey::kFib, OpKey::kPit, OpKey::kMatch32});
  DiscoverRequest request;
  request.interested = CapabilitySet{OpKey::kFib, OpKey::kMac};
  const auto offer = as_server.respond(request);
  EXPECT_EQ(offer.available, CapabilitySet{OpKey::kFib});
}

TEST(Dhcp, RequestAndOfferFramesDistinct) {
  const auto req = DiscoverRequest{}.serialize();
  EXPECT_FALSE(DiscoverOffer::parse(req)) << "frame tags must not be confusable";
}

TEST(Dhcp, HostGatesCompositionOnOffer) {
  // §2.3: the host formulates FNs "considering both the required network
  // services and the supported FNs".
  BootstrapClient host;
  host.learn(DiscoverOffer{CapabilitySet{OpKey::kFib, OpKey::kPit}});

  const auto ndn_ok = host.first_missing(
      std::vector<core::FnTriple>{core::FnTriple::router(0, 32, OpKey::kFib)});
  EXPECT_FALSE(ndn_ok);

  const auto opt_fns = opt::opt_fn_triples();
  const auto missing = host.first_missing(opt_fns);
  ASSERT_TRUE(missing);
  EXPECT_EQ(*missing, OpKey::kParm) << "first OPT FN the AS lacks";
}

// ---------- AS graph propagation ----------

AsGraph hotnets_graph() {
  // AS1 (full) -- AS2 (full) -- AS3 (no OPT chain) -- AS4 (full)
  AsGraph graph;
  graph.add_as(1, full_capability_set());
  graph.add_as(2, full_capability_set());
  CapabilitySet no_opt = full_capability_set();
  no_opt.remove(OpKey::kParm);
  no_opt.remove(OpKey::kMac);
  no_opt.remove(OpKey::kMark);
  graph.add_as(3, no_opt);
  graph.add_as(4, full_capability_set());
  graph.add_link(1, 2);
  graph.add_link(2, 3);
  graph.add_link(3, 4);
  return graph;
}

TEST(AsGraph, ShortestPath) {
  const AsGraph graph = hotnets_graph();
  EXPECT_EQ(graph.shortest_path(1, 4), (std::vector<AsNumber>{1, 2, 3, 4}));
  EXPECT_EQ(graph.shortest_path(2, 2), std::vector<AsNumber>{2});
  EXPECT_TRUE(graph.shortest_path(1, 99).empty());
}

TEST(AsGraph, EndToEndIntersection) {
  const AsGraph graph = hotnets_graph();

  // Within the full-capability core, OPT works.
  const auto near = graph.end_to_end(1, 2);
  ASSERT_TRUE(near);
  EXPECT_TRUE(near->supports(OpKey::kMac));

  // Across AS3, the OPT chain is unusable but NDN still works — this is
  // what the host consults before composing headers (§2.4).
  const auto far = graph.end_to_end(1, 4);
  ASSERT_TRUE(far);
  EXPECT_FALSE(far->supports(OpKey::kMac));
  EXPECT_FALSE(far->supports(OpKey::kParm));
  EXPECT_TRUE(far->supports(OpKey::kFib));
  EXPECT_TRUE(far->supports(OpKey::kPit));
}

TEST(AsGraph, PathCapabilitiesExplicitRoute) {
  const AsGraph graph = hotnets_graph();
  const std::vector<AsNumber> path = {1, 2};
  const auto caps = graph.path_capabilities(path);
  ASSERT_TRUE(caps);
  EXPECT_EQ(*caps, full_capability_set());

  EXPECT_FALSE(graph.path_capabilities({}));
  const std::vector<AsNumber> ghost = {1, 77};
  EXPECT_FALSE(graph.path_capabilities(ghost));
}

TEST(AsGraph, LinkValidation) {
  AsGraph graph;
  graph.add_as(1, full_capability_set());
  EXPECT_FALSE(graph.add_link(1, 2)) << "unknown AS";
  EXPECT_FALSE(graph.add_link(1, 1)) << "self loop";
  graph.add_as(2, full_capability_set());
  EXPECT_TRUE(graph.add_link(1, 2));
  EXPECT_TRUE(graph.add_link(1, 2)) << "idempotent re-add";
}

}  // namespace
}  // namespace dip::bootstrap
