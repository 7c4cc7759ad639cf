// NDN-over-DIP: name codec, F_FIB/F_PIT semantics, Table-2 sizes, caching.
#include <gtest/gtest.h>

#include "dip/core/router.hpp"
#include "dip/ndn/name_codec.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"

namespace dip::ndn {
namespace {

using core::Action;
using core::DipHeader;
using core::DropReason;
using core::OpKey;
using core::Router;
using fib::Name;

std::shared_ptr<core::OpRegistry> registry() {
  static auto r = netsim::make_default_registry();
  return r;
}

// ---------- name codec ----------

TEST(NameCodec, PrefixStructurePreserved) {
  const Name name = Name::parse("/org/hotnets/prog/22");
  const std::uint32_t code = encode_name32(name);

  // The k-component prefix code equals the top k bytes of the full code.
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto prefix = encode_prefix32(name, k);
    EXPECT_EQ(prefix.length, k * 8);
    for (std::size_t bit = 0; bit < k * 8; ++bit) {
      EXPECT_EQ(prefix.addr.bit(bit), fib::ipv4_from_u32(code).bit(bit))
          << "bit " << bit << " at k=" << k;
    }
  }
}

TEST(NameCodec, DistinctNamesUsuallyDistinct) {
  EXPECT_NE(encode_name32(Name::parse("/org/hotnets")),
            encode_name32(Name::parse("/com/example")));
  EXPECT_NE(encode_name32(Name::parse("/a")), encode_name32(Name::parse("/b")));
}

TEST(NameCodec, LpmOverCodesMatchesComponentSemantics) {
  auto fib_table = std::make_unique<fib::Ipv4Lpm>();
  install_name_route(*fib_table, Name::parse("/org"), 1);
  install_name_route(*fib_table, Name::parse("/org/hotnets"), 2);

  const auto deep = encode_name32(Name::parse("/org/hotnets/prog/22"));
  const auto shallow = encode_name32(Name::parse("/org/other/x/y"));
  EXPECT_EQ(fib_table->lookup(fib::ipv4_from_u32(deep)).value(), 2u);
  EXPECT_EQ(fib_table->lookup(fib::ipv4_from_u32(shallow)).value(), 1u);
}

// ---------- Table 2: 16-byte NDN headers ----------

TEST(Table2, NdnHeadersAre16Bytes) {
  const Name name = Name::parse("/hotnets/org");
  EXPECT_EQ(make_interest_header(name)->wire_size(), 16u);
  EXPECT_EQ(make_data_header(name)->wire_size(), 16u);
}

TEST(NdnHeaders, TriplesMatchPaperSection3) {
  const auto interest = make_interest_header(Name::parse("/x"));
  ASSERT_TRUE(interest);
  ASSERT_EQ(interest->fns.size(), 1u);
  EXPECT_EQ(interest->fns[0], core::FnTriple::router(0, 32, OpKey::kFib));

  const auto data = make_data_header(Name::parse("/x"));
  ASSERT_EQ(data->fns.size(), 1u);
  EXPECT_EQ(data->fns[0], core::FnTriple::router(0, 32, OpKey::kPit));
}

TEST(NdnHeaders, ExtractNameCode) {
  const std::uint32_t code = encode_name32(Name::parse("/a/b"));
  const auto h = make_interest_header32(code);
  EXPECT_EQ(extract_name_code(*h).value(), code);
  EXPECT_FALSE(extract_name_code(DipHeader{}));
}

// ---------- router-level semantics ----------

struct NdnFixture : ::testing::Test {
  NdnFixture() : router(make_env(), registry().get()) {}

  static core::RouterEnv make_env() {
    core::RouterEnv env = netsim::make_basic_env(1);
    install_name_route(*env.fib32, Name::parse("/org"), 5);
    return env;
  }

  static std::vector<std::uint8_t> interest(const Name& name) {
    return make_interest_header(name)->serialize();
  }
  static std::vector<std::uint8_t> data(const Name& name,
                                        std::vector<std::uint8_t> body = {1, 2, 3}) {
    auto wire = make_data_header(name)->serialize();
    wire.insert(wire.end(), body.begin(), body.end());
    return wire;
  }

  Router router;
};

TEST_F(NdnFixture, InterestRecordsPitAndForwardsViaFib) {
  auto packet = interest(Name::parse("/org/file"));
  const auto result = router.process(packet, /*ingress=*/3, 0);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, std::vector<core::FaceId>{5});
  EXPECT_EQ(router.env().pit.size(), 1u);
}

TEST_F(NdnFixture, InterestWithoutRouteDropped) {
  auto packet = interest(Name::parse("/net/unknown"));
  const auto result = router.process(packet, 3, 0);
  EXPECT_EQ(result.reason, DropReason::kNoRoute);
}

TEST_F(NdnFixture, DataFollowsPitBackAndFansOut) {
  const Name name = Name::parse("/org/file");
  auto i1 = interest(name);
  auto i2 = interest(name);
  (void)router.process(i1, 3, 0);
  const auto aggregated = router.process(i2, 4, 0);
  EXPECT_EQ(aggregated.reason, DropReason::kAggregated) << "2nd interest suppressed";

  auto d = data(name);
  const auto result = router.process(d, /*ingress=*/5, 1);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, (std::vector<core::FaceId>{3, 4})) << "fan out to both";
}

TEST_F(NdnFixture, UnsolicitedDataIsPitMiss) {
  auto d = data(Name::parse("/org/file"));
  const auto result = router.process(d, 5, 0);
  EXPECT_EQ(result.action, Action::kDrop);
  EXPECT_EQ(result.reason, DropReason::kPitMiss);
}

TEST_F(NdnFixture, LoopingInterestDropped) {
  const Name name = Name::parse("/org/file");
  auto i1 = interest(name);
  auto i2 = interest(name);
  (void)router.process(i1, 3, 0);
  const auto result = router.process(i2, 3, 0);  // same face again
  EXPECT_EQ(result.reason, DropReason::kDuplicate);
}

TEST_F(NdnFixture, ContentStoreServesRepeatInterest) {
  router.env().content_store.emplace(16);
  const Name name = Name::parse("/org/file");

  // First round-trip populates the cache.
  auto i1 = interest(name);
  (void)router.process(i1, 3, 0);
  auto d = data(name, {9, 9});
  (void)router.process(d, 5, 1);
  EXPECT_TRUE(router.env().content_store->contains(encode_name32(name)));

  // Second interest: answered from cache toward the requester.
  auto i2 = interest(name);
  const auto result = router.process(i2, 4, 2);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_TRUE(result.respond_from_cache);
  EXPECT_EQ(result.egress, std::vector<core::FaceId>{4});
}

TEST_F(NdnFixture, PitFullRefusesNewInterests) {
  pit::Pit::Config config;
  config.max_entries = 1;
  router.env().pit = pit::Pit(config);

  auto i1 = interest(Name::parse("/org/a"));
  EXPECT_EQ(router.process(i1, 3, 0).action, Action::kForward);
  auto i2 = interest(Name::parse("/org/b"));
  EXPECT_EQ(router.process(i2, 3, 0).reason, DropReason::kBudgetExhausted);
}

// ---------- end-to-end over the simulator ----------

TEST(NdnEndToEnd, InterestUpDataDownAcrossThreeRouters) {
  netsim::Network net;
  auto path = netsim::make_linear_path(
      net, 3, registry(), [](std::size_t i) { return netsim::make_basic_env(i); });

  const Name name = Name::parse("/org/hotnets/talk");
  const std::uint32_t code = encode_name32(name);
  // Name routes point downstream on every router.
  for (std::size_t i = 0; i < 3; ++i) {
    install_name_route(*path->routers[i]->env().fib32, Name::parse("/org"),
                       path->downstream_face[i]);
    path->routers[i]->env().default_egress.reset();  // NDN: FIB must decide
  }

  // Producer behavior: the destination answers interests with data.
  std::vector<std::uint8_t> received_payload;
  path->destination.set_receiver(
      [&](netsim::FaceId face, netsim::PacketBytes packet, SimTime) {
        const auto header = DipHeader::parse(packet);
        ASSERT_TRUE(header.has_value());
        const auto got = extract_name_code(*header);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, code);
        auto reply = make_data_header32(*got)->serialize();
        const std::vector<std::uint8_t> body = {'d', 'a', 't', 'a'};
        reply.insert(reply.end(), body.begin(), body.end());
        path->destination.send(face, std::move(reply));
      });
  path->source.set_receiver(
      [&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
        const auto header = DipHeader::parse(packet);
        ASSERT_TRUE(header.has_value());
        const std::size_t hsize = header->wire_size();
        received_payload.assign(packet.begin() + static_cast<std::ptrdiff_t>(hsize),
                                packet.end());
      });

  path->source.send(path->source_face, make_interest_header(name)->serialize());
  net.run();

  EXPECT_EQ(received_payload, (std::vector<std::uint8_t>{'d', 'a', 't', 'a'}));
  for (const auto& r : path->routers) {
    EXPECT_EQ(r->env().pit.size(), 0u) << "data consumed every PIT entry";
  }
}

}  // namespace
}  // namespace dip::ndn
