// Cross-module integration: the five §3 protocols end-to-end on one
// simulated topology, incremental deployment over a legacy tunnel, and the
// §2.4 content-poisoning defense loop.
#include <gtest/gtest.h>

#include "dip/bootstrap/dhcp.hpp"
#include "dip/core/ip.hpp"
#include "dip/legacy/tunnel.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/security/pass.hpp"
#include "dip/security/poisoning_detector.hpp"
#include "dip/xia/xia.hpp"

namespace dip {
namespace {

using core::DipHeader;
using core::NextHeader;
using core::OpKey;
using fib::Name;

std::shared_ptr<core::OpRegistry> registry() {
  static auto r = netsim::make_default_registry();
  return r;
}

std::vector<std::uint8_t> with_payload(const DipHeader& h,
                                       std::span<const std::uint8_t> payload) {
  auto wire = h.serialize();
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

std::span<const std::uint8_t> payload_of(const DipHeader& h,
                                         std::span<const std::uint8_t> packet) {
  return packet.subspan(h.wire_size());
}

// One topology, five protocols, one registry: the DIP thesis in a test.
struct FiveProtocolFixture : ::testing::Test {
  static constexpr std::size_t kHops = 3;

  void SetUp() override {
    path = netsim::make_linear_path(net, kHops, registry(), [](std::size_t i) {
      return netsim::make_basic_env(static_cast<std::uint32_t>(i));
    });

    for (std::size_t i = 0; i < kHops; ++i) {
      auto& env = path->routers[i]->env();
      env.default_egress.reset();  // every protocol must route itself
      // IPv4/IPv6 routes toward the destination.
      env.fib32->insert({fib::parse_ipv4("10.0.0.0").value(), 8},
                        path->downstream_face[i]);
      env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32},
                         path->downstream_face[i]);
      // NDN name route.
      ndn::install_name_route(*env.fib32, Name::parse("/hotnets"),
                              path->downstream_face[i]);
      secrets.push_back(env.node_secret);
    }

    delivered.clear();
    path->destination.set_receiver(
        [&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
          delivered.push_back(std::move(packet));
        });
  }

  netsim::Network net;
  std::unique_ptr<netsim::LinearPath> path;
  std::vector<crypto::Block> secrets;
  std::vector<netsim::PacketBytes> delivered;
};

TEST_F(FiveProtocolFixture, Dip32Delivery) {
  const auto h = core::make_dip32_header(fib::parse_ipv4("10.0.0.7").value(),
                                         fib::parse_ipv4("172.16.0.1").value());
  const std::vector<std::uint8_t> body = {'i', 'p', '4'};
  path->source.send(path->source_face, with_payload(*h, body));
  net.run();

  ASSERT_EQ(delivered.size(), 1u);
  const auto back = DipHeader::parse(delivered[0]);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->basic.hop_limit, 64 - kHops) << "each router decrements";
  EXPECT_TRUE(std::ranges::equal(payload_of(*back, delivered[0]), body));
}

TEST_F(FiveProtocolFixture, Dip128Delivery) {
  const auto h = core::make_dip128_header(fib::parse_ipv6("2001:db8::9").value(),
                                          fib::parse_ipv6("2001:db8::1").value());
  path->source.send(path->source_face, h->serialize());
  net.run();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(FiveProtocolFixture, NdnInterestDataExchange) {
  const Name name = Name::parse("/hotnets/22/dip");
  const std::uint32_t code = ndn::encode_name32(name);

  path->destination.set_receiver(
      [&](netsim::FaceId face, netsim::PacketBytes, SimTime) {
        // Producer: answer the interest.
        auto reply = ndn::make_data_header32(code)->serialize();
        reply.insert(reply.end(), {'o', 'k'});
        path->destination.send(face, std::move(reply));
      });

  std::vector<std::uint8_t> got;
  path->source.set_receiver([&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
    const auto h = DipHeader::parse(packet);
    ASSERT_TRUE(h.has_value());
    const auto body = payload_of(*h, packet);
    got.assign(body.begin(), body.end());
  });

  path->source.send(path->source_face, ndn::make_interest_header(name)->serialize());
  net.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{'o', 'k'}));
}

TEST_F(FiveProtocolFixture, OptVerifiesAtDestination) {
  // For OPT the routers forward on the wired default (the paper's setup).
  for (std::size_t i = 0; i < kHops; ++i) {
    path->routers[i]->env().default_egress = path->downstream_face[i];
  }
  const auto session =
      opt::negotiate_session(crypto::Xoshiro256(1).block(), secrets,
                             crypto::Xoshiro256(2).block());

  const std::vector<std::uint8_t> body = {'s', 'e', 'c'};
  const auto h = opt::make_opt_header(session, body, 1234);
  path->source.send(path->source_face, with_payload(*h, body));
  net.run();

  ASSERT_EQ(delivered.size(), 1u);
  const auto back = DipHeader::parse(delivered[0]);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(opt::verify_packet(session, back->locations, payload_of(*back, delivered[0])),
            opt::VerifyResult::kOk);
}

TEST_F(FiveProtocolFixture, NdnOptSecureContentDelivery) {
  // The §2.3 walkthrough: request "hotnets.org"-style content, verify source
  // and path of the returned data.
  const Name name = Name::parse("/hotnets/org");
  const std::uint32_t code = ndn::encode_name32(name);
  const std::vector<std::uint8_t> content = {'p', 'd', 'f'};

  // Data flows destination -> source, so the *data* path order is reversed.
  std::vector<crypto::Block> data_path_secrets(secrets.rbegin(), secrets.rend());
  const auto session =
      opt::negotiate_session(crypto::Xoshiro256(3).block(), data_path_secrets,
                             crypto::Xoshiro256(4).block());

  path->destination.set_receiver(
      [&](netsim::FaceId face, netsim::PacketBytes packet, SimTime) {
        // Producer: NDN+OPT data packet with authentication tags.
        const auto reply =
            opt::make_ndn_opt_header(code, /*interest=*/false, session, content, 99);
        ASSERT_TRUE(reply.has_value());
        path->destination.send(face, with_payload(*reply, content));
      });

  std::optional<opt::VerifyResult> verdict;
  path->source.set_receiver([&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
    const auto h = DipHeader::parse(packet);
    ASSERT_TRUE(h.has_value());
    verdict = opt::verify_packet(session, h->locations, payload_of(*h, packet));
  });

  path->source.send(path->source_face, ndn::make_interest_header(name)->serialize());
  net.run();

  ASSERT_TRUE(verdict.has_value()) << "data must return to the requester";
  EXPECT_EQ(*verdict, opt::VerifyResult::kOk)
      << "source and path of the content verified (NDN+OPT)";
}

TEST_F(FiveProtocolFixture, XiaDelivery) {
  const auto ad = xia::xid_from_label("as-edge");
  const auto hid = xia::xid_from_label("server");
  const auto sid = xia::xid_from_label("webservice");

  for (std::size_t i = 0; i < kHops; ++i) {
    auto& table = *path->routers[i]->env().xid_table;
    if (i + 1 < kHops) {
      table.insert(fib::XidType::kAd, ad, path->downstream_face[i]);
    } else {
      table.set_local(fib::XidType::kAd, ad);
      table.insert(fib::XidType::kHid, hid, path->downstream_face[i]);
    }
  }

  const auto dag = xia::make_service_dag(ad, hid, fib::XidType::kSid, sid, false);
  path->source.send(path->source_face, xia::make_xia_header(dag)->serialize());
  net.run();
  EXPECT_EQ(delivered.size(), 1u);
}

// ---------- incremental deployment (§2.4) ----------

TEST(IncrementalDeployment, DipIslandsAcrossLegacyCore) {
  // DIP host A --(DIP)--> border L --(IPv6 legacy core)--> border R --(DIP)--> host B.
  // The legacy core is modeled by the Ipv6Forwarder; borders run tunnels.
  const auto left_addr = fib::parse_ipv6("2001:db8:aaaa::1").value();
  const auto right_addr = fib::parse_ipv6("2001:db8:bbbb::1").value();
  legacy::Ipv6Tunnel left(left_addr, right_addr);
  legacy::Ipv6Tunnel right(right_addr, left_addr);

  legacy::Ipv6Forwarder core_router;
  core_router.table().insert({fib::parse_ipv6("2001:db8:bbbb::").value(), 48}, 1);

  // The DIP packet to ship across.
  const auto h = core::make_dip32_header(fib::parse_ipv4("10.9.9.9").value(),
                                         fib::parse_ipv4("10.1.1.1").value());
  const std::vector<std::uint8_t> body = {'x'};
  const auto dip_packet = [&] {
    auto wire = h->serialize();
    wire.insert(wire.end(), body.begin(), body.end());
    return wire;
  }();

  // Left border encapsulates; the legacy core forwards on the outer header
  // without understanding DIP; the right border decapsulates.
  auto in_flight = left.encapsulate(dip_packet);
  const auto decision = core_router.forward(in_flight);
  ASSERT_EQ(decision.status, legacy::ForwardStatus::kForwarded);
  EXPECT_EQ(decision.next_hop, 1u);

  const auto out = right.decapsulate(in_flight);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, dip_packet) << "DIP packet survives the legacy crossing intact";
  EXPECT_TRUE(DipHeader::parse(*out).has_value());
}

// ---------- §2.4 poisoning defense: detect, then enable F_pass on the fly --

TEST(PoisoningDefense, DetectThenEnablePassOnTheFly) {
  auto env = netsim::make_basic_env(1);
  env.content_store.emplace(64);
  env.pass_key = crypto::Xoshiro256(5).block();
  env.enforce_pass = false;  // cheap mode initially
  core::Router router(std::move(env), registry().get());
  security::PoisoningDetector detector;

  const std::uint32_t code = 0x12345678;
  const std::vector<std::uint8_t> good = {'r', 'e', 'a', 'l'};
  const std::vector<std::uint8_t> bad1 = {'f', 'a', 'k', '1'};
  const std::vector<std::uint8_t> bad2 = {'f', 'a', 'k', '2'};

  auto attack_packet = [&](std::span<const std::uint8_t> content) {
    // §2.4: attacker combines F_FIB and F_PIT in one packet, carrying a
    // label FN too (forged, since it lacks the AS key).
    core::HeaderBuilder b;
    const auto code_bytes = fib::ipv4_from_u32(code).bytes;
    crypto::Block bogus_label{};
    b.add_router_fn(OpKey::kPass, bogus_label);
    b.add_router_fn(OpKey::kFib, code_bytes);
    b.add_router_fn(OpKey::kPit, code_bytes);
    auto wire = b.build()->serialize();
    wire.insert(wire.end(), content.begin(), content.end());
    return wire;
  };

  // Phase 1: enforcement off. The attacker primes a PIT entry then answers
  // it with divergent content, polluting the cache.
  auto env_route = [&] { router.env().fib32->insert({fib::ipv4_from_u32(code), 32}, 9); };
  env_route();
  bool alarmed = false;
  for (const auto* content : {&good, &bad1, &bad2}) {
    auto p = attack_packet(*content);
    (void)router.process(p, 3, 0);
    const auto h = DipHeader::parse(p);
    if (detector.observe(code, std::span<const std::uint8_t>(p).subspan(h->wire_size()))) {
      alarmed = true;
    }
  }
  EXPECT_TRUE(alarmed) << "divergent content for one name must trip the detector";
  EXPECT_TRUE(router.env().content_store->contains(code)) << "cache already polluted";

  // Phase 2: operator reaction — purge and enforce F_pass.
  router.env().content_store->erase(code);
  router.env().enforce_pass = true;

  auto p_attack = attack_packet(bad1);
  const auto blocked = router.process(p_attack, 3, 10);
  EXPECT_EQ(blocked.action, core::Action::kDrop);
  EXPECT_EQ(blocked.reason, core::DropReason::kPolicyDenied);
  EXPECT_FALSE(router.env().content_store->contains(code)) << "cache stays clean";

  // Legitimate producer with a valid AS label still passes.
  core::HeaderBuilder b;
  const auto label = security::issue_label(router.env().pass_key, good);
  b.add_router_fn(OpKey::kPass, label);
  b.add_router_fn(OpKey::kFib, fib::ipv4_from_u32(code).bytes);
  auto p_good = b.build()->serialize();
  p_good.insert(p_good.end(), good.begin(), good.end());
  EXPECT_EQ(router.process(p_good, 4, 11).action, core::Action::kForward);
}

// ---------- bootstrap-gated composition ----------

TEST(BootstrapIntegration, HostRefusesOptWhenAsLacksIt) {
  bootstrap::CapabilitySet as_caps = bootstrap::full_capability_set();
  as_caps.remove(OpKey::kMac);
  bootstrap::BootstrapServer as_server(as_caps);

  bootstrap::BootstrapClient host;
  host.learn(as_server.respond(bootstrap::DiscoverRequest{}));

  // NDN composes fine; OPT is refused before any packet is built.
  const auto interest = ndn::make_interest_header(Name::parse("/a"));
  EXPECT_FALSE(host.first_missing(interest->fns));
  EXPECT_EQ(host.first_missing(opt::opt_fn_triples()).value(), OpKey::kMac);
}

}  // namespace
}  // namespace dip
