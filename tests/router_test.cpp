// Algorithm-1 engine tests: dispatch, tag skipping, unsupported-FN policy,
// resource limits, and loop/unrolled equivalence.
#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/telemetry/telemetry.hpp"

namespace dip::core {
namespace {

std::shared_ptr<OpRegistry> registry() {
  static std::shared_ptr<OpRegistry> r = netsim::make_default_registry();
  return r;
}

RouterEnv env_with_route() {
  RouterEnv env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32}, 9);
  return env;
}

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst = 0x0A000001,
                                       std::uint8_t hops = 64) {
  const auto h = make_dip32_header(fib::ipv4_from_u32(dst), fib::ipv4_from_u32(0x0B000001),
                                   NextHeader::kNone, hops);
  return h->serialize();
}

TEST(Router, ForwardsViaMatch32) {
  Router router(env_with_route(), registry().get());
  auto packet = dip32_packet();
  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, std::vector<FaceId>{7});
  EXPECT_EQ(router.env().counters.forwarded, 1u);
}

TEST(Router, ForwardsViaMatch128) {
  Router router(env_with_route(), registry().get());
  const auto h = make_dip128_header(fib::parse_ipv6("2001:db8::42").value(),
                                    fib::parse_ipv6("2001:db8::1").value());
  auto packet = h->serialize();
  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, std::vector<FaceId>{9});
}

TEST(Router, DropsOnNoRoute) {
  Router router(env_with_route(), registry().get());
  auto packet = dip32_packet(0x0B000001);  // outside 10/8
  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kDrop);
  EXPECT_EQ(result.reason, DropReason::kNoRoute);
}

TEST(Router, HopLimitDecrementsAcrossHopsAndExpires) {
  Router router(env_with_route(), registry().get());
  auto packet = dip32_packet(0x0A000001, 3);

  EXPECT_EQ(router.process(packet, 0, 0).action, Action::kForward);  // 3 -> 2
  EXPECT_EQ(router.process(packet, 0, 0).action, Action::kForward);  // 2 -> 1
  const auto result = router.process(packet, 0, 0);                  // 1 -> 0
  EXPECT_EQ(result.action, Action::kDrop);
  EXPECT_EQ(result.reason, DropReason::kHopLimitExceeded);
}

TEST(Router, MalformedPacketDropped) {
  Router router(env_with_route(), registry().get());
  std::vector<std::uint8_t> garbage = {1, 2, 3};
  const auto result = router.process(garbage, 0, 0);
  EXPECT_EQ(result.action, Action::kDrop);
  EXPECT_EQ(result.reason, DropReason::kMalformed);
}

TEST(Router, HostTaggedFnsSkipped) {
  // A packet whose only FN is host-tagged: the router must not execute it;
  // with a default egress configured it forwards blindly.
  RouterEnv env = env_with_route();
  env.default_egress = 4;
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  std::array<std::uint8_t, 4> field{};
  b.add_location(field);
  b.add_fn(FnTriple::host(0, 32, OpKey::kVer));
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, std::vector<FaceId>{4});
  EXPECT_EQ(router.env().counters.fn_skipped_host, 1u);
  EXPECT_EQ(router.env().counters.fn_executed, 0u);
}

TEST(Router, NoMatchFnNoDefaultEgressDrops) {
  Router router(env_with_route(), registry().get());
  HeaderBuilder b;
  std::array<std::uint8_t, 4> field{};
  b.add_router_fn(OpKey::kSource, field);  // source decides nothing
  auto packet = b.build()->serialize();
  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.reason, DropReason::kNoRoute);
}

// ---------- §2.4 heterogeneous configuration ----------

TEST(Router, DisabledOptionalFnIsSkipped) {
  RouterEnv env = env_with_route();
  env.disabled_keys.insert(OpKey::kTelemetry);  // optional FN
  env.default_egress = 2;
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  std::array<std::uint8_t, 10> field{};
  b.add_router_fn(OpKey::kTelemetry, field);
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward) << "optional FN: simply ignored";
  EXPECT_EQ(router.env().counters.fn_skipped_optional, 1u);
}

TEST(Router, DisabledPathCriticalFnRaisesError) {
  RouterEnv env = env_with_route();
  env.disabled_keys.insert(OpKey::kMac);
  env.default_egress = 2;
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  std::array<std::uint8_t, 68> block{};
  b.add_location(block);
  b.add_fn(FnTriple::router(128, 128, OpKey::kParm));
  b.add_fn(FnTriple::router(0, 416, OpKey::kMac));
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kError);
  EXPECT_EQ(result.reason, DropReason::kUnsupportedFn);
  EXPECT_EQ(result.offending_key, OpKey::kMac);
}

TEST(Router, UnregisteredOptionalKeySkipped) {
  // A key nobody implements and that is not path-critical: ignore.
  RouterEnv env = env_with_route();
  env.default_egress = 2;
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  std::array<std::uint8_t, 4> field{};
  const std::uint16_t loc = b.add_location(field);
  b.add_fn(FnTriple{loc, 32, 500});  // unknown key 500, no fn_info
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward);
}

// ---------- §2.4 resource limits ----------

TEST(Router, BudgetExhaustionDrops) {
  RouterEnv env = env_with_route();
  env.limits.per_packet_budget = 3;  // Match32 costs 2, Source costs 1 -> 2nd match fails
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  const auto dst = fib::ipv4_from_u32(0x0A000001);
  b.add_router_fn(OpKey::kMatch32, dst.bytes);
  b.add_router_fn(OpKey::kMatch32, dst.bytes);
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kDrop);
  EXPECT_EQ(result.reason, DropReason::kBudgetExhausted);
}

TEST(Router, BudgetSufficientForNormalCompositions) {
  Router router(env_with_route(), registry().get());  // default budget 64
  auto packet = dip32_packet();
  EXPECT_EQ(router.process(packet, 0, 0).action, Action::kForward);
}

TEST(Router, MaxFnPerPacketEnforced) {
  RouterEnv env = env_with_route();
  env.limits.max_fn_per_packet = 2;
  env.default_egress = 1;
  Router router(std::move(env), registry().get());

  HeaderBuilder b;
  std::array<std::uint8_t, 4> field{};
  const std::uint16_t loc = b.add_location(field);
  for (int i = 0; i < 3; ++i) b.add_fn(FnTriple::router(loc, 32, OpKey::kSource));
  auto packet = b.build()->serialize();

  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.reason, DropReason::kBudgetExhausted);
}

TEST(Router, PerFnExecutionCountersTrack) {
  Router router(env_with_route(), registry().get());
  auto p1 = dip32_packet();
  auto p2 = dip32_packet();
  (void)router.process(p1, 0, 0);
  (void)router.process(p2, 0, 0);

  const RouterEnv& env = router.env();
  EXPECT_EQ(env.executions_of(OpKey::kMatch32), 2u);
  EXPECT_EQ(env.executions_of(OpKey::kSource), 2u);
  EXPECT_EQ(env.executions_of(OpKey::kMac), 0u);
  EXPECT_EQ(env.counters.fn_executed, 4u);
}

// ---------- §5 runtime FN upgrade ----------

TEST(RuntimeUpgrade, AddingAnFnActivatesItForLiveTraffic) {
  // Start with a registry lacking F_int: telemetry FNs are ignored
  // (optional-FN rule). Deploy the module at runtime; the very next packet
  // gets its record appended. "Support new services by only upgrading FNs."
  auto registry = std::make_shared<OpRegistry>();
  registry->add(std::make_unique<Match32Op>());
  registry->add(std::make_unique<SourceOp>());
  const std::uint64_t epoch_before = registry->epoch();

  RouterEnv env = env_with_route();
  env.node_id = 77;
  Router router(std::move(env), registry.get());

  auto make_packet = [] {
    HeaderBuilder b;
    b.add_router_fn(OpKey::kMatch32, fib::ipv4_from_u32(0x0A000001).bytes);
    std::array<std::uint8_t, 10> tfield{};
    b.add_router_fn(OpKey::kTelemetry, tfield);
    return b.build()->serialize();
  };

  auto before = make_packet();
  EXPECT_EQ(router.process(before, 0, 0).action, Action::kForward);
  {
    const auto h = DipHeader::parse(before);
    EXPECT_EQ(h->locations[4], 0) << "record count still zero: FN was skipped";
  }

  // Live upgrade.
  registry->add(std::make_unique<dip::telemetry::TelemetryOp>());
  EXPECT_GT(registry->epoch(), epoch_before);

  auto after = make_packet();
  EXPECT_EQ(router.process(after, 0, 123).action, Action::kForward);
  {
    const auto h = DipHeader::parse(after);
    EXPECT_EQ(h->locations[4], 1) << "one record appended after the upgrade";
  }

  // Rollback: remove the module; traffic keeps flowing, FN skipped again.
  auto removed = registry->remove(OpKey::kTelemetry);
  EXPECT_NE(removed, nullptr);
  EXPECT_EQ(registry->remove(OpKey::kTelemetry), nullptr);
  auto rolled_back = make_packet();
  EXPECT_EQ(router.process(rolled_back, 0, 0).action, Action::kForward);
  const auto h = DipHeader::parse(rolled_back);
  EXPECT_EQ(h->locations[4], 0);
}

}  // namespace
}  // namespace dip::core
