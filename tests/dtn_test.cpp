// DTN subsystem tests (docs/DTN.md): custody transfer expressed through the
// FN abstraction.
//
//   * wire plumbing — CustodyTag/FragInfo round-trips, MAC verification,
//     dip32+custody composition and field discovery;
//   * op modules — CustodyOp accept/carry/auth-fail through a core::Router,
//     BundleFragOp geometry bounds;
//   * CustodyStore — caps, refusal of live custody, eviction of exhausted
//     entries (deterministic oldest-first), duplicate commits and ACKs;
//   * RetxScheduler — DPS-priced pacing (src/qos earning its keep on the
//     recovery band);
//   * netsim — a seeded multi-second blackout between two custody routers:
//     100% of committed bundles recover; store-full refusals under chaos
//     never lose committed custody; a custody router answers content-store
//     hits exactly as a plain DipRouterNode does;
//   * host reassembly — reordered, duplicated, corrupted, and
//     geometry-conflicting fragments, strict vs lenient;
//   * mesh — a 3x3 torus soak through a blackout window with the
//     conservation ledger balanced at quiescence, a destination host that
//     poisons conflicting geometry as the netsim receiver does, host sends
//     that reach their router one loop round later and are ACKed out the
//     local face, and a store-pressure line where refusals never leave an
//     ACK pointing at a router without a copy.
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/crypto/random.hpp"
#include "dip/dtn/bundle.hpp"
#include "dip/dtn/custody.hpp"
#include "dip/dtn/mesh_dtn.hpp"
#include "dip/dtn/node.hpp"
#include "dip/dtn/retx_sched.hpp"
#include "dip/dtn/store.hpp"
#include "dip/host/retry.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/network.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/telemetry/exposition.hpp"
#include "dip/telemetry/stats.hpp"

namespace dip {
namespace {

crypto::Block test_key() { return crypto::Xoshiro256(0xD7A).block(); }

std::shared_ptr<core::OpRegistry> custody_registry() {
  auto registry = netsim::make_default_registry();
  dtn::add_custody_modules(*registry);
  return registry;
}

core::RouterEnv custody_env(std::uint32_t node, const crypto::Block& key,
                            bool accept = true) {
  auto env = netsim::make_basic_env(node);
  env.custody_key = key;
  env.accept_custody = accept;
  return env;
}

/// A requested custody tag as the initial custodian `node` would mint it.
dtn::CustodyTag fresh_tag(std::uint32_t bundle, std::uint32_t node) {
  dtn::CustodyTag tag;
  tag.flags = dtn::kCustodyRequest;
  tag.chain_len = 0;
  tag.bundle_id = bundle;
  tag.custodian = node;
  tag.chain_digest = dtn::chain_mix(0, node);
  return tag;
}

/// One dip32+custody fragment packet (header + payload bytes).
std::vector<std::uint8_t> frag_packet(const fib::Ipv4Addr& dst, std::uint32_t bundle,
                                      std::uint16_t index, std::uint16_t total,
                                      std::span<const std::uint8_t> payload,
                                      const crypto::Block& key,
                                      std::uint32_t custodian) {
  dtn::FragInfo frag;
  frag.index = index;
  frag.total = total;
  frag.bundle_id = bundle;
  const auto header = dtn::make_dip32_custody_header(
      dst, mesh::addr_of(custodian), fresh_tag(bundle, custodian), frag, key);
  EXPECT_TRUE(header.has_value());
  std::vector<std::uint8_t> wire = header->serialize();
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

/// Byte offset of the custody tag field within a serialized packet.
std::size_t tag_offset(std::span<const std::uint8_t> packet) {
  const auto header = core::DipHeader::parse(packet);
  EXPECT_TRUE(header.has_value());
  const auto cf = dtn::find_custody_field(header->fns);
  EXPECT_TRUE(cf.has_value());
  return core::BasicHeader::kWireSize + header->fns.size() * core::FnTriple::kWireSize +
         cf->bit_offset / 8;
}

/// Re-read the (possibly rewritten) custody tag out of a packet.
dtn::CustodyTag read_tag(std::span<const std::uint8_t> packet) {
  return dtn::CustodyTag::read(packet.subspan(tag_offset(packet),
                                              dtn::kCustodyTagBytes));
}

// ---- wire plumbing --------------------------------------------------------

TEST(DtnWire, CustodyTagRoundTripsAndMacVerifies) {
  dtn::CustodyTag tag = fresh_tag(0xCAFE1234, 42);
  tag.chain_len = 3;
  tag.prev_custodian = 41;

  std::vector<std::uint8_t> field(dtn::kCustodyTagBytes);
  tag.write(field);
  tag.mac = dtn::CustodyTag::compute_mac(field, test_key(), crypto::MacKind::kEm2);
  tag.write(field);

  const dtn::CustodyTag back = dtn::CustodyTag::read(field);
  EXPECT_EQ(back.flags, tag.flags);
  EXPECT_EQ(back.chain_len, 3);
  EXPECT_EQ(back.prev_custodian, 41);
  EXPECT_EQ(back.bundle_id, 0xCAFE1234u);
  EXPECT_EQ(back.custodian, 42u);
  EXPECT_EQ(back.chain_digest, dtn::chain_mix(0, 42));
  EXPECT_TRUE(back.requested());
  EXPECT_FALSE(back.is_ack());

  ASSERT_TRUE(dtn::verify_custody_tag(field, test_key()).has_value());
  // Any flip — tag bytes or MAC bytes — must fail verification.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}, std::size_t{20}}) {
    auto forged = field;
    forged[at] ^= 0x01;
    EXPECT_FALSE(dtn::verify_custody_tag(forged, test_key()).has_value()) << at;
  }
  // And so must the wrong key.
  EXPECT_FALSE(
      dtn::verify_custody_tag(field, crypto::Xoshiro256(0xBAD).block()).has_value());
}

TEST(DtnWire, FragInfoRoundTripsAndKeysAreUnique) {
  dtn::FragInfo frag;
  frag.index = 7;
  frag.total = 12;
  frag.bundle_id = 0xAABBCCDD;
  std::vector<std::uint8_t> field(dtn::kFragBytes);
  frag.write(field);
  const dtn::FragInfo back = dtn::FragInfo::read(field);
  EXPECT_EQ(back.index, 7);
  EXPECT_EQ(back.total, 12);
  EXPECT_EQ(back.bundle_id, 0xAABBCCDDu);

  EXPECT_NE(dtn::frag_key(1, 0), dtn::frag_key(0, 1));
  EXPECT_NE(dtn::frag_key(5, 2), dtn::frag_key(5, 3));
  EXPECT_EQ(dtn::frag_key(5, 2), (std::uint64_t{5} << 32) | 2);
}

TEST(DtnWire, Dip32CustodyCompositionCarriesBothFields) {
  const auto dst = mesh::addr_of(100);
  dtn::FragInfo frag;
  frag.index = 2;
  frag.total = 5;
  frag.bundle_id = 9;
  const auto header = dtn::make_dip32_custody_header(
      dst, mesh::addr_of(42), fresh_tag(9, 42), frag, test_key());
  ASSERT_TRUE(header.has_value());

  ASSERT_TRUE(dtn::find_custody_field(header->fns).has_value());
  ASSERT_TRUE(dtn::find_frag_field(header->fns).has_value());
  const auto parsed_dst = dtn::dip32_destination(*header);
  ASSERT_TRUE(parsed_dst.has_value());
  EXPECT_TRUE(*parsed_dst == dst);

  // Round-trip through the wire.
  const auto wire = header->serialize();
  const auto back = core::DipHeader::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fns, header->fns);
  const dtn::CustodyTag tag = read_tag(wire);
  EXPECT_EQ(tag.bundle_id, 9u);
  EXPECT_EQ(tag.custodian, 42u);
}

// ---- op modules through a core::Router ------------------------------------

struct CustodyRig {
  explicit CustodyRig(std::uint32_t node, bool accept = true) {
    registry = custody_registry();
    auto env = custody_env(node, test_key(), accept);
    env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);  // 10/8 -> face 1
    router.emplace(std::move(env), registry.get());
  }
  std::shared_ptr<core::OpRegistry> registry;
  std::optional<core::Router> router;
};

TEST(DtnOps, CustodyOpAcceptsRewritesChainAndReMacs) {
  CustodyRig rig(/*node=*/7);
  std::vector<std::uint8_t> payload{'d', 't', 'n'};
  auto packet =
      frag_packet(mesh::addr_of(100), /*bundle=*/5, 0, 1, payload, test_key(), 42);

  const auto result = rig.router->process(packet, 0, 0);
  EXPECT_EQ(result.action, core::Action::kForward);
  ASSERT_FALSE(result.egress.empty());
  EXPECT_EQ(result.egress[0], 1u);

  // The tag was rewritten in place: this node took custody.
  const std::size_t at = tag_offset(packet);
  const auto field = std::span<const std::uint8_t>(packet).subspan(
      at, dtn::kCustodyTagBytes);
  const auto tag = dtn::verify_custody_tag(field, test_key());
  ASSERT_TRUE(tag.has_value()) << "accepted tag must be re-MACed";
  EXPECT_EQ(tag->custodian, 7u);
  EXPECT_EQ(tag->prev_custodian, 42u);
  EXPECT_EQ(tag->chain_len, 1);
  EXPECT_EQ(tag->chain_digest, dtn::chain_mix(dtn::chain_mix(0, 42), 7));
  EXPECT_TRUE(tag->requested());

  // A second custody-capable hop extends the same chain.
  CustodyRig next(/*node=*/8);
  const auto r2 = next.router->process(packet, 0, 0);
  EXPECT_EQ(r2.action, core::Action::kForward);
  const auto tag2 = dtn::verify_custody_tag(
      std::span<const std::uint8_t>(packet).subspan(at, dtn::kCustodyTagBytes),
      test_key());
  ASSERT_TRUE(tag2.has_value());
  EXPECT_EQ(tag2->custodian, 8u);
  EXPECT_EQ(tag2->prev_custodian, 7u);
  EXPECT_EQ(tag2->chain_len, 2);
  EXPECT_EQ(tag2->chain_digest,
            dtn::chain_mix(dtn::chain_mix(dtn::chain_mix(0, 42), 7), 8));
}

TEST(DtnOps, CustodyOpCarriesUntouchedOnNonAcceptingNode) {
  CustodyRig rig(/*node=*/7, /*accept=*/false);
  auto packet = frag_packet(mesh::addr_of(100), 5, 0, 1, {}, test_key(), 42);
  const std::size_t at = tag_offset(packet);
  const std::vector<std::uint8_t> before(packet.begin() + static_cast<std::ptrdiff_t>(at),
                                         packet.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 at + dtn::kCustodyTagBytes));

  const auto result = rig.router->process(packet, 0, 0);
  EXPECT_EQ(result.action, core::Action::kForward);
  const std::vector<std::uint8_t> after(packet.begin() + static_cast<std::ptrdiff_t>(at),
                                        packet.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                at + dtn::kCustodyTagBytes));
  EXPECT_EQ(before, after) << "non-accepting nodes forward the tag untouched";
}

TEST(DtnOps, CustodyOpCarriesAcksWithoutRewriting) {
  CustodyRig rig(/*node=*/7);
  dtn::FragInfo frag;
  frag.bundle_id = 5;
  const auto ack = dtn::make_custody_ack_header(
      mesh::addr_of(42), mesh::addr_of(8), fresh_tag(5, 8), frag, test_key());
  ASSERT_TRUE(ack.has_value());
  auto packet = ack->serialize();
  const std::size_t at = tag_offset(packet);
  const dtn::CustodyTag before = read_tag(packet);
  EXPECT_TRUE(before.is_ack());

  const auto result = rig.router->process(packet, 0, 0);
  EXPECT_EQ(result.action, core::Action::kForward);
  const dtn::CustodyTag after = dtn::CustodyTag::read(
      std::span<const std::uint8_t>(packet).subspan(at, dtn::kCustodyTagBytes));
  EXPECT_EQ(after.custodian, before.custodian) << "ACK tags are never accepted";
  EXPECT_EQ(after.chain_len, before.chain_len);
}

TEST(DtnOps, CustodyOpDropsForgedMacAsAuthFailed) {
  CustodyRig rig(/*node=*/7);
  auto packet = frag_packet(mesh::addr_of(100), 5, 0, 1, {}, test_key(), 42);
  packet[tag_offset(packet) + 16] ^= 0x40;  // first MAC byte

  const auto result = rig.router->process(packet, 0, 0);
  EXPECT_EQ(result.action, core::Action::kDrop);
  EXPECT_EQ(result.reason, core::DropReason::kAuthFailed);
}

TEST(DtnOps, CustodyOpRejectsShortFieldAsMalformed) {
  CustodyRig rig(/*node=*/7);
  core::HeaderBuilder b;
  b.add_router_fn(core::OpKey::kMatch32, mesh::addr_of(100).bytes);
  const auto short_field = crypto::Xoshiro256(1).block();  // 16 < 32 bytes
  b.add_router_fn(core::OpKey::kCustody, short_field);
  const auto header = b.build();
  ASSERT_TRUE(header.has_value());
  auto packet = header->serialize();

  const auto result = rig.router->process(packet, 0, 0);
  EXPECT_EQ(result.action, core::Action::kDrop);
  EXPECT_EQ(result.reason, core::DropReason::kMalformed);
}

TEST(DtnOps, BundleFragOpBoundsChecksGeometry) {
  // Good geometry forwards.
  {
    CustodyRig rig(7);
    auto packet = frag_packet(mesh::addr_of(100), 5, 3, 8, {}, test_key(), 42);
    EXPECT_EQ(rig.router->process(packet, 0, 0).action, core::Action::kForward);
  }
  // total == 0 and index >= total are malformed.
  for (const auto [index, total] :
       {std::pair<std::uint16_t, std::uint16_t>{0, 0},
        std::pair<std::uint16_t, std::uint16_t>{8, 8},
        std::pair<std::uint16_t, std::uint16_t>{9, 4}}) {
    CustodyRig rig(7);
    auto packet =
        frag_packet(mesh::addr_of(100), 5, index, total, {}, test_key(), 42);
    const auto result = rig.router->process(packet, 0, 0);
    EXPECT_EQ(result.action, core::Action::kDrop) << index << "/" << total;
    EXPECT_EQ(result.reason, core::DropReason::kMalformed) << index << "/" << total;
  }
}

// ---- CustodyStore ---------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(DtnStore, CommitReleaseAndDuplicateAccounting) {
  dtn::CustodyStore store;
  bool duplicate = true;
  auto* entry = store.commit(dtn::frag_key(1, 0), bytes_of(100, 0xA1), 3, 10, &duplicate);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(duplicate);
  EXPECT_EQ(entry->egress, 3u);
  EXPECT_EQ(store.bundles(), 1u);
  EXPECT_EQ(store.bytes(), 100u);

  // Re-offered fragment: counted, same entry returned.
  auto* again = store.commit(dtn::frag_key(1, 0), bytes_of(100, 0xA1), 3, 20, &duplicate);
  EXPECT_EQ(again, entry);
  EXPECT_TRUE(duplicate);
  EXPECT_EQ(store.stats().duplicate_commits, 1u);
  EXPECT_EQ(store.stats().commits, 1u);

  EXPECT_TRUE(store.release(dtn::frag_key(1, 0)));
  EXPECT_EQ(store.bundles(), 0u);
  EXPECT_EQ(store.bytes(), 0u);
  // The duplicate ACK (chaos links duplicate packets) finds the entry gone.
  EXPECT_FALSE(store.release(dtn::frag_key(1, 0)));
  EXPECT_EQ(store.stats().duplicate_acks, 1u);
  EXPECT_EQ(store.stats().released, 1u);
  EXPECT_EQ(store.stats().bytes_high_water, 100u);
  EXPECT_EQ(store.stats().bundles_high_water, 1u);
}

TEST(DtnStore, RefusesAdmissionWhenFullOfLiveCustody) {
  dtn::CustodyStore::Limits limits;
  limits.max_bundles = 2;
  dtn::CustodyStore store(limits);
  ASSERT_NE(store.commit(1, bytes_of(10, 1), 0, 0), nullptr);
  ASSERT_NE(store.commit(2, bytes_of(10, 2), 0, 1), nullptr);

  // Both entries still have retry budget: live custody is never evicted.
  EXPECT_EQ(store.commit(3, bytes_of(10, 3), 0, 2), nullptr);
  EXPECT_EQ(store.stats().refused_full, 1u);
  EXPECT_EQ(store.bundles(), 2u);

  // The byte cap refuses too, independently of the bundle cap.
  dtn::CustodyStore::Limits tight;
  tight.max_bytes = 64;
  dtn::CustodyStore small(tight);
  ASSERT_NE(small.commit(1, bytes_of(60, 1), 0, 0), nullptr);
  EXPECT_EQ(small.commit(2, bytes_of(10, 2), 0, 1), nullptr);
  EXPECT_EQ(small.stats().refused_full, 1u);
}

TEST(DtnStore, EvictsExhaustedEntriesOldestFirstUnderPressure) {
  dtn::CustodyStore::Limits limits;
  limits.max_bundles = 3;
  limits.max_retries = 1;
  dtn::CustodyStore store(limits);
  ASSERT_NE(store.commit(1, bytes_of(10, 1), 0, /*now=*/100), nullptr);
  ASSERT_NE(store.commit(2, bytes_of(10, 2), 0, /*now=*/50), nullptr);
  ASSERT_NE(store.commit(3, bytes_of(10, 3), 0, /*now=*/200), nullptr);

  // Exhaust 1 and 2 (one retransmission each spends the budget); 3 stays live.
  EXPECT_TRUE(store.charge_retransmission(1));
  EXPECT_FALSE(store.charge_retransmission(1));
  EXPECT_TRUE(store.charge_retransmission(2));

  // Pressure evicts the *oldest-committed* exhausted entry first: key 2
  // (committed_at 50) before key 1 (committed_at 100).
  ASSERT_NE(store.commit(4, bytes_of(10, 4), 0, 300), nullptr);
  EXPECT_EQ(store.stats().evicted, 1u);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_NE(store.find(1), nullptr);

  ASSERT_NE(store.commit(5, bytes_of(10, 5), 0, 400), nullptr);
  EXPECT_EQ(store.stats().evicted, 2u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_NE(store.find(3), nullptr) << "live custody survives every eviction sweep";

  // Only live custody left (3, 4, 5 all hold retry budget): the next commit
  // is refused — live custody is never evicted into.
  EXPECT_EQ(store.commit(6, bytes_of(10, 6), 0, 500), nullptr);
  EXPECT_EQ(store.stats().refused_full, 1u);
  EXPECT_EQ(store.bundles(), 3u);
}

TEST(DtnStore, AbandonCountsAsEviction) {
  dtn::CustodyStore store;
  ASSERT_NE(store.commit(9, bytes_of(10, 9), 0, 0), nullptr);
  EXPECT_TRUE(store.abandon(9));
  EXPECT_FALSE(store.abandon(9));
  EXPECT_EQ(store.stats().evicted, 1u);
  EXPECT_EQ(store.bundles(), 0u);
  EXPECT_EQ(store.bytes(), 0u);
}

TEST(DtnStore, StatsExposeDtnSeries) {
  dtn::CustodyStore store;
  ASSERT_NE(store.commit(1, bytes_of(10, 1), 0, 0), nullptr);
  telemetry::StatsWriter w;
  store.write_stats(w, /*node=*/5);
  const std::string& text = w.text();
  EXPECT_NE(text.find("dip_dtn_store_bundles"), std::string::npos);
  EXPECT_NE(text.find("dip_dtn_commits_total"), std::string::npos);
  EXPECT_NE(text.find("dip_dtn_store_bytes_high_water"), std::string::npos);
  EXPECT_NE(text.find("node=\"5\""), std::string::npos);
}

// ---- RetxScheduler (the qos/DPS pacing seam) ------------------------------

TEST(DtnRetx, IdleLinkFallsBackToMaxGapAndTrafficShrinksIt) {
  dtn::RetxScheduler sched;

  // No observed first-transmission traffic: pace at the floor interval so
  // recovery still progresses.
  EXPECT_EQ(sched.gap_for(1500), dtn::RetxScheduler::kMaxGap);
  EXPECT_EQ(sched.primary_rate(), 0u);

  // Sustained foreground traffic: the recovery band gets kShare of it and
  // the gap lands inside the clamp.
  SimTime now = 0;
  for (int i = 0; i < 256; ++i) {
    sched.on_primary(10'000, now);
    now += kMillisecond;
  }
  EXPECT_GT(sched.primary_rate(), 0u);
  const SimDuration gap = sched.gap_for(1500);
  EXPECT_GE(gap, dtn::RetxScheduler::kMinGap);
  EXPECT_LE(gap, dtn::RetxScheduler::kMaxGap);
  // Smaller retransmissions never wait longer than bigger ones.
  EXPECT_LE(sched.gap_for(64), gap);
}

// ---- netsim: blackout recovery --------------------------------------------

/// host A -- R1 ==(faulty link)== R2 -- host B. Returns everything the
/// assertions need.
struct BlackoutRig {
  explicit BlackoutRig(netsim::LinkParams middle,
                       dtn::CustodyRouterNode::Config r1_config = {},
                       host::RetryPolicy sender_retry = {})
      : registry(custody_registry()),
        r1(make_env(1), registry, r1_config),
        r2(make_env(2), registry, {}) {
    net.add_node(a);
    net.add_node(r1);
    net.add_node(r2);
    net.add_node(b);
    const auto [fa_, f1a] = net.connect(a, r1);
    const auto [f12, f21] = net.connect(r1, r2, middle);
    const auto [f2b, fb_] = net.connect(r2, b);
    fa = fa_;
    fb = fb_;
    // Route the receiver prefix forward; custody ACKs travel back out the
    // ingress face (the §2.4 reverse-path seam) and need no FIB entries.
    r1.env().fib32->insert(mesh::prefix_of(100), f12);
    r2.env().fib32->insert(mesh::prefix_of(100), f2b);

    dtn::BundleSender::Config sc;
    sc.self = mesh::addr_of(99);
    sc.node_id = 99;
    sc.custody_key = test_key();
    sc.frag_payload = 48;
    sc.retry = sender_retry;
    port_a.emplace(a, fa);
    sender.emplace(*port_a, sc);
    a.set_receiver([this](netsim::FaceId, netsim::PacketBytes p, SimTime) {
      sender->on_packet(p);
    });

    dtn::BundleReceiver::Config bc;
    bc.self = mesh::addr_of(100);
    bc.custody_key = test_key();
    port_b.emplace(b, fb);
    receiver.emplace(*port_b, bc, [this](std::uint32_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
    b.set_receiver([this](netsim::FaceId, netsim::PacketBytes p, SimTime) {
      receiver->on_packet(p);
    });
  }

  static core::RouterEnv make_env(std::uint32_t node) {
    return custody_env(node, test_key());
  }

  netsim::Network net{42};
  netsim::HostNode a, b;
  std::shared_ptr<core::OpRegistry> registry;
  dtn::CustodyRouterNode r1, r2;
  netsim::FaceId fa = 0, fb = 0;
  std::optional<host::NetsimPort> port_a, port_b;
  std::optional<dtn::BundleSender> sender;
  std::optional<dtn::BundleReceiver> receiver;
  std::map<std::uint32_t, std::vector<std::uint8_t>> delivered;
};

TEST(DtnNetsim, CommittedBundlesRecoverThroughMultiSecondBlackout) {
  // The R1--R2 link is dark for the first 2.5 simulated seconds (one
  // blackout window; the period puts the next window far beyond the test).
  netsim::LinkParams middle;
  middle.faults.blackout_period = 600 * kSecond;
  middle.faults.blackout_duration = 2500 * kMillisecond;
  BlackoutRig rig(middle);

  std::vector<std::uint8_t> payload(200);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::uint32_t bundle =
      rig.sender->send(mesh::addr_of(100), payload);  // t=0: link is dark
  rig.net.run();

  // 100% recovery: the bundle assembled byte-identically after the outage.
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[bundle], payload);
  EXPECT_EQ(rig.receiver->bundles_completed(), 1u);

  // The sender handed custody to R1 (clean first hop) for every fragment...
  EXPECT_EQ(rig.sender->failures(), 0u);
  EXPECT_EQ(rig.sender->in_flight(), 0u);
  EXPECT_EQ(rig.sender->committed(), 5u);  // ceil(200 / 48)

  // ...and R1 carried it across the blackout by retransmitting from its
  // store until R2 ACKed; both stores fully drained.
  EXPECT_GT(rig.r1.store().stats().retransmissions, 0u);
  EXPECT_GT(rig.net.stats().blackholed, 0u);
  EXPECT_EQ(rig.r1.store().bundles(), 0u);
  EXPECT_EQ(rig.r2.store().bundles(), 0u);
  EXPECT_EQ(rig.r1.store().stats().commits, 5u);
  EXPECT_GT(rig.r1.store().stats().bytes_high_water, 0u);
  EXPECT_EQ(rig.r1.store().stats().evicted, 0u) << "committed custody is never lost";
  EXPECT_EQ(rig.r2.store().stats().evicted, 0u);
}

TEST(DtnNetsim, StoreFullRefusalsUnderChaosNeverLoseCommittedBundles) {
  // A chaotic middle link (drops + duplicates) plus a tiny R1 store: most
  // fragments are refused admission on first contact and only commit once
  // earlier custody drains. Refused fragments were never ACKed, so the
  // sender keeps retrying — the recovery contract survives store pressure.
  netsim::LinkParams middle;
  middle.faults.drop_rate = 0.2;
  middle.faults.duplicate_rate = 0.15;
  dtn::CustodyRouterNode::Config r1_config;
  r1_config.limits.max_bundles = 2;
  r1_config.limits.max_bytes = 4096;
  host::RetryPolicy sender_retry;
  sender_retry.max_retries = 10;
  sender_retry.initial_timeout = 50 * kMillisecond;
  BlackoutRig rig(middle, r1_config, sender_retry);

  std::vector<std::uint8_t> payload(8 * 48);  // 8 fragments through 2 slots
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  const std::uint32_t bundle = rig.sender->send(mesh::addr_of(100), payload);
  rig.net.run();

  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[bundle], payload);
  EXPECT_EQ(rig.sender->failures(), 0u);
  EXPECT_EQ(rig.sender->committed(), 8u);

  // Store pressure actually fired and was survived.
  EXPECT_GT(rig.r1.store().stats().refused_full, 0u);
  EXPECT_GT(rig.r1.custody_drops(), 0u);
  EXPECT_LE(rig.r1.store().stats().bundles_high_water, 2u);
  EXPECT_EQ(rig.r1.store().bundles(), 0u);
  EXPECT_EQ(rig.r2.store().bundles(), 0u);
  EXPECT_EQ(rig.r1.store().stats().evicted, 0u) << "refusal, never eviction of live custody";
  // The chaos link forced recovery work somewhere: either R1 retransmitted
  // through drops, or duplicate ACK/commit traffic was absorbed.
  EXPECT_GT(rig.r1.store().stats().retransmissions +
                rig.r2.store().stats().duplicate_commits +
                rig.r1.store().stats().duplicate_acks,
            0u);
}

/// host -- router with `name` cached; returns what the host hears back after
/// it asks for `name`.
std::vector<netsim::PacketBytes> cache_answers(netsim::Network& net, netsim::Node& router,
                                               core::RouterEnv& env, std::uint32_t name) {
  netsim::HostNode consumer;
  std::vector<netsim::PacketBytes> heard;
  consumer.set_receiver([&heard](netsim::FaceId, netsim::PacketBytes p, SimTime) {
    heard.push_back(std::move(p));
  });
  net.add_node(consumer);
  net.add_node(router);
  const netsim::FaceId face = net.connect(consumer, router).first;
  const std::vector<std::uint8_t> content{'c', 'a', 'c', 'h', 'e', 'd'};
  env.content_store.emplace(16);
  env.content_store->insert(name, content);
  consumer.send(face, ndn::make_interest_header32(name)->serialize());
  net.run();
  return heard;
}

TEST(DtnNetsim, ContentStoreHitAnswersWithTheSameDataAsAPlainRouter) {
  // Footnote 2 on a custody router: a cache hit is answered with the data
  // packet, exactly as netsim::DipRouterNode answers it — not by sending the
  // interest back out the ingress face.
  constexpr std::uint32_t kName = 0x00C0FFEE;
  netsim::Network plain_net(3);
  netsim::DipRouterNode plain(custody_env(1, test_key()), custody_registry());
  const auto expected = cache_answers(plain_net, plain, plain.env(), kName);
  ASSERT_EQ(expected.size(), 1u);
  const auto data = core::DipHeader::parse(expected[0]);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(ndn::extract_name_code(*data), kName);

  netsim::Network custody_net(3);
  dtn::CustodyRouterNode custody(custody_env(1, test_key()), custody_registry());
  EXPECT_EQ(cache_answers(custody_net, custody, custody.env(), kName), expected);
  EXPECT_EQ(custody.store().bundles(), 0u) << "a cache answer takes no custody";

  // The custody node also renders the router histograms a DipRouterNode
  // renders when RouterEnv::stats is installed.
  custody.env().stats = std::make_unique<telemetry::RouterStats>();
  telemetry::StatsWriter w;
  custody.write_stats(w);
  EXPECT_NE(w.text().find("dip_trace_sampled_total"), std::string::npos);
}

// ---- host reassembly ------------------------------------------------------

struct ReceiverRig {
  explicit ReceiverRig(bool strict = true) {
    net.add_node(rx);
    net.add_node(sink);
    const auto [frx_, fs] = net.connect(rx, sink);
    dtn::BundleReceiver::Config cfg;
    cfg.self = mesh::addr_of(100);
    cfg.custody_key = test_key();
    cfg.strict = strict;
    port.emplace(rx, frx_);
    receiver.emplace(*port, cfg, [this](std::uint32_t id, std::vector<std::uint8_t> p) {
      delivered[id] = std::move(p);
    });
  }

  std::vector<std::uint8_t> frag(std::uint32_t bundle, std::uint16_t index,
                                 std::uint16_t total,
                                 std::span<const std::uint8_t> payload) {
    return frag_packet(mesh::addr_of(100), bundle, index, total, payload,
                       test_key(), /*custodian=*/7);
  }

  netsim::Network net{7};
  netsim::HostNode rx, sink;
  std::optional<host::NetsimPort> port;
  std::optional<dtn::BundleReceiver> receiver;
  std::map<std::uint32_t, std::vector<std::uint8_t>> delivered;
};

TEST(DtnReassembly, ReorderedFragmentsAssembleInIndexOrder) {
  ReceiverRig rig;
  const std::vector<std::uint8_t> p0{'a', 'a'}, p1{'b', 'b'}, p2{'c', 'c'};
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(1, 2, 3, p2)));
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(1, 0, 3, p0)));
  EXPECT_EQ(rig.receiver->bundles_completed(), 0u);
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(1, 1, 3, p1)));

  ASSERT_EQ(rig.receiver->bundles_completed(), 1u);
  EXPECT_EQ(rig.delivered[1], (std::vector<std::uint8_t>{'a', 'a', 'b', 'b', 'c', 'c'}));

  // A duplicate after completion is re-ACKed (the custodian missed our ACK)
  // but never reassembled twice.
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(1, 1, 3, p1)));
  EXPECT_EQ(rig.receiver->duplicate_fragments(), 1u);
  EXPECT_EQ(rig.receiver->bundles_completed(), 1u);
  EXPECT_EQ(rig.receiver->fragments_received(), 4u);
}

TEST(DtnReassembly, CorruptedFragmentIsRejectedAndCleanCopyCompletes) {
  ReceiverRig rig;
  const std::vector<std::uint8_t> payload{'x', 'y'};
  auto corrupt = rig.frag(2, 0, 1, payload);
  corrupt[tag_offset(corrupt) + 20] ^= 0x80;  // MAC byte

  EXPECT_TRUE(rig.receiver->on_packet(corrupt));
  EXPECT_EQ(rig.receiver->rejected_fragments(), 1u);
  EXPECT_EQ(rig.receiver->bundles_completed(), 0u);
  // No ACK went out for the rejected fragment: the custodian retries and a
  // clean copy lands.
  EXPECT_EQ(rig.sink.received(), 0u);
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(2, 0, 1, payload)));
  rig.net.run();
  EXPECT_EQ(rig.receiver->bundles_completed(), 1u);
  EXPECT_EQ(rig.delivered[2], payload);
  EXPECT_EQ(rig.sink.received(), 1u) << "exactly the one ACK for the clean copy";
}

TEST(DtnReassembly, GeometryConflictPoisonsStrictBundles) {
  ReceiverRig rig(/*strict=*/true);
  const std::vector<std::uint8_t> piece{'p'};
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 0, 3, piece)));
  // A fragment claiming a different total can never assemble coherently.
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 1, 5, piece)));
  EXPECT_EQ(rig.receiver->rejected_fragments(), 1u);
  EXPECT_EQ(rig.receiver->poisoned_bundles(), 1u);

  // Even well-formed remainders of the poisoned bundle are refused.
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 1, 3, piece)));
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 2, 3, piece)));
  EXPECT_EQ(rig.receiver->rejected_fragments(), 3u);
  EXPECT_EQ(rig.receiver->bundles_completed(), 0u);
}

TEST(DtnReassembly, GeometryConflictQuarantinesOnlyTheFragmentWhenLenient) {
  ReceiverRig rig(/*strict=*/false);
  const std::vector<std::uint8_t> piece{'p'};
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 0, 3, piece)));
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 1, 5, piece)));  // quarantined
  EXPECT_EQ(rig.receiver->rejected_fragments(), 1u);
  EXPECT_EQ(rig.receiver->poisoned_bundles(), 0u);

  // First-seen geometry wins; the clean copies complete the bundle.
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 1, 3, piece)));
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(9, 2, 3, piece)));
  EXPECT_EQ(rig.receiver->bundles_completed(), 1u);
  EXPECT_EQ(rig.delivered[9], (std::vector<std::uint8_t>{'p', 'p', 'p'}));
}

TEST(DtnReassembly, DegenerateGeometryIsRejectedNotAcked) {
  ReceiverRig rig;
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(4, 0, 0, {})));  // total == 0
  EXPECT_TRUE(rig.receiver->on_packet(rig.frag(4, 6, 4, {})));  // index >= total
  EXPECT_EQ(rig.receiver->rejected_fragments(), 2u);
  EXPECT_EQ(rig.receiver->bundles_completed(), 0u);
}

// ---- mesh: torus custody soak through a blackout --------------------------

TEST(DtnMesh, TorusCustodySoakRecoversEveryBundleThroughBlackout) {
  mesh::ManualClock clock;
  mesh::MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = 4242;
  cfg.registry = dtn::MeshCustodyFleet::make_registry();
  mesh::MeshNet net(cfg);

  // Every link is dark for the first 2.5 s (discovery gossip is control
  // traffic, exempt from impairment) and lightly chaotic afterwards.
  netsim::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.reorder_rate = 0.10;
  plan.reorder_window = 2 * kMillisecond;
  plan.blackout_period = 120 * kSecond;
  plan.blackout_duration = 2500 * kMillisecond;
  net.build_torus(3, 3, plan);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  dtn::MeshCustodyFleet::Config fleet_cfg;
  fleet_cfg.custody_key = test_key();
  fleet_cfg.frag_payload = 64;
  dtn::MeshCustodyFleet fleet(net, fleet_cfg);

  // Bundles injected while the mesh is still dark: every transmission
  // blackholes until 2.5 s, then the custody chain drains them hop by hop.
  const std::pair<std::size_t, std::size_t> pairs[] = {{0, 8}, {2, 6}, {4, 0}, {7, 1}};
  std::vector<std::uint32_t> bundles;
  std::vector<std::uint8_t> payload(256);
  for (const auto& [src, dst] : pairs) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i + src * 31 + dst);
    }
    bundles.push_back(fleet.send(src, dst, payload));
  }
  net.loop().run_until_idle();
  EXPECT_TRUE(net.drain(clock, 60 * kSecond));

  // 100% of committed bundles recovered, and every custody store drained —
  // each committed fragment was ACKed by the next custodian or the
  // destination.
  EXPECT_EQ(fleet.bundles_completed(), bundles.size());
  for (const std::uint32_t b : bundles) {
    EXPECT_TRUE(fleet.bundle_complete(b)) << "bundle " << b;
    const auto [sent, done] = fleet.bundle_times(b);
    EXPECT_GT(done, sent) << "recovery latency must be measurable";
  }
  EXPECT_TRUE(fleet.stores_empty());
  EXPECT_GT(fleet.store_bytes_high_water(), 0u);

  const dtn::CustodyStoreStats stats = fleet.aggregate_store_stats();
  EXPECT_GT(stats.commits, 0u);
  EXPECT_GT(stats.retransmissions, 0u) << "the blackout forced retransmissions";

  // The wire saw the outage, and the conservation ledger still balances at
  // quiescence: transmitted + duplicated == delivered + lost + blackholed +
  // dropped.
  const mesh::WireLedger ledger = net.aggregate_ledger();
  EXPECT_GT(ledger.blackholed, 0u);
  EXPECT_EQ(net.pending_holdbacks(), 0u);
  EXPECT_TRUE(net.ledger_balanced());

  // Fleet telemetry exposes the dip_dtn_* series.
  telemetry::StatsWriter w;
  fleet.write_stats(w);
  EXPECT_NE(w.text().find("dip_dtn_fragments_delivered_total"), std::string::npos);
  EXPECT_NE(w.text().find("dip_dtn_bundles_completed"), std::string::npos);
}

TEST(DtnMesh, DestinationHostPoisonsConflictingGeometry) {
  // The mesh's destination host is the netsim BundleReceiver: a MAC-valid
  // fragment whose `total` disagrees with its bundle's first fragment is
  // rejected and poisons the bundle, which then never completes — what
  // DtnReassembly.GeometryConflictPoisonsStrictBundles pins for netsim.
  mesh::ManualClock clock;
  mesh::MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.registry = dtn::MeshCustodyFleet::make_registry();
  mesh::MeshNet net(cfg);
  net.build_line(3);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  dtn::MeshCustodyFleet::Config fleet_cfg;
  fleet_cfg.custody_key = test_key();
  fleet_cfg.frag_payload = 32;
  dtn::MeshCustodyFleet fleet(net, fleet_cfg);

  // Hand-built fragments of one bundle, injected at router 0's local face
  // with router 0 as their first custodian: index 0 of 2, index 2 claiming
  // 3 fragments, then the well-formed index 1 of 2, which a strict host
  // refuses once the bundle is poisoned.
  constexpr std::uint32_t kBundle = 0xC0FFEE;
  const std::vector<std::uint8_t> piece{'p', 'q'};
  for (const auto& [index, total] : {std::pair<std::uint16_t, std::uint16_t>{0, 2},
                                     std::pair<std::uint16_t, std::uint16_t>{2, 3},
                                     std::pair<std::uint16_t, std::uint16_t>{1, 2}}) {
    auto packet = frag_packet(mesh::addr_of(3), kBundle, index, total, piece,
                              test_key(), /*custodian=*/1);
    net.router(0).inject(packet, net.local_face_of(0));
    net.loop().run_until_idle();
  }
  // A well-formed bundle on the same path still completes.
  const std::uint32_t clean = fleet.send(0, 2, std::vector<std::uint8_t>(64, 'c'));
  net.loop().run_until_idle();
  EXPECT_TRUE(net.drain(clock, 60 * kSecond));

  EXPECT_TRUE(fleet.bundle_complete(clean));
  EXPECT_FALSE(fleet.bundle_complete(kBundle)) << "indices 0 and 1 of a 2-fragment "
                                                  "bundle arrived after one claimed 3";
  EXPECT_EQ(fleet.bundles_completed(), 1u);
  // The clean bundle's two fragments plus index 0 of the poisoned one: the
  // conflicting fragment and the one after it were rejected, not taken in.
  EXPECT_EQ(fleet.fragments_delivered(), 3u);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(DtnMesh, HostSendsEnterTheirRouterOneLoopRoundLater) {
  // A mesh host's port defers every send to the next loop round, so the
  // ACK a destination host sends from inside its router's delivery never
  // re-enters that router's verdict path. The source router takes custody
  // from its own host and ACKs it out the local face.
  mesh::ManualClock clock;
  mesh::MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.registry = dtn::MeshCustodyFleet::make_registry();
  mesh::MeshNet net(cfg);
  net.build_line(2);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  dtn::MeshCustodyFleet::Config fleet_cfg;
  fleet_cfg.custody_key = test_key();
  fleet_cfg.frag_payload = 32;
  dtn::MeshCustodyFleet fleet(net, fleet_cfg);

  const std::uint64_t local_before = net.router(0).local_delivered();
  const std::uint32_t bundle =
      fleet.send(0, 1, std::vector<std::uint8_t>(64, 'h'));  // 2 fragments
  EXPECT_EQ(fleet.store(0).stats().commits, 0u) << "the host's send waits for the loop";
  net.loop().run_ready();
  EXPECT_EQ(fleet.store(0).stats().commits, 2u);
  EXPECT_EQ(net.router(0).local_delivered() - local_before, 2u)
      << "one custody ACK per fragment back to the source host";

  EXPECT_TRUE(net.drain(clock, 10 * kSecond));
  EXPECT_TRUE(fleet.bundle_complete(bundle));
  EXPECT_TRUE(fleet.stores_empty());
  EXPECT_EQ(fleet.send_failures(), 0u);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(DtnMesh, StorePressureRefusesWithoutAckingAndStillRecoversEveryBundle) {
  // Tiny stores, clean links: every router on a 5-router line sees more
  // fragments at once than it can hold. A refused fragment is dropped
  // un-ACKed at a transit router and re-offered by the source, so no ACK
  // ever reaches a router that does not hold the fragment it names, nothing
  // is evicted, and every bundle still completes. All flows run the same
  // way down the line: custody waits form no cycle (crossing flows through
  // full stores wait on each other until retries run out — docs/DTN.md).
  mesh::ManualClock clock;
  mesh::MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = 77;
  cfg.registry = dtn::MeshCustodyFleet::make_registry();
  mesh::MeshNet net(cfg);
  net.build_line(5);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  dtn::MeshCustodyFleet::Config fleet_cfg;
  fleet_cfg.custody_key = test_key();
  fleet_cfg.frag_payload = 32;
  fleet_cfg.limits.max_bundles = 2;
  fleet_cfg.retry.max_retries = 16;
  fleet_cfg.retry.initial_timeout = 20 * kMillisecond;
  dtn::MeshCustodyFleet fleet(net, fleet_cfg);

  const std::pair<std::size_t, std::size_t> pairs[] = {{0, 4}, {1, 4}, {0, 3}, {2, 4}, {1, 3}};
  std::vector<std::uint32_t> bundles;
  std::vector<std::uint8_t> payload(192);  // 6 fragments per bundle
  for (const auto& [src, dst] : pairs) {
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 3 + src + dst);
    }
    bundles.push_back(fleet.send(src, dst, payload));
  }
  net.loop().run_until_idle();
  EXPECT_TRUE(net.drain(clock, 60 * kSecond));

  EXPECT_EQ(fleet.bundles_completed(), bundles.size());
  for (const std::uint32_t b : bundles) EXPECT_TRUE(fleet.bundle_complete(b)) << b;
  EXPECT_TRUE(fleet.stores_empty());
  EXPECT_EQ(fleet.send_failures(), 0u);

  const dtn::CustodyStoreStats stats = fleet.aggregate_store_stats();
  EXPECT_GT(stats.refused_full, 0u) << "the caps must actually bite";
  EXPECT_GT(fleet.custody_drops(), 0u) << "refusals veto the forward";
  EXPECT_EQ(stats.evicted, 0u) << "refusal, never eviction of live custody";
  EXPECT_EQ(stats.duplicate_acks, 0u)
      << "an ACK reached a router that never took custody of the fragment";
  EXPECT_TRUE(net.ledger_balanced());
}

}  // namespace
}  // namespace dip
