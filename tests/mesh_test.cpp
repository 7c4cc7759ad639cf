// Mesh suite (docs/MESH.md, docs/TESTING.md):
//   * frame codec — round trip, truncation vs. malformation vs. checksum;
//   * MeshEventLoop — timer ordering, fd churn mid-dispatch,
//     EAGAIN / spurious wakeup / truncated-datagram handling, all against
//     ManualClock + MockFabric (no real sleeps, fixed seeds);
//   * MeshRouter/MeshNet — in-band discovery, SPF route publication,
//     end-to-end forwarding, failed-link convergence, the §2.4
//     FN-unsupported notification, one face per peer endpoint, and the
//     advertised FNs as_graph() reads;
//   * bundled LSA flooding — one frame per face per drain, split horizon,
//     no copy back to a face that sent the same version, whole records
//     under the frame bound, newest version only, every link of a torus
//     failed and restored, and a seeded flood of hostile hello payloads;
//   * the LSDB's origin index — linear in hostile origin order, within
//     its declared bound;
//   * soak/chaos — seeded FaultPlan impairments with the conservation
//     ledger checked exactly (transmitted + duplicated == delivered + lost
//     + blackholed + dropped) and bit-identical replay under the same seed;
//   * NDN recovery-through-loss over an impaired mesh link;
//   * a two-thread real-UDP exchange (the TSan lane's race probe: routers
//     are thread-confined, datagrams are the only channel).
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dip/core/builder.hpp"
#include "dip/core/ip.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/impair.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/mesh/node.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/mesh/traffic.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/security/error_message.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::mesh {
namespace {

[[nodiscard]] std::uint8_t frame_check(std::span<const std::uint8_t> first18) {
  std::uint8_t x = 0x5C;
  for (std::size_t i = 0; i < 18; ++i) x ^= first18[i];
  return x;
}

[[nodiscard]] PacketBytes probe_packet(std::uint32_t dst_node,
                                       std::uint32_t src_node) {
  const auto header = core::make_dip32_header(addr_of(dst_node), addr_of(src_node));
  EXPECT_TRUE(header.has_value());
  return header->serialize();
}

// ---- frame codec ----------------------------------------------------------

TEST(MeshFrame, RoundTripPreservesHeaderAndPayload) {
  const PacketBytes payload{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  const PacketBytes wire = encode_frame(FrameType::kData, 0x01020304u,
                                        0x1122334455667788ull, payload);
  ASSERT_EQ(wire.size(), FrameHeader::kWireSize + payload.size());

  const auto frame = decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kData);
  EXPECT_EQ(frame->header.src_node, 0x01020304u);
  EXPECT_EQ(frame->header.seq, 0x1122334455667788ull);
  EXPECT_EQ(frame->header.payload_len, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame->payload.begin()));

  // Empty payload is legal (kBye carries none).
  const PacketBytes bye = encode_frame(FrameType::kBye, 7, 0, {});
  const auto bye_frame = decode_frame(bye);
  ASSERT_TRUE(bye_frame.has_value());
  EXPECT_EQ(bye_frame->header.type, FrameType::kBye);
  EXPECT_TRUE(bye_frame->payload.empty());
}

TEST(MeshFrame, DecodeDistinguishesTruncatedMalformedAndChecksum) {
  const PacketBytes payload{1, 2, 3, 4};
  const PacketBytes wire = encode_frame(FrameType::kData, 9, 42, payload);

  // Shorter than the header: truncated.
  const auto short_hdr = decode_frame(std::span(wire).subspan(0, 10));
  ASSERT_FALSE(short_hdr.has_value());
  EXPECT_EQ(short_hdr.error(), bytes::Error::kTruncated);

  // Header intact but the payload was clipped in flight: truncated.
  const auto clipped = decode_frame(std::span(wire).subspan(0, wire.size() - 2));
  ASSERT_FALSE(clipped.has_value());
  EXPECT_EQ(clipped.error(), bytes::Error::kTruncated);

  // Trailing bytes beyond header+len: malformed (cannot be reframed).
  PacketBytes oversized = wire;
  oversized.push_back(0xFF);
  const auto trailing = decode_frame(oversized);
  ASSERT_FALSE(trailing.has_value());
  EXPECT_EQ(trailing.error(), bytes::Error::kMalformed);

  // Bad magic: malformed.
  PacketBytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  const auto magic = decode_frame(bad_magic);
  ASSERT_FALSE(magic.has_value());
  EXPECT_EQ(magic.error(), bytes::Error::kMalformed);

  // A flipped header byte the magic/version checks miss: checksum.
  PacketBytes flipped = wire;
  flipped[8] ^= 0x10;  // inside seq
  const auto check = decode_frame(flipped);
  ASSERT_FALSE(check.has_value());
  EXPECT_EQ(check.error(), bytes::Error::kChecksum);

  // A payload_len claim beyond kMaxPayload: malformed even if the checksum
  // is recomputed to match (hostile datagram, not line noise).
  PacketBytes huge = wire;
  const std::uint16_t claim = FrameHeader::kMaxPayload + 1;
  huge[16] = static_cast<std::uint8_t>(claim >> 8);
  huge[17] = static_cast<std::uint8_t>(claim);
  huge[18] = frame_check(huge);
  const auto hostile = decode_frame(huge);
  ASSERT_FALSE(hostile.has_value());
  EXPECT_EQ(hostile.error(), bytes::Error::kMalformed);
}

// ---- event loop: timers ---------------------------------------------------

TEST(MeshEventLoopTimers, FireInDeadlineThenScheduleOrder) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  std::vector<int> order;

  loop.schedule_at(100, [&] { order.push_back(1); });  // first at t=100
  loop.schedule_at(50, [&] { order.push_back(2); });
  loop.schedule_at(100, [&] { order.push_back(3); });  // second at t=100
  EXPECT_EQ(loop.pending_timers(), 3u);
  ASSERT_TRUE(loop.next_timer_delay().has_value());
  EXPECT_EQ(*loop.next_timer_delay(), 50u);

  // Nothing is due before the clock reaches the deadlines.
  EXPECT_EQ(loop.run_ready(), 0u);
  EXPECT_TRUE(order.empty());

  clock.set(50);
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));

  clock.set(100);
  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));  // same deadline: id order
  EXPECT_EQ(loop.pending_timers(), 0u);
  EXPECT_FALSE(loop.next_timer_delay().has_value());
}

TEST(MeshEventLoopTimers, TimerScheduledFromCallbackWaitsForNextRound) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  int outer = 0, inner = 0;
  loop.schedule_at(0, [&] {
    ++outer;
    loop.schedule_at(0, [&] { ++inner; });  // due immediately
  });

  // The nested timer must not run in the same round (no starvation), but
  // needs no clock advance to run in the next one.
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 0);
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(inner, 1);
}

// ---- event loop: sockets --------------------------------------------------

TEST(MeshEventLoopSockets, ChurnMidDispatchIsSafe) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto a = fabric.create(1);
  auto b = fabric.create(2);
  auto c = fabric.create(3);
  auto feeder = fabric.create(99);

  const PacketBytes ping{0x42};
  ASSERT_EQ(feeder->send_to({.port = 1}, ping), IoStatus::kOk);
  ASSERT_EQ(feeder->send_to({.port = 2}, ping), IoStatus::kOk);
  ASSERT_EQ(feeder->send_to({.port = 3}, ping), IoStatus::kOk);  // queued for c

  std::vector<char> order;
  std::vector<std::uint8_t> buf(64);
  MeshEventLoop::SocketId id_a = 0;
  // a's handler retires its own registration and adds c — both take effect
  // at the next dispatch round without invalidating this one.
  id_a = loop.add_socket(*a, [&] {
    order.push_back('a');
    while (a->recv_from(buf).status == IoStatus::kOk) {}
    loop.remove_socket(id_a);
    loop.add_socket(*c, [&] {
      order.push_back('c');
      while (c->recv_from(buf).status == IoStatus::kOk) {}
    });
  });
  loop.add_socket(*b, [&] {
    order.push_back('b');
    while (b->recv_from(buf).status == IoStatus::kOk) {}
  });
  EXPECT_EQ(loop.socket_count(), 2u);

  // Round 1: a then b (registration order); c joined too late for this round.
  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(loop.socket_count(), 2u);  // a compacted away, c in

  // Round 2: only c is readable; a's handler must not run again.
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(loop.run_ready(), 0u);
}

TEST(MeshEventLoopSockets, MockContractCoversEagainSpuriousAndTruncation) {
  MockFabric fabric;
  auto a = fabric.create(1);
  auto b = fabric.create(2);

  // Scripted EAGAIN on send: the transmit queue is full.
  b->fail_next_sends(1);
  const PacketBytes payload{1, 2, 3};
  EXPECT_EQ(b->send_to({.port = 1}, payload), IoStatus::kAgain);
  EXPECT_EQ(b->send_to({.port = 1}, payload), IoStatus::kOk);

  // Spurious wakeup: one kAgain even though the inbox is nonempty.
  std::vector<std::uint8_t> buf(64);
  a->spurious_wakeup_once();
  EXPECT_TRUE(a->poll_readable());
  EXPECT_EQ(a->recv_from(buf).status, IoStatus::kAgain);
  const RecvOutcome ok = a->recv_from(buf);
  EXPECT_EQ(ok.status, IoStatus::kOk);
  EXPECT_EQ(ok.size, payload.size());
  EXPECT_FALSE(ok.truncated);
  EXPECT_EQ(ok.from.port, 2);

  // Truncation reports the true datagram size, writes only buffer-many.
  const PacketBytes big(100, 0xAB);
  ASSERT_EQ(b->send_to({.port = 1}, big), IoStatus::kOk);
  std::vector<std::uint8_t> small(10);
  const RecvOutcome trunc = a->recv_from(small);
  EXPECT_EQ(trunc.status, IoStatus::kOk);
  EXPECT_TRUE(trunc.truncated);
  EXPECT_EQ(trunc.size, big.size());

  // Datagrams to unbound endpoints vanish, like real UDP.
  EXPECT_EQ(b->send_to({.port = 7777}, payload), IoStatus::kOk);
  EXPECT_EQ(fabric.unrouted(), 1u);
}

// ---- router wire-path accounting ------------------------------------------

TEST(MeshRouterLedger, SendEagainCountsAsDropped) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  MockSocket* raw = sock.get();
  auto sink = fabric.create(2);

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  MeshRouter router(cfg, loop, std::move(sock), registry);
  const FaceId wire = router.add_wire_face(sink->local_endpoint(), 0);
  const FaceId local = router.add_local_face({});
  router.journal().add_route32(fib::Prefix<32>{}, wire);  // default route
  router.journal().flush();

  PacketBytes pkt = probe_packet(2, 1);
  raw->fail_next_sends(1);
  router.inject(pkt, local);
  EXPECT_EQ(router.ledger().transmitted, 1u);
  EXPECT_EQ(router.ledger().dropped, 1u);

  PacketBytes pkt2 = probe_packet(2, 1);
  router.inject(pkt2, local);
  EXPECT_EQ(router.ledger().transmitted, 2u);
  EXPECT_EQ(router.ledger().dropped, 1u);
  EXPECT_EQ(router.ledger().imbalance(), 1);  // one datagram in flight

  // The surviving frame reached the sink and parses; its seq shows the
  // dropped attempt consumed seq 0.
  ASSERT_TRUE(sink->poll_readable());
  std::vector<std::uint8_t> buf(512);
  const RecvOutcome out = sink->recv_from(buf);
  ASSERT_EQ(out.status, IoStatus::kOk);
  const auto frame = decode_frame(std::span(buf.data(), out.size));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kData);
  EXPECT_EQ(frame->header.seq, 1u);
}

// Discovery never resends a hello, so a refused frame loses every record
// it carried; the count is its own series, outside the data equation.
TEST(MeshRouterLedger, RefusedHelloFramesAreCounted) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  MockSocket* raw = sock.get();
  auto peer_a = fabric.create(2);
  auto peer_b = fabric.create(3);

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  MeshRouter router(cfg, loop, std::move(sock), netsim::make_default_registry());
  (void)router.add_wire_face(peer_a->local_endpoint(), 0);
  (void)router.add_wire_face(peer_b->local_endpoint(), 1);

  raw->fail_next_sends(1);
  router.originate_lsa(1);
  EXPECT_EQ(router.ledger().hello_tx, 2u);
  EXPECT_EQ(router.ledger().hello_dropped, 1u);
  EXPECT_FALSE(peer_a->poll_readable()) << "the refused frame went nowhere";
  EXPECT_TRUE(peer_b->poll_readable());
  EXPECT_EQ(router.ledger().imbalance(), 0) << "hellos stay outside the data ledger";

  telemetry::StatsWriter node;
  router.write_stats(node);
  EXPECT_NE(node.text().find("dip_mesh_hello_dropped_total{node=\"1\"} 1\n"),
            std::string::npos)
      << node.text();

  MeshConfig mcfg;
  mcfg.use_mock = true;
  mcfg.clock = &clock;
  MeshNet net(mcfg);
  net.build_line(2);
  ASSERT_TRUE(net.discover(kSecond));
  telemetry::StatsWriter mesh;
  net.write_stats(mesh);
  EXPECT_NE(mesh.text().find("dip_mesh_hello_dropped_total 0\n"), std::string::npos);
}

TEST(MeshRouterLedger, UnknownSourcesAndDecodeErrorsAreCounted) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  auto peer = fabric.create(2);   // registered as a wire face below
  auto rogue = fabric.create(9);  // never registered

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  MeshRouter router(cfg, loop, std::move(sock), registry);
  (void)router.add_wire_face(peer->local_endpoint(), 0);

  // Garbage from a known face still counts `delivered` (the sender counted
  // it out) plus a decode error; from an unknown endpoint it is quarantined.
  const PacketBytes junk{1, 2, 3};
  ASSERT_EQ(peer->send_to({.port = 1}, junk), IoStatus::kOk);
  ASSERT_EQ(rogue->send_to({.port = 1}, junk), IoStatus::kOk);
  loop.run_until_idle();

  EXPECT_EQ(router.ledger().delivered, 1u);
  EXPECT_EQ(router.ledger().decode_errors, 1u);
  EXPECT_EQ(router.ledger().unknown_source, 1u);
}

TEST(MeshRouterLedger, UnknownSourcesAreExportedPerNodeAndInAggregate) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  auto rogue = fabric.create(9);  // never registered as a face

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  MeshRouter router(cfg, loop, std::move(sock), netsim::make_default_registry());
  ASSERT_EQ(rogue->send_to({.port = 1}, PacketBytes{1, 2, 3}), IoStatus::kOk);
  ASSERT_EQ(rogue->send_to({.port = 1}, PacketBytes{4, 5, 6}), IoStatus::kOk);
  loop.run_until_idle();

  telemetry::StatsWriter node;
  router.write_stats(node);
  EXPECT_NE(node.text().find("dip_mesh_unknown_source_total{node=\"1\"} 2\n"),
            std::string::npos);

  // The mesh aggregate carries the series without labels.
  MeshConfig mcfg;
  mcfg.use_mock = true;
  mcfg.clock = &clock;
  MeshNet net(mcfg);
  net.build_line(2);
  telemetry::StatsWriter mesh;
  net.write_stats(mesh);
  EXPECT_NE(mesh.text().find("dip_mesh_unknown_source_total 0\n"), std::string::npos);
}

// ---- link-state database ---------------------------------------------------

// LSA versions are 16-bit serial numbers (RFC 1982). An origin's version
// wraps from 65,535 to 0, and its peers must keep accepting its floods
// across the wrap; a replayed older version is still ignored.
TEST(MeshLsdb, LsaVersionWrapIsFreshAndAReplayIsIgnored) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  auto peer = fabric.create(2);

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  MeshRouter router(cfg, loop, std::move(sock), netsim::make_default_registry());
  (void)router.add_wire_face(peer->local_endpoint(), 0);

  // A TTL-1 kHello from origin 7 listing neighbor 2. Payload: origin:32
  // version:16 ttl:8 nnbr:16 neighbor:32, then the CapabilitySet wire form.
  std::uint64_t seq = 0;
  const auto flood = [&](std::uint16_t version) {
    PacketBytes payload = {0, 0, 0, 7, static_cast<std::uint8_t>(version >> 8),
                           static_cast<std::uint8_t>(version), 1, 0, 1, 0, 0, 0, 2};
    const PacketBytes caps = bootstrap::CapabilitySet{}.serialize();
    payload.insert(payload.end(), caps.begin(), caps.end());
    ASSERT_EQ(peer->send_to({.port = 1}, encode_frame(FrameType::kHello, 2, seq++, payload)),
              IoStatus::kOk);
    loop.run_until_idle();
  };

  for (const std::uint16_t version : {65534, 65535, 0, 1}) {
    flood(version);
    ASSERT_EQ(router.lsdb().at(7).version, version)
        << "LSA version " << version << " was ignored";
  }
  flood(65533);  // behind 1 in serial order: a replay
  EXPECT_EQ(router.lsdb().at(7).version, 1u);
  EXPECT_EQ(router.ledger().hello_rx, 5u);
}

// The address plan names nodes 1..kMaxNodeId: prefix_of keeps 16 bits of
// the id. An LSA from any other origin must not enter the LSDB, or origin
// 65,537 claims 10.0.1.0/24 (node 1's own prefix) and pulls node 1's
// traffic onto a wire face. A peer floods fresh LSAs for in-plan and
// out-of-plan origins, each with a symmetric edge to the peer.
TEST(MeshLsdb, OutOfPlanOriginsAreNeitherStoredNorRouted) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  auto peer = fabric.create(2);

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  MeshRouter router(cfg, loop, std::move(sock), netsim::make_default_registry());
  // Faces in MeshNet's order: the local face first, then the wire face.
  const FaceId local = router.add_local_face([](std::span<const std::uint8_t>, std::uint64_t) {});
  const FaceId wire = router.add_wire_face(peer->local_endpoint(), 0);

  // TTL-1 kHellos sent by node 2, version 1. Payload: origin:32 version:16
  // ttl:8 nnbr:16 neighbor:32 each, then the CapabilitySet wire form.
  std::uint64_t seq = 0;
  const auto flood = [&](std::uint32_t origin, const std::vector<std::uint32_t>& neighbors) {
    PacketBytes payload(9 + 4 * neighbors.size());
    const auto put32 = [&payload](std::size_t at, std::uint32_t v) {
      for (std::size_t i = 0; i < 4; ++i) payload[at + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
    };
    put32(0, origin);
    payload[5] = 1;  // version
    payload[6] = 1;  // TTL
    payload[8] = static_cast<std::uint8_t>(neighbors.size());
    for (std::size_t i = 0; i < neighbors.size(); ++i) put32(9 + 4 * i, neighbors[i]);
    const PacketBytes caps = bootstrap::CapabilitySet{}.serialize();
    payload.insert(payload.end(), caps.begin(), caps.end());
    ASSERT_EQ(peer->send_to({.port = 1}, encode_frame(FrameType::kHello, 2, seq++, payload)),
              IoStatus::kOk);
    loop.run_until_idle();
  };
  const std::vector<std::uint32_t> out_of_plan = {0, 0x10000, 0x10001, 0xFFFFFFFF};
  flood(2, {0, 1, 7, 0x10000, 0x10001, 0xFFFFFFFF});  // ascending, as the wire requires
  flood(7, {2});
  for (const std::uint32_t origin : out_of_plan) flood(origin, {2});
  router.originate_lsa(1);  // node 1's own LSA: neighbour 2, learned from the frames

  const LinkStateDb& lsdb = router.lsdb();
  EXPECT_EQ(router.ledger().lsa_out_of_plan, out_of_plan.size());
  EXPECT_EQ(lsdb.size(), 3u);  // nodes 1, 2 and 7
  for (const std::uint32_t origin : out_of_plan) {
    EXPECT_FALSE(lsdb.contains(origin)) << "origin " << origin << " was stored";
  }
  EXPECT_LE(lsdb.size(), kMaxNodeId);
  const std::vector<NextHop> hops = compute_next_hops(lsdb, 1);
  EXPECT_EQ(hops, (std::vector<NextHop>{{2, 2}, {7, 2}}));

  EXPECT_EQ(publish_routes(router, local), 3u);
  const fib::Ipv4Lpm* fib = router.env().control->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->size(), 3u);
  EXPECT_EQ(fib->lookup(addr_of(1)), local) << "node 1's own prefix stays local";
  EXPECT_EQ(fib->lookup(addr_of(2)), wire);
  EXPECT_EQ(fib->lookup(addr_of(7)), wire);

  telemetry::StatsWriter w;
  router.write_stats(w);
  EXPECT_NE(w.text().find("dip_mesh_lsdb_entries{node=\"1\"} " +
                          std::to_string(lsdb.size()) + "\n"),
            std::string::npos)
      << w.text();
  EXPECT_NE(w.text().find("dip_mesh_lsa_out_of_plan_total{node=\"1\"} 4\n"),
            std::string::npos);
}

// ---- bundled LSA flooding --------------------------------------------------

// One kHello LSA record: origin:32 version:16 ttl:8 nnbr:16 neighbor:32
// each, then the CapabilitySet wire form. A payload is records back to back.
[[nodiscard]] PacketBytes lsa_record(std::uint32_t origin, std::uint16_t version,
                                     std::uint8_t ttl,
                                     const std::vector<std::uint32_t>& neighbors = {},
                                     const bootstrap::CapabilitySet& caps = {}) {
  PacketBytes out;
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = bytes - 1; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(origin, 4);
  put(version, 2);
  put(ttl, 1);
  put(neighbors.size(), 2);
  for (const std::uint32_t n : neighbors) put(n, 4);
  const PacketBytes wire = caps.serialize();
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

[[nodiscard]] std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) | (std::uint32_t{p[2]} << 8) |
         p[3];
}

[[nodiscard]] PacketBytes with_ttl(PacketBytes record, std::uint8_t ttl) {
  record[6] = ttl;
  return record;
}

[[nodiscard]] PacketBytes concat(const std::vector<PacketBytes>& records) {
  PacketBytes out;
  for (const PacketBytes& r : records) out.insert(out.end(), r.begin(), r.end());
  return out;
}

// The records of a kHello payload, cut at their headers; fails the test
// unless the payload ends on a record boundary.
[[nodiscard]] std::vector<PacketBytes> split_records(std::span<const std::uint8_t> p) {
  std::vector<PacketBytes> out;
  while (!p.empty()) {
    const std::size_t caps_at = p.size() < 9 ? 0 : 9 + 4 * std::size_t((p[7] << 8) | p[8]);
    const std::size_t size = caps_at == 0 || p.size() <= caps_at ? 0 : caps_at + 1 + 2 * p[caps_at];
    if (size == 0 || size > p.size()) {
      ADD_FAILURE() << "a payload ends inside a record";
      break;
    }
    out.emplace_back(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(size));
    p = p.subspan(size);
  }
  return out;
}

// Router 1 on a MockFabric with one wire face toward each peer socket;
// peer i is node i + 2 and stands for a neighbour that sends and listens.
struct HelloRig {
  explicit HelloRig(std::size_t peer_count) {
    auto sock = fabric.create(1);
    MeshRouter::Config cfg;
    cfg.node_id = 1;
    router = std::make_unique<MeshRouter>(cfg, loop, std::move(sock),
                                          netsim::make_default_registry());
    for (std::size_t i = 0; i < peer_count; ++i) {
      peers.push_back(fabric.create(static_cast<std::uint16_t>(i + 2)));
      (void)router->add_wire_face(peers.back()->local_endpoint(), static_cast<std::uint32_t>(i));
    }
  }

  // Peer `i` sends one kHello frame; the router reads it at the next loop run.
  void send(std::size_t i, std::span<const std::uint8_t> payload) {
    ASSERT_EQ(peers[i]->send_to({.port = 1},
                                encode_frame(FrameType::kHello,
                                             static_cast<std::uint32_t>(i + 2), seq++, payload)),
              IoStatus::kOk);
  }

  // Every kHello payload waiting at peer `i`, each checked to be a whole
  // frame within the bound.
  [[nodiscard]] std::vector<PacketBytes> received(std::size_t i) {
    std::vector<PacketBytes> out;
    std::vector<std::uint8_t> buf(FrameHeader::kWireSize + FrameHeader::kMaxPayload + 64);
    while (true) {
      const RecvOutcome r = peers[i]->recv_from(buf);
      if (r.status != IoStatus::kOk) break;
      EXPECT_FALSE(r.truncated);
      const auto frame = decode_frame(std::span(buf.data(), std::min(r.size, buf.size())));
      if (!frame) {
        ADD_FAILURE() << "a re-flooded frame does not decode";
        continue;
      }
      EXPECT_EQ(frame->header.type, FrameType::kHello);
      EXPECT_EQ(frame->header.src_node, 1u);
      EXPECT_LE(frame->payload.size(), FrameHeader::kMaxPayload);
      out.emplace_back(frame->payload.begin(), frame->payload.end());
    }
    return out;
  }

  ManualClock clock;
  MeshEventLoop loop{&clock};
  MockFabric fabric;
  std::vector<std::unique_ptr<MockSocket>> peers;
  std::unique_ptr<MeshRouter> router;
  std::uint64_t seq = 0;
};

// One frame of k fresh TTL-2 records: one frame out of each other face
// carrying all k at TTL 1, nothing back out the face they came in on.
TEST(MeshFlood, FreshRecordsLeaveAsOneBundlePerOtherFace) {
  HelloRig rig(3);
  std::vector<PacketBytes> sent;
  for (std::uint32_t origin = 10; origin < 15; ++origin) {
    sent.push_back(lsa_record(origin, 1, 2, {2, origin + 1}, bootstrap::table1_capability_set()));
  }
  rig.send(0, concat(sent));
  rig.loop.run_until_idle();

  EXPECT_EQ(rig.router->lsdb().size(), sent.size());
  EXPECT_EQ(rig.router->ledger().hello_rx, 1u);
  EXPECT_EQ(rig.router->ledger().hello_tx, 2u);
  EXPECT_TRUE(rig.received(0).empty()) << "split horizon: nothing back to the sender";
  std::vector<PacketBytes> expected;
  for (const PacketBytes& r : sent) expected.push_back(with_ttl(r, 1));
  for (const std::size_t peer : {1u, 2u}) {
    const auto frames = rig.received(peer);
    ASSERT_EQ(frames.size(), 1u) << "peer " << peer;
    EXPECT_EQ(split_records(frames[0]), expected) << "peer " << peer;
  }
}

// Only fresh records are decoded, stored and forwarded; stale, self,
// out-of-plan, unsorted and malformed ones are not, and the walk goes on
// past each of them.
TEST(MeshFlood, OnlyTheFreshRecordsOfAMixedFrameAreStoredAndForwarded) {
  HelloRig rig(3);
  rig.send(0, lsa_record(20, 5, 1, {2}));  // TTL 1: stored, not forwarded
  rig.loop.run_until_idle();
  ASSERT_EQ(rig.router->lsdb().at(20).version, 5u);
  EXPECT_EQ(rig.router->ledger().hello_tx, 0u);

  PacketBytes repeated_key = lsa_record(24, 1, 3);
  repeated_key.back() = 2;  // two capability keys, both kFib
  repeated_key.insert(repeated_key.end(), {0x00, 0x04, 0x00, 0x04});
  const PacketBytes fresh_a = lsa_record(21, 1, 3, {1, 22});
  const PacketBytes fresh_b = lsa_record(22, 1, 3, {21, 21}, {core::OpKey::kFib});  // parallel links
  rig.send(0, concat({fresh_a, lsa_record(20, 4, 3), lsa_record(20, 5, 3), lsa_record(1, 9, 3),
                      lsa_record(0, 1, 3), lsa_record(0x10000, 1, 3), lsa_record(23, 1, 3, {5, 4}),
                      repeated_key, fresh_b}));
  rig.loop.run_until_idle();

  const LinkStateDb& lsdb = rig.router->lsdb();
  std::vector<std::uint32_t> origins;
  for (const auto& [origin, lsa] : lsdb) origins.push_back(origin);
  EXPECT_EQ(origins, (std::vector<std::uint32_t>{20, 21, 22}));
  EXPECT_EQ(lsdb.at(20).version, 5u);
  EXPECT_EQ(lsdb.at(21).neighbors, (std::vector<std::uint32_t>{1, 22}));
  EXPECT_EQ(lsdb.at(22).neighbors, (std::vector<std::uint32_t>{21, 21}));
  EXPECT_EQ(lsdb.at(22).capabilities, (bootstrap::CapabilitySet{core::OpKey::kFib}));
  EXPECT_EQ(rig.router->ledger().lsa_out_of_plan, 2u);

  EXPECT_TRUE(rig.received(0).empty());
  for (const std::size_t peer : {1u, 2u}) {
    const auto frames = rig.received(peer);
    ASSERT_EQ(frames.size(), 1u) << "peer " << peer;
    EXPECT_EQ(split_records(frames[0]),
              (std::vector<PacketBytes>{with_ttl(fresh_a, 2), with_ttl(fresh_b, 2)}));
  }
}

// Versions of one origin heard in one drain: only the newest leaves,
// out of every face but the one it came in on. A newer version that may
// not travel (TTL 1) takes the older one off the queue too.
TEST(MeshFlood, OnlyTheNewestVersionHeardInOneDrainIsForwarded) {
  HelloRig rig(3);
  rig.send(0, concat({lsa_record(30, 1, 4), lsa_record(31, 2, 4), lsa_record(32, 1, 4)}));
  rig.send(1, concat({lsa_record(30, 2, 4), lsa_record(31, 1, 4), lsa_record(32, 2, 1)}));
  rig.loop.run_until_idle();

  const LinkStateDb& lsdb = rig.router->lsdb();
  EXPECT_EQ(lsdb.at(30).version, 2u);
  EXPECT_EQ(lsdb.at(31).version, 2u);
  EXPECT_EQ(lsdb.at(32).version, 2u);
  const PacketBytes v2_30 = lsa_record(30, 2, 3);
  const PacketBytes v2_31 = lsa_record(31, 2, 3);
  EXPECT_EQ(rig.received(0), (std::vector<PacketBytes>{v2_30}));
  EXPECT_EQ(rig.received(1), (std::vector<PacketBytes>{v2_31}));
  EXPECT_EQ(rig.received(2), (std::vector<PacketBytes>{concat({v2_31, v2_30})}));
  EXPECT_EQ(rig.router->ledger().hello_tx, 3u);
}

// A queue larger than one frame leaves as several, each of whole
// records, each within kMaxPayload, cut only where the next record would
// not fit, and in arrival order.
TEST(MeshFlood, AQueuePastTheFrameBoundLeavesAsWholeRecordsInOrder) {
  HelloRig rig(2);
  std::vector<PacketBytes> sent;
  PacketBytes frame;
  for (std::uint32_t i = 0; i < 60; ++i) {
    std::vector<std::uint32_t> neighbors(40 + (i * 37) % 150);
    for (std::size_t n = 0; n < neighbors.size(); ++n) neighbors[n] = static_cast<std::uint32_t>(n + 2);
    PacketBytes record = lsa_record(100 + i, 1, 8, neighbors, bootstrap::full_capability_set());
    if (frame.size() + record.size() > FrameHeader::kMaxPayload) {
      rig.send(0, frame);
      frame.clear();
    }
    frame.insert(frame.end(), record.begin(), record.end());
    sent.push_back(std::move(record));
  }
  rig.send(0, frame);
  rig.loop.run_until_idle();  // one drain reads every frame

  ASSERT_EQ(rig.router->lsdb().size(), sent.size());
  const auto frames = rig.received(1);
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(rig.router->ledger().hello_tx, frames.size());
  std::vector<PacketBytes> forwarded;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_LE(frames[f].size(), FrameHeader::kMaxPayload);
    const auto records = split_records(frames[f]);
    forwarded.insert(forwarded.end(), records.begin(), records.end());
    if (f + 1 < frames.size()) {
      EXPECT_GT(frames[f].size() + split_records(frames[f + 1]).front().size(),
                FrameHeader::kMaxPayload)
          << "frame " << f << " was cut early";
    }
  }
  std::vector<PacketBytes> expected;
  for (const PacketBytes& r : sent) expected.push_back(with_ttl(r, 7));
  EXPECT_EQ(forwarded, expected);
}

// A record whose neighbour or capability count runs past the payload ends
// the walk: it is neither stored nor forwarded, and the records before it
// are.
TEST(MeshFlood, ARecordCutShortEndsTheWalk) {
  HelloRig rig(2);
  const PacketBytes first = lsa_record(40, 1, 3, {2});
  PacketBytes short_caps = lsa_record(41, 1, 3, {0}, {core::OpKey::kFib});
  short_caps[13] = 2;  // two keys claimed, one present
  const PacketBytes second = lsa_record(43, 1, 3);
  PacketBytes short_neighbors = lsa_record(42, 1, 3, {0});
  short_neighbors[8] = 3;  // three neighbours claimed, one present
  rig.send(0, concat({first, short_caps}));
  rig.send(0, concat({second, short_neighbors}));
  rig.loop.run_until_idle();

  std::vector<std::uint32_t> origins;
  for (const auto& [origin, lsa] : rig.router->lsdb()) origins.push_back(origin);
  EXPECT_EQ(origins, (std::vector<std::uint32_t>{40, 43}));
  EXPECT_EQ(rig.router->ledger().lsa_out_of_plan, 0u);
  const auto frames = rig.received(1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(split_records(frames[0]),
            (std::vector<PacketBytes>{with_ttl(first, 2), with_ttl(second, 2)}));
}

// A record with 255 capability keys, the most a set holds, still frames
// the record behind it.
TEST(MeshFlood, ARecordWithTheMostCapabilitiesFramesTheOneBehindIt) {
  HelloRig rig(1);
  bootstrap::CapabilitySet many;
  for (std::uint32_t key = 1; key <= 256; ++key) many.add(static_cast<core::OpKey>(key));
  ASSERT_EQ(many.size(), bootstrap::CapabilitySet::kMaxKeys);
  rig.send(0, concat({lsa_record(5, 1, 1, {2}, many), lsa_record(6, 1, 1, {2})}));
  rig.loop.run_until_idle();

  ASSERT_TRUE(rig.router->lsdb().contains(5));
  ASSERT_TRUE(rig.router->lsdb().contains(6));
  EXPECT_EQ(rig.router->lsdb().at(5).capabilities, many);
  EXPECT_EQ(rig.router->lsdb().at(6).neighbors, (std::vector<std::uint32_t>{2}));
}

// A 9x12 torus floods its discovery in bundles and learns exactly the
// state the one-frame-per-LSA flood did: every LSDB holds every origin at
// version 2 (the TTL-64 round) with its four torus neighbours and the 13
// FNs the default registry runs, and every FIB follows the smallest-id
// shortest path. One frame per LSA per face sent 35,532 frames here and
// 646 for the failure.
TEST(MeshFlood, TorusDiscoveryBundlesItsFloodAndLearnsTheSameState) {
  constexpr std::size_t kRows = 9, kCols = 12, kNodes = kRows * kCols;
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(kRows, kCols);
  ASSERT_TRUE(net.discover(10 * kSecond));
  EXPECT_LE(net.aggregate_ledger().hello_tx, 2000u);
  EXPECT_EQ(net.aggregate_ledger().hello_dropped, 0u);

  LinkStateDb expected;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t r = i / kCols, c = i % kCols;
    std::vector<std::uint32_t> neighbors;
    for (const std::size_t n : {r * kCols + (c + 1) % kCols, r * kCols + (c + kCols - 1) % kCols,
                                ((r + 1) % kRows) * kCols + c,
                                ((r + kRows - 1) % kRows) * kCols + c}) {
      neighbors.push_back(static_cast<std::uint32_t>(n + 1));
    }
    std::sort(neighbors.begin(), neighbors.end());
    expected[static_cast<std::uint32_t>(i + 1)] =
        Lsa{2, std::move(neighbors),
            bootstrap::CapabilitySet{core::OpKey::kMatch32, core::OpKey::kMatch128,
                                     core::OpKey::kSource, core::OpKey::kFib,
                                     core::OpKey::kPit, core::OpKey::kParm,
                                     core::OpKey::kMac, core::OpKey::kMark,
                                     core::OpKey::kDag, core::OpKey::kIntent,
                                     core::OpKey::kPass, core::OpKey::kHvf,
                                     core::OpKey::kTelemetry}};
  }
  const auto expect_state = [&net](const LinkStateDb& want) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      MeshRouter& router = net.router(i);
      ASSERT_EQ(router.lsdb().size(), want.size()) << "router " << i;
      for (const auto& [origin, lsa] : want) {
        const Lsa& got = router.lsdb().at(origin);
        EXPECT_EQ(got.version, lsa.version) << "router " << i << " origin " << origin;
        EXPECT_EQ(got.neighbors, lsa.neighbors) << "router " << i << " origin " << origin;
        EXPECT_EQ(got.capabilities, lsa.capabilities) << "router " << i << " origin " << origin;
      }
      const fib::Ipv4Lpm* fib = router.env().control->fib32.read();
      ASSERT_NE(fib, nullptr);
      EXPECT_EQ(fib->size(), want.size());
      EXPECT_EQ(fib->lookup(addr_of(router.node_id())), net.local_face_of(i));
      for (const NextHop& hop : compute_next_hops(want, router.node_id())) {
        EXPECT_EQ(fib->lookup(addr_of(hop.destination)), router.face_toward(hop.via))
            << "router " << i << " toward " << hop.destination;
      }
    }
  };
  ASSERT_EQ(net.recompute_routes(), kNodes * kNodes);
  expect_state(expected);

  const std::uint64_t before = net.aggregate_ledger().hello_tx;
  net.fail_link(0, 1);
  net.loop().run_until_idle();
  EXPECT_LE(net.aggregate_ledger().hello_tx - before, 400u);
  for (const std::uint32_t origin : {1u, 2u}) {
    expected[origin].version = 3;
    std::erase(expected[origin].neighbors, 3 - origin);
  }
  ASSERT_GT(net.recompute_routes(), 0u);
  expect_state(expected);
}

// A copy of the version a router has queued, heard on another face in the
// same drain, is an implied acknowledgement (RFC 2328 §13): that neighbour
// holds the version, so the record leaves only on the other faces. An
// older copy acknowledges nothing, and a newer version starts a new set.
TEST(MeshFlood, ACopyOfTheQueuedVersionKeepsTheRecordOffItsFace) {
  HelloRig rig(4);
  const PacketBytes older = lsa_record(50, 1, 3, {2, 3});
  const PacketBytes record = lsa_record(50, 2, 3, {2, 3, 4});
  rig.send(3, older);   // fresh, queued with face 3 ...
  rig.send(1, record);  // ... replaced by version 2 from face 1
  rig.send(2, record);  // the same version: face 2 already holds it
  rig.send(0, older);   // stale: face 0 still needs version 2
  rig.loop.run_until_idle();

  EXPECT_EQ(rig.router->lsdb().at(50).version, 2u);
  EXPECT_EQ(rig.router->ledger().hello_rx, 4u);
  EXPECT_TRUE(rig.received(1).empty()) << "face 1 sent it";
  EXPECT_TRUE(rig.received(2).empty()) << "face 2 sent the same version";
  for (const std::size_t peer : {0u, 3u}) {
    EXPECT_EQ(rig.received(peer), (std::vector<PacketBytes>{with_ttl(record, 2)}))
        << "peer " << peer;
  }
  EXPECT_EQ(rig.router->ledger().hello_tx, 2u);
}

// Every link of a 9x12 torus fails and comes back in turn. A failure flood
// skips each neighbour that sent the record's version, so it stays small
// wherever the link sits in the loop's socket order (without the skip:
// 356 / 413 / 622 frames min / median / max, and 1,914 for discovery), and
// after each restore every LSDB and FIB is the whole torus again.
TEST(MeshFlood, EveryTorusLinkFailsAndRestoresWithSmallFloodsAndTheSameState) {
  constexpr std::size_t kRows = 9, kCols = 12, kNodes = kRows * kCols;
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(kRows, kCols);
  ASSERT_TRUE(net.discover(10 * kSecond));
  EXPECT_LE(net.aggregate_ledger().hello_tx, 1750u);
  ASSERT_EQ(net.recompute_routes(), kNodes * kNodes);

  // The torus state: origin n + 1's sorted neighbours, its version (2 after
  // discovery, one more per originate), and each router's face per node.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  std::vector<std::vector<std::uint32_t>> neighbors(kNodes);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const std::size_t here = r * kCols + c;
      for (const std::size_t there : {r * kCols + (c + 1) % kCols, ((r + 1) % kRows) * kCols + c}) {
        links.emplace_back(here, there);
        neighbors[here].push_back(static_cast<std::uint32_t>(there + 1));
        neighbors[there].push_back(static_cast<std::uint32_t>(here + 1));
      }
    }
  }
  ASSERT_EQ(links.size(), 2 * kNodes);
  LinkStateDb torus;
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::sort(neighbors[n].begin(), neighbors[n].end());
    torus[static_cast<std::uint32_t>(n + 1)] =
        Lsa{2, neighbors[n],
            bootstrap::CapabilitySet{core::OpKey::kMatch32, core::OpKey::kMatch128,
                                     core::OpKey::kSource, core::OpKey::kFib,
                                     core::OpKey::kPit, core::OpKey::kParm,
                                     core::OpKey::kMac, core::OpKey::kMark,
                                     core::OpKey::kDag, core::OpKey::kIntent,
                                     core::OpKey::kPass, core::OpKey::kHvf,
                                     core::OpKey::kTelemetry}};
  }
  std::vector<std::vector<std::optional<fib::NextHop>>> faces(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    MeshRouter& router = net.router(i);
    faces[i].assign(kNodes + 1, std::nullopt);
    faces[i][router.node_id()] = net.local_face_of(i);
    for (const NextHop& hop : compute_next_hops(torus, router.node_id())) {
      faces[i][hop.destination] = router.face_toward(hop.via);
    }
  }
  // The first difference from the torus state, or "".
  const auto mismatch = [&]() -> std::string {
    for (std::size_t i = 0; i < kNodes; ++i) {
      MeshRouter& router = net.router(i);
      const std::string at = "router " + std::to_string(i) + ": ";
      if (router.lsdb().size() != kNodes) return at + "LSDB size " + std::to_string(router.lsdb().size());
      for (const auto& [origin, want] : torus) {
        const Lsa& got = router.lsdb().at(origin);
        if (got.version != want.version || got.neighbors != want.neighbors ||
            got.capabilities != want.capabilities) {
          return at + "origin " + std::to_string(origin) + " version " + std::to_string(got.version);
        }
      }
      const fib::Ipv4Lpm* fib = router.env().control->fib32.read();
      if (fib == nullptr || fib->size() != kNodes) return at + "FIB size";
      for (std::uint32_t node = 1; node <= kNodes; ++node) {
        if (fib->lookup(addr_of(node)) != faces[i][node]) return at + "route to " + std::to_string(node);
      }
    }
    return "";
  };

  std::vector<std::uint64_t> floods;
  for (const auto& [a, b] : links) {
    SCOPED_TRACE(::testing::Message() << "link " << a << "-" << b);
    const std::uint64_t before = net.aggregate_ledger().hello_tx;
    net.fail_link(a, b);
    net.loop().run_until_idle();
    floods.push_back(net.aggregate_ledger().hello_tx - before);
    ASSERT_GT(net.recompute_routes(), 0u);

    MeshRouter& ra = net.router(a);
    MeshRouter& rb = net.router(b);
    ra.set_face_up(*ra.face_toward(rb.node_id()), true);
    rb.set_face_up(*rb.face_toward(ra.node_id()), true);
    ra.originate_lsa(32);
    rb.originate_lsa(32);
    net.loop().run_until_idle();
    ASSERT_EQ(net.recompute_routes(), kNodes * kNodes);
    torus[ra.node_id()].version += 2;  // the failure's LSA and the restore's
    torus[rb.node_id()].version += 2;
    ASSERT_EQ(mismatch(), "");
  }
  EXPECT_EQ(net.aggregate_ledger().hello_dropped, 0u);
  std::sort(floods.begin(), floods.end());
  EXPECT_LE(floods.back(), 450u);
  EXPECT_LE(floods[floods.size() / 2], 300u);
}

// The LSDB stays O(1) per lookup and insert whatever order origins arrive
// in, and its origin index within its bound (ROADMAP item 10). A peer floods
// every in-plan origin but the router's own, 2..65,535, in a seeded random
// order as bundled TTL-1 records: a chain 1-2-...-65,535. A sorted-vector
// LSDB takes seconds here; the index takes milliseconds.
TEST(MeshLsdb, EveryOriginInHostileOrderStaysLinearAndBounded) {
  HelloRig rig(1);
  const FaceId local = rig.router->add_local_face([](std::span<const std::uint8_t>, std::uint64_t) {});
  std::vector<std::uint32_t> origins(kMaxNodeId - 1);
  for (std::size_t i = 0; i < origins.size(); ++i) origins[i] = static_cast<std::uint32_t>(i + 2);
  std::mt19937_64 rng(0x0D1D'5EED);
  std::shuffle(origins.begin(), origins.end(), rng);
  std::vector<PacketBytes> payloads(1);
  for (const std::uint32_t origin : origins) {
    std::vector<std::uint32_t> neighbors{origin - 1};
    if (origin < kMaxNodeId) neighbors.push_back(origin + 1);
    const PacketBytes record = lsa_record(origin, 1, 1, neighbors);
    if (payloads.back().size() + record.size() > FrameHeader::kMaxPayload) payloads.emplace_back();
    payloads.back().insert(payloads.back().end(), record.begin(), record.end());
  }

  const auto cpu_ns = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::uint64_t(ts.tv_sec) * 1'000'000'000u + std::uint64_t(ts.tv_nsec);
  };
  const std::uint64_t t0 = cpu_ns();
  for (const PacketBytes& payload : payloads) {
    rig.send(0, payload);
    rig.loop.run_until_idle();
  }
  const std::uint64_t flood_ns = cpu_ns() - t0;
  EXPECT_LT(flood_ns, 2'000'000'000u) << "the flood took " << flood_ns / 1000 << " us of CPU";

  const LinkStateDb& lsdb = rig.router->lsdb();
  ASSERT_EQ(lsdb.size(), origins.size());
  for (std::uint32_t origin = 2; origin <= kMaxNodeId; ++origin) {
    ASSERT_TRUE(lsdb.contains(origin)) << origin;
  }
  EXPECT_LE(lsdb.index_capacity(), kLsdbIndexSlots);
  EXPECT_EQ(lsdb.slots().size(), kLsdbIndexSlots);
  telemetry::StatsWriter w;
  rig.router->write_stats(w);
  EXPECT_NE(w.text().find("dip_mesh_lsdb_entries{node=\"1\"} 65534\n"), std::string::npos);

  rig.router->originate_lsa(1);  // node 1 lists peer 2: the chain's head
  EXPECT_EQ(publish_routes(*rig.router, local), std::size_t{kMaxNodeId});
  const fib::Ipv4Lpm* fib = rig.router->env().control->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(addr_of(kMaxNodeId)), std::optional<fib::NextHop>{0});
  EXPECT_EQ(fib->lookup(addr_of(1)), std::optional<fib::NextHop>{local});
}

// One record from the largest in-plan origin grows the index to exactly its
// declared size, an out-of-plan origin does not grow it, and the container
// refuses an origin beyond the plan.
TEST(MeshLsdb, TheLargestOriginGrowsTheIndexToItsDeclaredSize) {
  HelloRig rig(1);
  rig.send(0, concat({lsa_record(kMaxNodeId, 1, 1, {2}), lsa_record(kMaxNodeId + 1, 1, 1, {2})}));
  rig.loop.run_until_idle();
  const LinkStateDb& lsdb = rig.router->lsdb();
  EXPECT_EQ(lsdb.size(), 1u);
  EXPECT_TRUE(lsdb.contains(kMaxNodeId));
  EXPECT_EQ(rig.router->ledger().lsa_out_of_plan, 1u);
  EXPECT_EQ(lsdb.slots().size(), kLsdbIndexSlots);
  EXPECT_EQ(lsdb.index_capacity(), kLsdbIndexSlots);
  EXPECT_EQ(kLsdbIndexSlots * sizeof(std::uint32_t), 256u * 1024u);

  LinkStateDb db;
  EXPECT_THROW(db.insert_or_assign(kMaxNodeId + 1, Lsa{}), std::out_of_range);
  EXPECT_THROW((void)db[kMaxNodeId + 1], std::out_of_range);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.index_capacity(), 0u);
}

// Hostile hello payloads (ROADMAP item 10): valid bundles, truncation at
// every offset, huge neighbour counts, capability counts past the payload,
// repeated keys, unsorted lists, out-of-plan origins and random bytes. The
// router must neither crash nor store anything the LSDB contract forbids,
// and every frame it floods must decode into whole, valid records.
TEST(MeshFloodAdversarial, SeededHostileHelloPayloadsKeepTheLsdbContract) {
  HelloRig rig(3);
  std::mt19937_64 rng(0xD1F0'5EED);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const auto random_record = [&](bool hostile_origin) {
    std::uint32_t origin = static_cast<std::uint32_t>(1 + below(400));
    if (hostile_origin) {
      const std::uint32_t out_of_plan[] = {0, 0x10000, 0x10001, 0xFFFFFFFF,
                                           static_cast<std::uint32_t>(0x10000 + below(1u << 20))};
      origin = out_of_plan[below(5)];
    }
    std::vector<std::uint32_t> neighbors(below(12));
    for (std::uint32_t& n : neighbors) n = static_cast<std::uint32_t>(below(600));
    std::sort(neighbors.begin(), neighbors.end());
    bootstrap::CapabilitySet caps;
    const std::size_t keys = below(8) == 0 ? 255 : below(20);
    while (caps.size() < keys) caps.add(static_cast<core::OpKey>(below(0x10000)));
    return lsa_record(origin, static_cast<std::uint16_t>(below(0x10000)),
                      static_cast<std::uint8_t>(below(6)), neighbors, caps);
  };
  const auto random_bundle = [&](std::size_t max_records) {
    std::vector<PacketBytes> records;
    const std::size_t n = 1 + below(max_records);
    std::size_t size = 0;
    for (std::size_t i = 0; i < n; ++i) {
      PacketBytes r = random_record(below(10) == 0);
      if (size + r.size() > FrameHeader::kMaxPayload) break;
      size += r.size();
      records.push_back(std::move(r));
    }
    return concat(records);
  };

  std::vector<PacketBytes> payloads;
  for (int i = 0; i < 8; ++i) {  // truncation at every offset of a small bundle
    const PacketBytes bundle = random_bundle(3);
    for (std::size_t cut = 0; cut < bundle.size(); ++cut) {
      payloads.emplace_back(bundle.begin(), bundle.begin() + static_cast<std::ptrdiff_t>(cut));
    }
  }
  while (payloads.size() < 10'000) {
    switch (below(7)) {
      case 0: {  // a neighbour count up to 0xFFFF that the bytes cannot back
        PacketBytes p = random_bundle(4);
        const std::uint16_t nnbr = static_cast<std::uint16_t>(below(0x10000));
        p[7] = static_cast<std::uint8_t>(nnbr >> 8);
        p[8] = static_cast<std::uint8_t>(nnbr);
        payloads.push_back(std::move(p));
        break;
      }
      case 1: {  // a capability count running past the payload
        PacketBytes p = random_record(false);
        const std::size_t caps_at = 9 + 4 * std::size_t((p[7] << 8) | p[8]);
        p[caps_at] = static_cast<std::uint8_t>(1 + below(255));
        p.resize(caps_at + 1 + below(2 * std::size_t{p[caps_at]}));
        payloads.push_back(concat({random_record(false), p}));
        break;
      }
      case 2: {  // a repeated capability key, then a valid record
        PacketBytes p = lsa_record(static_cast<std::uint32_t>(1 + below(400)),
                                   static_cast<std::uint16_t>(below(0x10000)), 3);
        const auto key = static_cast<std::uint8_t>(below(256));
        p.back() = 2;
        p.insert(p.end(), {0, key, 0, key});
        payloads.push_back(concat({p, random_record(false)}));
        break;
      }
      case 3: {  // an unsorted neighbour list
        PacketBytes p = lsa_record(static_cast<std::uint32_t>(1 + below(400)),
                                   static_cast<std::uint16_t>(below(0x10000)), 3,
                                   {static_cast<std::uint32_t>(10 + below(100)), 3, 2});
        payloads.push_back(concat({random_record(false), p}));
        break;
      }
      case 4:  // out-of-plan origins among in-plan ones
        payloads.push_back(concat({random_record(true), random_record(false), random_record(true)}));
        break;
      case 5: {  // random bytes
        PacketBytes p(below(600));
        for (std::uint8_t& b : p) b = static_cast<std::uint8_t>(rng());
        payloads.push_back(std::move(p));
        break;
      }
      default:  // concatenated valid records
        payloads.push_back(random_bundle(30));
        break;
    }
  }

  std::size_t flooded_frames = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    rig.send(0, payloads[i]);
    rig.loop.run_until_idle();
    ASSERT_LE(rig.router->lsdb().size(), kMaxNodeId);
    ASSERT_TRUE(rig.received(0).empty()) << "payload " << i;
    for (const std::size_t peer : {1u, 2u}) {
      for (const PacketBytes& frame : rig.received(peer)) {
        ++flooded_frames;
        for (const PacketBytes& record : split_records(frame)) {
          const std::uint32_t origin = be32(record.data());
          EXPECT_GE(origin, 2u) << "payload " << i;
          EXPECT_LE(origin, kMaxNodeId) << "payload " << i;
          EXPECT_GE(record[6], 1) << "payload " << i;
          std::vector<std::uint32_t> neighbors;
          const std::size_t nnbr = (record[7] << 8) | record[8];
          for (std::size_t n = 0; n < nnbr; ++n) neighbors.push_back(be32(record.data() + 9 + 4 * n));
          EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end())) << "payload " << i;
          EXPECT_TRUE(bootstrap::CapabilitySet::parse(std::span(record).subspan(9 + 4 * nnbr)))
              << "payload " << i;
        }
      }
    }
  }

  const LinkStateDb& lsdb = rig.router->lsdb();
  EXPECT_GT(lsdb.size(), 100u) << "the valid records were stored";
  EXPECT_GT(flooded_frames, 100u) << "and flooded";
  EXPECT_GT(rig.router->ledger().lsa_out_of_plan, 0u);
  for (const auto& [origin, lsa] : lsdb) {
    EXPECT_GE(origin, 1u);
    EXPECT_LE(origin, kMaxNodeId);
    EXPECT_LE(lsa.capabilities.size(), bootstrap::CapabilitySet::kMaxKeys);
    EXPECT_TRUE(std::is_sorted(lsa.neighbors.begin(), lsa.neighbors.end())) << origin;
  }
}

// ---- impairment determinism ----------------------------------------------

TEST(MeshImpair, DecisionsAreDeterministicPerSeedAndOrdinal) {
  netsim::FaultPlan plan;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.reorder_rate = 0.25;
  plan.reorder_window = 5 * kMillisecond;

  const auto trace = [&](std::uint64_t seed, std::uint32_t ordinal) {
    LinkImpairer imp(plan, seed, ordinal);
    std::vector<std::tuple<bool, bool, bool, std::uint32_t, std::uint64_t>> t;
    for (int i = 0; i < 256; ++i) {
      PacketBytes pkt(32, static_cast<std::uint8_t>(i));
      const ImpairDecision d = imp.next(/*now_ns=*/0, pkt);
      t.emplace_back(d.blackout, d.drop, d.duplicate, d.corrupt_bytes,
                     d.extra_delay_ns);
    }
    return t;
  };

  const auto a = trace(42, 7);
  const auto b = trace(42, 7);
  const auto c = trace(42, 8);
  const auto d = trace(43, 7);
  EXPECT_EQ(a, b);  // same seed + ordinal: bit-identical decision stream
  EXPECT_NE(a, c);  // sibling half-link draws an independent stream
  EXPECT_NE(a, d);  // different mesh seed
}

// ---- discovery, routing, forwarding ---------------------------------------

TEST(MeshNetForwarding, LineTopologyDeliversEndToEnd) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(3);

  ASSERT_TRUE(net.discover(kSecond));
  EXPECT_TRUE(net.all_discovered());
  // Every router publishes a route per node (self included): 3 x 3.
  EXPECT_EQ(net.recompute_routes(), 9u);
  // Gossip carried capabilities end to end.
  EXPECT_GT(net.router(0).lsdb().at(3).capabilities.size(), 0u);

  std::vector<std::size_t> delivered_at;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) { delivered_at.push_back(node); });

  PacketBytes pkt = probe_packet(/*dst_node=*/3, /*src_node=*/1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], 2u);  // far end of the line

  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.transmitted, 2u);  // two wire hops
  EXPECT_EQ(total.delivered, 2u);
  EXPECT_EQ(total.seq_gaps, 0u);
  EXPECT_EQ(total.imbalance(), 0);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(MeshNetForwarding, HundredNodeTorusDiscoversAndRoutes) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(10, 10);

  ASSERT_TRUE(net.discover(10 * kSecond));
  EXPECT_EQ(net.recompute_routes(), 100u * 100u);

  std::size_t delivered_node = ~std::size_t{0};
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) { delivered_node = node; });
  PacketBytes pkt = probe_packet(/*dst_node=*/100, /*src_node=*/1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  EXPECT_EQ(delivered_node, 99u);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(MeshNetConvergence, LinkFailureReroutesAfterGossip) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(3, 3);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  std::size_t deliveries = 0;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) {
    EXPECT_EQ(node, 1u);
    ++deliveries;
  });

  // Baseline: 1 -> 2 over the direct link.
  PacketBytes pkt = probe_packet(2, 1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(net.aggregate_ledger().transmitted, 1u);

  // Take the link down and flood the failure. Until routes are recomputed
  // the stale FIB still points at the dark face: blackholed, not delivered.
  net.fail_link(0, 1);
  net.loop().run_until_idle();
  PacketBytes stale = probe_packet(2, 1);
  net.router(0).inject(stale, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(net.aggregate_ledger().blackholed, 1u);

  // SPF over the updated LSDBs finds the two-hop detour.
  ASSERT_GT(net.recompute_routes(), 0u);
  PacketBytes rerouted = probe_packet(2, 1);
  net.router(0).inject(rerouted, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 2u);

  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.transmitted, 4u);  // 1 direct + 1 blackholed + 2 detour hops
  EXPECT_EQ(total.imbalance(), 0);
}

TEST(MeshNetConvergence, RecomputePublishesOnlyWhereRoutesChanged) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(3, 3);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_EQ(net.recompute_routes(), 9u * 9u);

  const auto publishes = [&net] {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < net.size(); ++i) {
      out.push_back(net.router(i).journal().stats().snapshots_published);
    }
    return out;
  };
  // Every router's live FIB answer for every node's host address.
  const auto answers = [&net] {
    std::vector<std::vector<std::optional<fib::NextHop>>> out(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
      const fib::Ipv4Lpm* fib = net.router(i).env().control->fib32.read();
      for (std::uint32_t node = 1; node <= net.size(); ++node) {
        out[i].push_back(fib->lookup(addr_of(node)));
      }
    }
    return out;
  };

  const auto before = publishes();
  EXPECT_EQ(net.recompute_routes(), 9u * 9u) << "the routed count is unchanged";
  EXPECT_EQ(publishes(), before) << "an unchanged LSDB must publish nothing";

  const auto routes_before = answers();
  net.fail_link(0, 1);
  net.loop().run_until_idle();
  ASSERT_GT(net.recompute_routes(), 0u);
  const auto after = publishes();
  const auto routes_after = answers();
  std::size_t moved = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const bool changed = routes_after[i] != routes_before[i];
    EXPECT_EQ(after[i] - before[i], changed ? 1u : 0u) << "router " << i;
    if (changed) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, net.size()) << "one failed link must leave some routers' routes alone";
}

TEST(MeshNetErrors, MissingPathCriticalFnNotifiesTheInjectingRouter) {
  // §2.4 over the mesh: router 2 lacks F_MAC, so a DIP-32 + OPT packet from
  // router 1 toward router 3 comes back as an FN-unsupported notification,
  // sent out the ingress face and delivered on router 1's local face (the
  // F_source address is router 1's own /24).
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(3);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);
  net.router(1).env().disabled_keys.insert(core::OpKey::kMac);

  std::vector<std::pair<std::size_t, PacketBytes>> delivered;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t> packet,
                       std::uint64_t) {
    delivered.emplace_back(node, PacketBytes(packet.begin(), packet.end()));
  });

  core::HeaderBuilder b;
  b.add_router_fn(core::OpKey::kMatch32, addr_of(3).bytes);
  b.add_router_fn(core::OpKey::kSource, addr_of(1).bytes);
  std::array<std::uint8_t, 68> opt_block{};
  const std::uint16_t loc = b.add_location(opt_block);
  b.add_fn(core::FnTriple::router(loc + 128, 128, core::OpKey::kParm));
  b.add_fn(core::FnTriple::router(loc, 416, core::OpKey::kMac));
  b.add_fn(core::FnTriple::router(loc + 288, 128, core::OpKey::kMark));
  PacketBytes pkt = b.build()->serialize();
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  ASSERT_EQ(delivered.size(), 1u) << "only the notification arrives anywhere";
  EXPECT_EQ(delivered[0].first, 0u) << "delivered on the injecting router's local face";
  const auto header = core::DipHeader::parse(delivered[0].second);
  ASSERT_TRUE(header.has_value());
  ASSERT_TRUE(security::is_fn_unsupported(*header));
  const auto body = security::FnUnsupportedError::parse(
      std::span<const std::uint8_t>(delivered[0].second).subspan(header->wire_size()));
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->offending_key, core::OpKey::kMac);
  EXPECT_EQ(body->reporter_node, net.router(1).node_id());
  EXPECT_EQ(net.router(1).drops(core::DropReason::kUnsupportedFn), 1u);

  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.transmitted, 2u);  // the packet out, the notification back
  EXPECT_EQ(total.imbalance(), 0);
}

// ---- topology and advertised FNs ------------------------------------------

// A 3x2 torus: its two columns make each row a ring of two, which
// build_torus links once. Every wire face learns its peer (with a second
// face toward one endpoint, the socket handed every frame to the later face
// and the first never learned its peer), no LSA lists a neighbour twice,
// and after a link fails its two routers still reach each other around
// the ring with no route out of the dark face.
TEST(MeshNetTopology, ATwoWideTorusLinksEachPairOnceAndEveryFaceLearnsItsPeer) {
  constexpr std::size_t kNodes = 6;
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(3, 2);
  ASSERT_TRUE(net.discover(kSecond));
  for (std::size_t i = 0; i < kNodes; ++i) {
    MeshRouter& router = net.router(i);
    std::set<FaceId> learned;
    for (std::uint32_t node = 1; node <= kNodes; ++node) {
      if (const auto face = router.face_toward(node)) learned.insert(*face);
    }
    // face_count() includes the router's one local face.
    EXPECT_EQ(learned.size(), router.face_count() - 1) << "router " << i << ": a wire face never learned its peer";
    for (const auto& [origin, lsa] : router.lsdb()) {
      EXPECT_EQ(std::adjacent_find(lsa.neighbors.begin(), lsa.neighbors.end()), lsa.neighbors.end())
          << "router " << i << " origin " << origin;
    }
  }
  ASSERT_EQ(net.recompute_routes(), kNodes * kNodes);

  MeshRouter& r0 = net.router(0);
  MeshRouter& r1 = net.router(1);
  const std::optional<FaceId> dark0 = r0.face_toward(r1.node_id());
  const std::optional<FaceId> dark1 = r1.face_toward(r0.node_id());
  ASSERT_TRUE(dark0.has_value());
  ASSERT_TRUE(dark1.has_value());
  net.fail_link(0, 1);
  net.loop().run_until_idle();
  ASSERT_EQ(net.recompute_routes(), kNodes * kNodes);
  for (const auto& [router, dark] : {std::pair{&r0, *dark0}, std::pair{&r1, *dark1}}) {
    const fib::Ipv4Lpm* fib = router->env().control->fib32.read();
    ASSERT_NE(fib, nullptr);
    for (std::uint32_t node = 1; node <= kNodes; ++node) {
      const auto hop = fib->lookup(addr_of(node));
      ASSERT_TRUE(hop.has_value()) << "router " << router->node_id() << " to " << node;
      EXPECT_NE(*hop, dark) << "router " << router->node_id() << " to " << node;
    }
  }

  std::vector<std::size_t> delivered;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>, std::uint64_t) {
    delivered.push_back(node);
  });
  PacketBytes there = probe_packet(r1.node_id(), r0.node_id());
  r0.inject(there, net.local_face_of(0));
  PacketBytes back = probe_packet(r0.node_id(), r1.node_id());
  r1.inject(back, net.local_face_of(1));
  net.loop().run_until_idle();
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.blackholed, 0u);
  EXPECT_EQ(total.imbalance(), 0);
}

// One socket tells faces apart by the sender's endpoint alone, so a second
// face toward an endpoint is refused and the router keeps the one it has.
TEST(MeshNetTopology, ASecondFaceTowardOneEndpointThrows) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(2);
  MeshRouter& a = net.router(0);
  const std::size_t faces = a.face_count();
  EXPECT_THROW((void)a.add_wire_face(net.router(1).endpoint(), 1000), std::invalid_argument);
  EXPECT_EQ(a.face_count(), faces);
  ASSERT_TRUE(net.discover(kSecond));
  EXPECT_TRUE(a.face_toward(net.router(1).node_id()).has_value());
}

// The gossip exists for §2.3/§2.4 capability queries: each router
// advertises the FNs it runs, its registry's modules minus the keys its env
// disables, and MeshNet::as_graph() answers what survives a path. Node 5
// disables F_MAC before discovery; F_ver is host-side and has no router
// module, and F_hvf is one the default registry installs.
TEST(MeshNetCapabilities, AsGraphCarriesTheFnsEachRouterRuns) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(3, 3);
  net.router(4).env().disabled_keys.insert(core::OpKey::kMac);
  ASSERT_TRUE(net.discover(kSecond));

  const bootstrap::AsGraph graph = net.as_graph();
  ASSERT_EQ(graph.as_count(), 9u);
  for (bootstrap::AsNumber as = 1; as <= 9; ++as) {
    const bootstrap::CapabilitySet* caps = graph.capabilities(as);
    ASSERT_NE(caps, nullptr) << "AS " << as;
    EXPECT_FALSE(caps->supports(core::OpKey::kVer)) << "AS " << as;
    EXPECT_TRUE(caps->supports(core::OpKey::kHvf)) << "AS " << as;
    EXPECT_EQ(caps->supports(core::OpKey::kMac), as != 5) << "AS " << as;
  }

  // 6 -> 8 crosses node 5 (the smallest-id first hop of two); 4 -> 2 goes
  // by way of node 1.
  const std::vector<bootstrap::AsNumber> through = graph.shortest_path(6, 8);
  ASSERT_EQ(through, (std::vector<bootstrap::AsNumber>{6, 5, 8}));
  const auto via5 = graph.path_capabilities(through);
  ASSERT_TRUE(via5.has_value());
  EXPECT_FALSE(via5->supports(core::OpKey::kMac));
  EXPECT_TRUE(via5->supports(core::OpKey::kParm));
  const std::vector<bootstrap::AsNumber> around = graph.shortest_path(4, 2);
  ASSERT_EQ(around, (std::vector<bootstrap::AsNumber>{4, 1, 2}));
  const auto avoiding5 = graph.path_capabilities(around);
  ASSERT_TRUE(avoiding5.has_value());
  EXPECT_TRUE(avoiding5->supports(core::OpKey::kMac));
}

// ---- control helpers ------------------------------------------------------

TEST(MeshControl, AddressPlanAndSymmetricEdgeSpf) {
  EXPECT_EQ(fib::ipv4_to_u32(addr_of(1)), 0x0A000101u);    // 10.0.1.1
  EXPECT_EQ(fib::ipv4_to_u32(addr_of(256)), 0x0A010001u);  // 10.1.0.1
  EXPECT_EQ(prefix_of(1).length, 24);
  EXPECT_EQ(fib::ipv4_to_u32(prefix_of(1).addr), 0x0A000100u);

  // An edge only exists when both endpoints advertise it.
  LinkStateDb asym;
  asym[1] = Lsa{1, {2}, {}};
  asym[2] = Lsa{1, {}, {}};
  EXPECT_TRUE(compute_next_hops(asym, 1).empty());

  LinkStateDb sym;
  sym[1] = Lsa{1, {2}, {}};
  sym[2] = Lsa{1, {1, 3}, {}};
  sym[3] = Lsa{1, {2}, {}};
  const auto hops = compute_next_hops(sym, 1);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], (NextHop{2, 2}));
  EXPECT_EQ(hops[1], (NextHop{3, 2}));  // first hop propagates through the BFS
}

// ---- soak: seeded impairments, conservation, replay ------------------------

struct SoakOutcome {
  WireLedger ledger;
  TrafficStats traffic;
};

[[nodiscard]] SoakOutcome run_soak(std::uint64_t seed) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = seed;
  MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.corrupt_rate = 0.03;
  plan.reorder_rate = 0.10;
  plan.reorder_window = 2 * kMillisecond;
  net.build_torus(3, 3, plan);

  EXPECT_TRUE(net.discover(kSecond));  // gossip is exempt from impairment
  EXPECT_GT(net.recompute_routes(), 0u);

  TrafficConfig tcfg;
  tcfg.flows = 32;
  tcfg.seed = seed;
  tcfg.churn_flows = 4;
  MeshTrafficGen gen(net, tcfg);

  for (int round = 0; round < 15; ++round) {
    EXPECT_EQ(gen.tick(25), 25u);
    net.loop().run_until_idle();
    gen.churn();
    EXPECT_TRUE(net.drain(clock, 100 * kMillisecond));  // flush hold-backs
  }
  EXPECT_TRUE(net.drain(clock, kSecond));
  EXPECT_EQ(net.pending_holdbacks(), 0u);
  return {net.aggregate_ledger(), gen.stats()};
}

TEST(MeshSoak, ConservationLedgerHoldsExactlyUnderImpairments) {
  const SoakOutcome out = run_soak(/*seed=*/1234);

  // Every fault class actually fired.
  EXPECT_GT(out.ledger.lost, 0u);
  EXPECT_GT(out.ledger.duplicated, 0u);
  EXPECT_GT(out.ledger.corrupted, 0u);
  EXPECT_GT(out.ledger.seq_gaps, 0u);  // loss/dup/reorder visible on the wire

  // The equation is exact, not approximate: after the mesh quiesces,
  //   transmitted + duplicated == delivered + lost + blackholed + dropped.
  EXPECT_EQ(out.ledger.imbalance(), 0);

  EXPECT_EQ(out.traffic.sent, 15u * 25u);
  EXPECT_GT(out.traffic.received, 0u);
  EXPECT_GT(out.traffic.flows_churned, 0u);
  // Wire duplication can deliver one probe more than once, so `received`
  // may exceed `sent` — but never by more than the duplicated copies.
  EXPECT_LE(out.traffic.received, out.traffic.sent + out.ledger.duplicated);
}

TEST(MeshSoak, SameSeedReplaysBitIdentically) {
  const SoakOutcome a = run_soak(/*seed=*/77);
  const SoakOutcome b = run_soak(/*seed=*/77);

  EXPECT_EQ(a.ledger.transmitted, b.ledger.transmitted);
  EXPECT_EQ(a.ledger.duplicated, b.ledger.duplicated);
  EXPECT_EQ(a.ledger.delivered, b.ledger.delivered);
  EXPECT_EQ(a.ledger.lost, b.ledger.lost);
  EXPECT_EQ(a.ledger.blackholed, b.ledger.blackholed);
  EXPECT_EQ(a.ledger.dropped, b.ledger.dropped);
  EXPECT_EQ(a.ledger.corrupted, b.ledger.corrupted);
  EXPECT_EQ(a.ledger.seq_gaps, b.ledger.seq_gaps);
  EXPECT_EQ(a.traffic.sent, b.traffic.sent);
  EXPECT_EQ(a.traffic.received, b.traffic.received);
  EXPECT_EQ(a.traffic.latency_sum_ns, b.traffic.latency_sum_ns);
  EXPECT_EQ(a.traffic.latency_max_ns, b.traffic.latency_max_ns);
}

TEST(MeshSoak, StatsExpositionCoversMeshSeries) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(2);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);
  PacketBytes pkt = probe_packet(2, 1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  telemetry::StatsWriter w;
  net.write_stats(w);
  net.router(0).write_stats(w);
  const std::string& text = w.text();
  EXPECT_NE(text.find("dip_mesh_transmitted_total"), std::string::npos);
  EXPECT_NE(text.find("dip_mesh_delivered_total"), std::string::npos);
  EXPECT_NE(text.find("dip_mesh_loop_wakeups_total"), std::string::npos);
  EXPECT_NE(text.find("node=\"1\""), std::string::npos);
}

// ---- NDN recovery through loss --------------------------------------------

TEST(MeshNdn, InterestRetransmissionRecoversThroughSeededLoss) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = 99;
  MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = 0.45;  // heavy seeded loss on both half-links
  net.build_line(2, plan);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  // Producer: node 2 caches the named payload; F_FIB answers interests from
  // the content store (paper footnote 2) back out the ingress face.
  const std::uint32_t name_code = fib::ipv4_to_u32(addr_of(2));
  const PacketBytes content{0xCA, 0xFE, 0xF0, 0x0D};
  net.router(1).env().content_store.emplace(16);
  net.router(1).env().content_store->insert(name_code, content);

  bool got_data = false;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t> packet,
                       std::uint64_t) {
    if (node != 0 || packet.size() < content.size()) return;
    got_data = std::equal(content.begin(), content.end(),
                          packet.end() - static_cast<std::ptrdiff_t>(content.size()));
  });

  // Consumer: retransmit the interest until the data arrives. Each retry
  // advances past the PIT entry lifetime so the retransmission is a fresh
  // interest, not a same-face duplicate the PIT would aggregate away.
  int attempts = 0;
  for (; attempts < 20 && !got_data; ++attempts) {
    const auto header = ndn::make_interest_header32(name_code);
    ASSERT_TRUE(header.has_value());
    PacketBytes interest = header->serialize();
    net.router(0).inject(interest, net.local_face_of(0));
    net.loop().run_until_idle();
    if (got_data) break;
    clock.advance(5 * kSecond);  // > pit::PitTable entry_lifetime (4 s)
    net.loop().run_until_idle();
  }

  EXPECT_TRUE(got_data);
  const WireLedger total = net.aggregate_ledger();
  EXPECT_GT(total.lost, 0u);  // the loss leg was actually exercised
  EXPECT_EQ(total.imbalance(), 0);
}

// ---- thread-confined routers over real UDP (TSan probe) --------------------

TEST(MeshThreaded, RoutersExchangeOverRealUdpFromSeparateThreads) {
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  auto sock_a = std::make_unique<UdpSocket>();
  auto sock_b = std::make_unique<UdpSocket>();
  const Endpoint ep_a = sock_a->local_endpoint();
  const Endpoint ep_b = sock_b->local_endpoint();
  ASSERT_NE(ep_a.port, 0);
  ASSERT_NE(ep_b.port, 0);

  constexpr std::uint64_t kPackets = 50;
  std::atomic<std::uint64_t> delivered{0};

  // Receiver: its router, loop, and socket live entirely on this thread;
  // the only cross-thread channels are UDP datagrams and the atomic.
  std::thread receiver([&, sock = std::move(sock_b)]() mutable {
    MeshEventLoop loop;
    MeshRouter::Config cfg;
    cfg.node_id = 2;
    MeshRouter router(cfg, loop, std::move(sock), registry);
    (void)router.add_wire_face(ep_a, 1);
    const FaceId local = router.add_local_face(
        [&](std::span<const std::uint8_t>, std::uint64_t) {
          if (delivered.fetch_add(1) + 1 == kPackets) loop.stop();
        });
    router.journal().add_route32(fib::Prefix<32>{}, local);
    router.journal().flush();
    (void)loop.run(loop.now_ns() + 10 * kSecond);
  });

  std::thread sender([&, sock = std::move(sock_a)]() mutable {
    MeshEventLoop loop;
    MeshRouter::Config cfg;
    cfg.node_id = 1;
    MeshRouter router(cfg, loop, std::move(sock), registry);
    const FaceId wire = router.add_wire_face(ep_b, 0);
    const FaceId local = router.add_local_face({});
    router.journal().add_route32(fib::Prefix<32>{}, wire);
    router.journal().flush();
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      PacketBytes pkt = probe_packet(2, 1);
      router.inject(pkt, local);
    }
    EXPECT_EQ(router.ledger().transmitted, kPackets);
    EXPECT_EQ(router.ledger().dropped, 0u);
  });

  sender.join();
  receiver.join();
  EXPECT_EQ(delivered.load(), kPackets);
}

}  // namespace
}  // namespace dip::mesh
