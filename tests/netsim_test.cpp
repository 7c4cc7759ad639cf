// Simulator substrate: event ordering, link timing, loss, and topology.
#include <gtest/gtest.h>

#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/event_loop.hpp"
#include "dip/netsim/topology.hpp"

namespace dip::netsim {
namespace {

// ---------- event loop ----------

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
}

TEST(EventLoop, TiesBreakByScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(5, [&] { order.push_back(1); });
  loop.schedule_at(5, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] {
    ++fired;
    loop.schedule_in(10, [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 11u);
}

TEST(EventLoop, DeadlineStopsExecution) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(loop.run(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(50, [&] {
    order.push_back(1);
    loop.schedule_at(10, [&] { order.push_back(2); });  // "in the past"
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 50u);
}

// ---------- network ----------

struct Sink final : Node {
  void on_packet(FaceId face, PacketBytes packet, SimTime now) override {
    arrivals.push_back({face, std::move(packet), now});
  }
  struct Arrival {
    FaceId face;
    PacketBytes packet;
    SimTime at;
  };
  std::vector<Arrival> arrivals;
};

struct Sender final : Node {
  void on_packet(FaceId, PacketBytes, SimTime) override {}
};

TEST(Network, DeliversWithLatencyAndSerialization) {
  Network net;
  Sender a;
  Sink b;
  net.add_node(a);
  net.add_node(b);
  LinkParams params;
  params.latency = 1000;                // 1 us
  params.bandwidth_bps = 8'000'000'000; // 1 byte/ns
  const auto [fa, fb] = net.connect(a, b, params);

  net.send(a, fa, PacketBytes(100, 0xAA));  // 100 ns serialization
  net.run();

  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].face, fb);
  EXPECT_EQ(b.arrivals[0].at, 1100u);
  EXPECT_EQ(b.arrivals[0].packet.size(), 100u);
}

TEST(Network, BackToBackPacketsSerializeInOrder) {
  Network net;
  Sender a;
  Sink b;
  net.add_node(a);
  net.add_node(b);
  LinkParams params;
  params.latency = 0;
  params.bandwidth_bps = 8'000'000'000;
  const auto [fa, fb] = net.connect(a, b, params);

  net.send(a, fa, PacketBytes(100, 1));  // occupies [0,100)
  net.send(a, fa, PacketBytes(100, 2));  // occupies [100,200)
  net.run();

  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].at, 100u);
  EXPECT_EQ(b.arrivals[1].at, 200u);
  EXPECT_EQ(b.arrivals[0].packet[0], 1);
  EXPECT_EQ(b.arrivals[1].packet[0], 2);
}

TEST(Network, LossDropsDeterministically) {
  Network net(/*seed=*/7);
  Sender a;
  Sink b;
  net.add_node(a);
  net.add_node(b);
  LinkParams params;
  params.faults.drop_rate = 0.5;
  const auto [fa, fb] = net.connect(a, b, params);
  (void)fb;

  for (int i = 0; i < 200; ++i) net.send(a, fa, PacketBytes(10));
  net.run();

  const auto& stats = net.stats();
  EXPECT_EQ(stats.transmitted, 200u);
  EXPECT_EQ(stats.delivered + stats.lost, 200u);
  EXPECT_NEAR(static_cast<double>(stats.lost), 100.0, 30.0);
  EXPECT_EQ(b.arrivals.size(), stats.delivered);
}

TEST(Network, UnconnectedFaceCountsDeadSend) {
  Network net;
  Sender a;
  net.add_node(a);
  net.send(a, 0, PacketBytes(10));
  net.run();
  EXPECT_EQ(net.stats().dead_faced, 1u);
  EXPECT_EQ(net.stats().transmitted, 0u);
}

TEST(Network, PeerLookup) {
  Network net;
  Sender a;
  Sink b;
  net.add_node(a);
  net.add_node(b);
  const auto [fa, fb] = net.connect(a, b);
  const auto peer = net.peer_of(a, fa);
  ASSERT_TRUE(peer);
  EXPECT_EQ(peer->first, b.id());
  EXPECT_EQ(peer->second, fb);
  EXPECT_FALSE(net.peer_of(a, 99));
}

TEST(Network, TapSeesEveryDelivery) {
  Network net;
  Sender a;
  Sink b;
  net.add_node(a);
  net.add_node(b);
  const auto [fa, fb] = net.connect(a, b);
  (void)fb;

  int taps = 0;
  net.set_tap([&](NodeId from, NodeId to, FaceId, std::span<const std::uint8_t> data,
                  SimTime) {
    ++taps;
    EXPECT_EQ(from, a.id());
    EXPECT_EQ(to, b.id());
    EXPECT_EQ(data.size(), 3u);
  });
  net.send(a, fa, PacketBytes{1, 2, 3});
  net.run();
  EXPECT_EQ(taps, 1);
}

// ---------- topology builder ----------

TEST(Topology, LinearPathWiring) {
  Network net;
  auto path = make_linear_path(net, 3, make_default_registry(),
                               [](std::size_t i) { return make_basic_env(i); });
  ASSERT_EQ(path->routers.size(), 3u);
  // source <-> r0
  const auto p0 = net.peer_of(path->source, path->source_face);
  ASSERT_TRUE(p0);
  EXPECT_EQ(p0->first, path->routers[0]->id());
  // r_i downstream <-> r_{i+1} upstream
  const auto p1 = net.peer_of(*path->routers[0], path->downstream_face[0]);
  ASSERT_TRUE(p1);
  EXPECT_EQ(p1->first, path->routers[1]->id());
  // r2 downstream <-> destination
  const auto p2 = net.peer_of(*path->routers[2], path->downstream_face[2]);
  ASSERT_TRUE(p2);
  EXPECT_EQ(p2->first, path->destination.id());
  // default egress points downstream
  EXPECT_EQ(path->routers[0]->env().default_egress, path->downstream_face[0]);
}

TEST(Topology, ZeroHopPathConnectsHostsDirectly) {
  Network net;
  auto path = make_linear_path(net, 0, make_default_registry(),
                               [](std::size_t i) { return make_basic_env(i); });
  bool got = false;
  path->destination.set_receiver(
      [&](FaceId, PacketBytes, SimTime) { got = true; });
  path->source.send(path->source_face, PacketBytes{1});
  net.run();
  EXPECT_TRUE(got);
}

TEST(Topology, DefaultRegistryCoversTable1) {
  const auto registry = make_default_registry();
  using core::OpKey;
  for (const auto key :
       {OpKey::kMatch32, OpKey::kMatch128, OpKey::kSource, OpKey::kFib, OpKey::kPit,
        OpKey::kParm, OpKey::kMac, OpKey::kMark, OpKey::kDag, OpKey::kIntent,
        OpKey::kPass, OpKey::kTelemetry, OpKey::kHvf}) {
    EXPECT_TRUE(registry->contains(key)) << core::op_key_name(key);
  }
  EXPECT_FALSE(registry->contains(OpKey::kVer)) << "F_ver is host-side only";
}

}  // namespace
}  // namespace dip::netsim
