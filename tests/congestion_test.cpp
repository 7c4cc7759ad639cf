// Finite link queues: tail drop under bursts, conservation with the new
// drop class, and the NetFence control loop driven by *real* queue
// pressure rather than a synthetic monitor.
#include <gtest/gtest.h>

#include "dip/netfence/netfence.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/netsim/traffic.hpp"

namespace dip::netsim {
namespace {

struct Sink final : Node {
  void on_packet(FaceId, PacketBytes, SimTime) override { ++received; }
  std::uint64_t received = 0;
};

struct Pipe {
  explicit Pipe(LinkParams params, std::uint64_t seed = 1) : net(seed) {
    net.add_node(sender);
    net.add_node(sink);
    std::tie(sender_face, sink_face) = net.connect(sender, sink, params);
  }
  Network net;
  HostNode sender;
  Sink sink;
  FaceId sender_face = 0;
  FaceId sink_face = 0;
};

TEST(FiniteQueue, BurstBeyondBufferTailDrops) {
  LinkParams slow;
  slow.bandwidth_bps = 8'000'000;        // 1 byte/us
  slow.latency = 0;
  slow.max_queue_delay = 1 * kMillisecond;  // buffer holds ~1000 B
  Pipe pipe(slow);

  // 100 x 100 B back to back = 10 ms of serialization against a 1 ms buffer.
  for (int i = 0; i < 100; ++i) {
    pipe.net.send(pipe.sender, pipe.sender_face, PacketBytes(100));
  }
  pipe.net.run();

  const auto& stats = pipe.net.stats();
  EXPECT_GT(stats.dropped, 0u) << "burst must overflow the buffer";
  EXPECT_LT(stats.dropped, 100u) << "but the head of the burst fits";
  EXPECT_EQ(stats.delivered + stats.lost + stats.dropped, stats.transmitted)
      << "conservation with the tail-drop class";
  EXPECT_EQ(pipe.sink.received, stats.delivered);
}

TEST(FiniteQueue, PacedTrafficNeverDrops) {
  LinkParams slow;
  slow.bandwidth_bps = 8'000'000;
  slow.max_queue_delay = 1 * kMillisecond;
  Pipe pipe(slow);

  // CBR at half the link rate: the queue never builds.
  CbrSource::Config config;
  config.rate_bytes_per_sec = 500'000;
  config.packet_size_hint = 100;
  CbrSource source(pipe.sender, pipe.sender_face,
                   [] { return PacketBytes(100); }, config);
  source.start(100 * kMillisecond);
  pipe.net.run();

  EXPECT_EQ(pipe.net.stats().dropped, 0u);
  EXPECT_EQ(pipe.sink.received, source.packets_sent());
}

TEST(FiniteQueue, ZeroMeansInfinite) {
  LinkParams slow;
  slow.bandwidth_bps = 8'000'000;
  slow.max_queue_delay = 0;  // default: infinite buffer
  Pipe pipe(slow);
  for (int i = 0; i < 1000; ++i) {
    pipe.net.send(pipe.sender, pipe.sender_face, PacketBytes(100));
  }
  pipe.net.run();
  EXPECT_EQ(pipe.net.stats().dropped, 0u);
  EXPECT_EQ(pipe.sink.received, 1000u);
}

// End-to-end NetFence over a genuinely congested link: the AIMD sender's
// goodput converges near the bottleneck rate while an open-loop sender at
// the same offered load loses a large fraction to tail drops.
TEST(FiniteQueue, AimdBeatsOpenLoopGoodputUnderRealQueue) {
  const crypto::Block as_key = crypto::Xoshiro256(0xC0FE).block();
  constexpr std::uint64_t kBottleneck = 100'000;  // bytes/sec
  constexpr std::size_t kPacket = 500;

  struct Outcome {
    double goodput = 0;
    double drop_ratio = 0;
  };
  auto run_sender = [&](bool aimd) -> Outcome {
    // Topology: sender -- (fat link) -- router -- (thin link w/ queue) -- sink.
    auto registry = std::make_shared<core::OpRegistry>();
    netfence::CongestionMonitor::Config monitor;
    monitor.capacity_bytes_per_sec = kBottleneck;
    monitor.window = 5 * kMillisecond;
    registry->add(std::make_unique<netfence::CcOp>(as_key, monitor));

    Network net(9);
    HostNode sender;
    Sink sink;
    auto env = make_basic_env(1);
    DipRouterNode router(std::move(env), registry);
    net.add_node(sender);
    net.add_node(router);
    net.add_node(sink);
    const auto [sf, rf_in] = net.connect(sender, router);
    (void)rf_in;
    LinkParams thin;
    thin.bandwidth_bps = kBottleneck * 8;
    thin.max_queue_delay = 10 * kMillisecond;
    const auto [rf_out, kf] = net.connect(router, sink, thin);
    (void)kf;
    router.env().default_egress = rf_out;

    netfence::AimdSender::Config cfg;
    cfg.initial_rate = 400'000;
    cfg.additive_step = 5'000;
    netfence::AimdSender rate(cfg);
    std::uint32_t open_loop_rate = 400'000;

    // 40 rounds of 10 ms each.
    SimTime deadline = 0;
    for (int round = 0; round < 40; ++round) {
      const std::uint32_t current = aimd ? rate.rate() : open_loop_rate;
      const std::uint64_t packets =
          std::max<std::uint64_t>(1, current / 100 / kPacket);
      std::optional<netfence::CcTag> last_tag;
      for (std::uint64_t p = 0; p < packets; ++p) {
        core::HeaderBuilder b;
        netfence::add_cc_fn(b, as_key);
        auto wire = b.build()->serialize();
        wire.resize(kPacket, 0);
        sender.send(0, std::move(wire));
        deadline += (10 * kMillisecond) / packets;
        net.run(deadline);  // paced: the queue is NOT drained between rounds
      }
      // Feedback: read the tag state off the last packet the router emitted
      // is not observable here; instead the receiver-side echo is modeled by
      // asking the router's CcOp state via a fresh probe packet.
      core::HeaderBuilder probe;
      netfence::add_cc_fn(probe, as_key);
      auto probe_wire = probe.build()->serialize();
      const auto verdict = router.router().process(probe_wire, 0, deadline);
      (void)verdict;
      const auto h = core::DipHeader::parse(probe_wire);
      if (h) last_tag = netfence::verify_cc_tag(h->locations, as_key);
      if (aimd && last_tag) rate.on_feedback(*last_tag);
    }

    net.run();  // drain what is still queued
    const double seconds =
        static_cast<double>(std::max(net.now(), deadline)) / kSecond;
    Outcome out;
    out.goodput = static_cast<double>(sink.received) * kPacket / seconds;
    const auto& stats = net.stats();
    out.drop_ratio = stats.transmitted
                         ? static_cast<double>(stats.dropped) /
                               static_cast<double>(stats.transmitted)
                         : 0.0;
    return out;
  };

  const Outcome aimd_out = run_sender(true);
  const Outcome open_out = run_sender(false);

  // Both goodputs are capped by the bottleneck. The difference is waste:
  // the open-loop sender keeps blasting 4x capacity into tail drops, while
  // the AIMD sender backs off and stops overflowing the buffer.
  EXPECT_LE(aimd_out.goodput, kBottleneck * 1.1);
  EXPECT_LE(open_out.goodput, kBottleneck * 1.1);
  // transmitted counts both links (fat ingress + thin egress), so a 75%
  // thin-link drop rate reads as ~0.375 overall.
  EXPECT_GT(open_out.drop_ratio, 0.3) << "open loop: most packets tail-drop";
  EXPECT_LT(aimd_out.drop_ratio, open_out.drop_ratio / 2)
      << "AIMD at least halves the waste";
  EXPECT_GT(aimd_out.goodput, kBottleneck * 0.2)
      << "AIMD must keep meaningful goodput";
}

}  // namespace
}  // namespace dip::netsim
