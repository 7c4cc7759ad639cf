// Chaos tests: the deterministic fault-injection layer (netsim FaultPlan)
// and the graceful-degradation hooks it exposes — corrupt-quarantine on the
// router, overload shedding at RouterPool ingress, retry/backoff on hosts.
//
// Everything here replays from fixed seeds: a failure reproduces bit for
// bit, including the exact fault schedule (FaultTraceIsDeterministic pins
// that contract; docs/FAULTS.md documents it).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/crypto/random.hpp"
#include "dip/dtn/bundle.hpp"
#include "dip/dtn/node.hpp"
#include "dip/host/host_engine.hpp"
#include "dip/host/ndn_app.hpp"
#include "dip/host/retry.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/impair.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"

namespace dip {
namespace {

using netsim::FaultKind;
using netsim::FaultPlan;
using netsim::LinkParams;

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst) {
  return core::make_dip32_header(fib::ipv4_from_u32(dst),
                                 fib::ipv4_from_u32(0x7F000001))
      ->serialize();
}

/// Two hosts, one faulty link; `count` packets sent one per microsecond.
struct FaultyPair {
  netsim::Network net;
  netsim::HostNode sender;
  netsim::HostNode receiver;
  netsim::FaceId face = 0;

  FaultyPair(std::uint64_t seed, LinkParams link) : net(seed) {
    net.add_node(sender);
    net.add_node(receiver);
    face = net.connect(sender, receiver, link).first;
  }

  void send_burst(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [this, i] {
        sender.send(face, dip32_packet(0x0A000000 + static_cast<std::uint32_t>(i)));
      });
    }
    net.run();
  }
};

LinkParams all_faults_link() {
  LinkParams link;
  link.faults.drop_rate = 0.1;
  link.faults.duplicate_rate = 0.1;
  link.faults.corrupt_rate = 0.1;
  link.faults.reorder_rate = 0.1;
  link.faults.blackout_period = 100 * kMicrosecond;
  link.faults.blackout_duration = 10 * kMicrosecond;
  return link;
}

// ---------- determinism ----------

TEST(Chaos, FaultTraceIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    FaultyPair pair(seed, all_faults_link());
    pair.send_burst(500);
    return std::make_tuple(pair.net.fault_trace(), pair.net.fault_events(),
                           pair.net.stats().delivered, pair.net.stats().lost,
                           pair.net.stats().corrupted, pair.net.stats().duplicated,
                           pair.net.stats().blackholed);
  };
  for (const std::uint64_t seed : {3ull, 17ull, 99ull}) {
    const auto a = run(seed);
    const auto b = run(seed);
    EXPECT_EQ(a, b) << "seed " << seed << " must replay an identical fault trace";
    EXPECT_FALSE(std::get<0>(a).empty());
  }
  // And the seed must actually steer the schedule.
  EXPECT_NE(std::get<0>(run(3)), std::get<0>(run(17)));
}

TEST(Chaos, FaultStreamsArePerLink) {
  // Two links under one network: changing traffic on link A must not change
  // link B's fault schedule (each half-link owns a PRNG stream).
  auto run = [](std::size_t extra_on_a) {
    netsim::Network net(7);
    netsim::HostNode sender, other, receiver;
    net.add_node(sender);
    net.add_node(other);
    net.add_node(receiver);
    LinkParams faulty;
    faulty.faults.drop_rate = 0.3;
    const auto face_a = net.connect(sender, receiver, faulty).first;
    const auto face_b = net.connect(other, receiver, faulty).first;
    for (std::size_t i = 0; i < 200 + extra_on_a; ++i) {
      net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [&, i] {
        sender.send(face_a, dip32_packet(static_cast<std::uint32_t>(i)));
      });
    }
    for (std::size_t i = 0; i < 200; ++i) {
      net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [&, i] {
        other.send(face_b, dip32_packet(static_cast<std::uint32_t>(i)));
      });
    }
    net.run();
    std::vector<netsim::FaultEvent> on_b;
    for (const auto& e : net.fault_trace()) {
      if (e.node == other.id()) on_b.push_back(e);
    }
    return on_b;
  };
  EXPECT_EQ(run(0), run(64))
      << "link B's schedule must be independent of link A's traffic volume";
}

TEST(Chaos, NetsimFaultTraceMatchesMeshImpairerPacketByPacket) {
  // The netsim link and the mesh's LinkImpairer share one fault contract:
  // for the same plan, seed and half-link ordinal they make the same
  // decision for every packet. Replay the netsim send schedule through an
  // impairer and rebuild the FaultEvents it implies.
  constexpr std::uint64_t kSeed = 29;
  constexpr std::size_t kPackets = 600;
  const LinkParams link = all_faults_link();
  FaultyPair pair(kSeed, link);  // the sender's half-link is ordinal 0
  pair.send_burst(kPackets);

  mesh::LinkImpairer impairer(link.faults, kSeed, /*ordinal=*/0);
  std::vector<netsim::FaultEvent> expected;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const SimTime at = static_cast<SimTime>(i) * kMicrosecond;
    std::vector<std::uint8_t> packet =
        dip32_packet(0x0A000000 + static_cast<std::uint32_t>(i));
    const mesh::ImpairDecision d = impairer.next(at, packet);
    const auto event = [&](FaultKind kind, std::uint64_t detail) {
      expected.push_back({kind, pair.sender.id(), pair.face, i, at, detail});
    };
    if (d.blackout) event(FaultKind::kBlackout, 0);
    if (d.drop) event(FaultKind::kDrop, 0);
    if (d.corrupt_bytes != 0) event(FaultKind::kCorrupt, d.corrupt_bytes);
    if (d.duplicate) event(FaultKind::kDuplicate, 0);
    if (d.extra_delay_ns != 0) event(FaultKind::kReorder, d.extra_delay_ns);
  }
  EXPECT_EQ(pair.net.fault_trace(), expected);
  EXPECT_EQ(impairer.packet_index(), kPackets);
}

// ---------- the transport ledger ----------

TEST(Chaos, StatsLedgerBalancesUnderAllFaultKinds) {
  FaultyPair pair(21, all_faults_link());
  pair.send_burst(1000);
  const auto& s = pair.net.stats();
  EXPECT_EQ(s.transmitted, 1000u);
  // Every packet (and every injected duplicate) lands in exactly one
  // terminal bucket.
  EXPECT_EQ(s.transmitted + s.duplicated,
            s.delivered + s.lost + s.blackholed + s.dropped);
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.lost, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.blackholed, 0u);
  EXPECT_LE(s.corrupted, s.delivered);
  EXPECT_EQ(pair.net.fault_events(), pair.net.fault_trace().size());
}

TEST(Chaos, CorruptedThenDroppedCountsOnce) {
  // Regression (PR 3 satellite): a packet that is corrupted and *then* tail
  // dropped at the queue must count once — in dropped, not corrupted.
  LinkParams link;
  link.faults.corrupt_rate = 1.0;
  link.bandwidth_bps = 1'000'000;          // 1 Mb/s: ~160us per packet
  link.max_queue_delay = 200 * kMicrosecond;  // room for ~2 in the queue
  FaultyPair pair(5, link);
  // The whole burst arrives at t=0, so most of it tail-drops.
  for (std::size_t i = 0; i < 50; ++i) {
    pair.net.loop().schedule_at(0, [&pair, i] {
      pair.sender.send(pair.face, dip32_packet(static_cast<std::uint32_t>(i)));
    });
  }
  pair.net.run();
  const auto& s = pair.net.stats();
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.delivered, 0u);
  // corrupt_rate=1: every *delivered* packet is corrupted; queue-dropped
  // ones are not double counted anywhere.
  EXPECT_EQ(s.corrupted, s.delivered);
  EXPECT_EQ(s.transmitted, s.delivered + s.dropped);
}

TEST(Chaos, BlackoutWindowsAreTimeScheduled) {
  // Blackouts are pure functions of simulated time — no PRNG draw — so the
  // blackholed count is exactly predictable from the send times.
  LinkParams link;
  link.faults.blackout_period = 100 * kMicrosecond;
  link.faults.blackout_duration = 25 * kMicrosecond;
  FaultyPair pair(1, link);
  pair.send_burst(400);  // sends at t = 0,1,2,...399 us
  // In every 100us period, sends at offsets 0..24 blackhole: 25 of each 100.
  EXPECT_EQ(pair.net.stats().blackholed, 100u);
  EXPECT_EQ(pair.net.stats().delivered, 300u);
  for (const auto& e : pair.net.fault_trace()) {
    EXPECT_EQ(e.kind, FaultKind::kBlackout);
    EXPECT_LT(e.at % (100 * kMicrosecond), 25 * kMicrosecond);
  }
}

TEST(Chaos, ReorderedAndDuplicatedPacketsAllDeliver) {
  LinkParams link;
  link.faults.reorder_rate = 0.5;
  link.faults.duplicate_rate = 0.25;
  link.faults.reorder_window = 30 * kMicrosecond;
  FaultyPair pair(13, link);
  pair.send_burst(400);
  const auto& s = pair.net.stats();
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_EQ(s.delivered, s.transmitted + s.duplicated);
  EXPECT_EQ(pair.receiver.received(), s.delivered);
  EXPECT_EQ(s.lost + s.blackholed + s.dropped, 0u);
}

TEST(Chaos, NetworkStatsExpositionCarriesFaultKinds) {
  FaultyPair pair(21, all_faults_link());
  pair.send_burst(500);
  telemetry::StatsRegistry page;
  pair.net.register_stats(page);
  const std::string text = page.render();
  EXPECT_NE(text.find("dip_net_transmitted_total 500"), std::string::npos) << text;
  EXPECT_NE(text.find("dip_net_faults_total{kind=\"drop\"}"), std::string::npos);
  EXPECT_NE(text.find("dip_net_faults_total{kind=\"corrupt\"}"), std::string::npos);
  EXPECT_NE(text.find("dip_net_faults_total{kind=\"blackout\"}"), std::string::npos);
  EXPECT_NE(text.find("dip_net_faults_total{kind=\"duplicate\"}"), std::string::npos);
  EXPECT_NE(text.find("dip_net_faults_total{kind=\"reorder\"}"), std::string::npos);
}

// ---------- router-side graceful degradation ----------

TEST(Chaos, LenientRouterQuarantinesCorruptedPackets) {
  // host -- (corrupting link) -- lenient router. Byte damage must end up in
  // the quarantine ledger (counter + drop reason + forced trace records),
  // never as a crash or a silent stall.
  netsim::Network net(31);
  netsim::HostNode sender;
  auto registry = netsim::make_default_registry();
  core::RouterEnv env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 0);
  env.stats = telemetry::make_router_stats();
  netsim::DipRouterNode router(std::move(env), registry);
  router.router().set_validation(core::ValidationMode::kLenient);
  net.add_node(sender);
  net.add_node(router);
  LinkParams link;
  link.faults.corrupt_rate = 0.5;
  link.faults.corrupt_max_bytes = 3;
  const auto face = net.connect(sender, router, link).first;

  for (std::size_t i = 0; i < 400; ++i) {
    net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [&, i] {
      sender.send(face, dip32_packet(0x0A000000 + static_cast<std::uint32_t>(i)));
    });
  }
  net.run();

  const std::uint64_t quarantined = router.env().counters.quarantined.load();
  EXPECT_GT(quarantined, 0u);
  EXPECT_EQ(router.drops(core::DropReason::kCorruptQuarantine), quarantined);
  // Quarantines bypass the sampler: the trace ring saw at least one record
  // per quarantined packet.
  EXPECT_GE(router.env().stats->trace.pushed(), quarantined);
  // The quarantine reason renders in the drop ledger exposition.
  EXPECT_NE(router.dump_stats().find("reason=\"corrupt-quarantine\""),
            std::string::npos);
  // Strict-mode ledger untouched: quarantined packets still count as drops.
  EXPECT_EQ(router.env().counters.processed.load(), 400u);
}

TEST(Chaos, StrictRouterTreatsSameDamageAsMalformed) {
  // Same traffic and faults as above, strict validation: no quarantines,
  // bind failures come back as kMalformed (the historical behaviour).
  netsim::Network net(31);
  netsim::HostNode sender;
  auto registry = netsim::make_default_registry();
  core::RouterEnv env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 0);
  netsim::DipRouterNode router(std::move(env), registry);
  net.add_node(sender);
  net.add_node(router);
  LinkParams link;
  link.faults.corrupt_rate = 0.5;
  const auto face = net.connect(sender, router, link).first;
  for (std::size_t i = 0; i < 400; ++i) {
    net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [&, i] {
      sender.send(face, dip32_packet(0x0A000000 + static_cast<std::uint32_t>(i)));
    });
  }
  net.run();
  EXPECT_EQ(router.env().counters.quarantined.load(), 0u);
  EXPECT_GT(router.drops(core::DropReason::kMalformed), 0u);
  EXPECT_EQ(router.drops(core::DropReason::kCorruptQuarantine), 0u);
}

// ---------- pool overload shedding ----------

TEST(Chaos, PoolShedsDeterministicallyWhenRingIsFull) {
  // One worker, a 2-slot ring, and a completion callback that blocks the
  // worker on the first processed packet: once the worker is parked inside
  // the callback and the ring is full, every further try_submit must shed —
  // deterministically, with a tagged verdict on the dispatcher thread.
  auto registry = netsim::make_default_registry();
  std::mutex m;
  std::condition_variable cv;
  bool worker_blocked = false;
  bool release = false;
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> shed_seen{0};
  const std::thread::id dispatcher = std::this_thread::get_id();
  std::atomic<bool> shed_on_dispatcher{true};

  core::RouterPoolConfig config;
  config.workers = 1;
  config.ring_capacity = 2;  // rounds to exactly 2 slots
  config.max_batch = 1;
  core::RouterPool pool(
      registry.get(),
      [](std::size_t) {
        auto env = netsim::make_basic_env(0);
        env.default_egress = 1;
        return env;
      },
      config,
      [&](std::size_t, core::RouterPool::Item&, core::ProcessResult& result) {
        if (result.reason == core::DropReason::kOverloadShed) {
          ++shed_seen;
          if (std::this_thread::get_id() != dispatcher) shed_on_dispatcher = false;
          return;
        }
        const std::uint64_t n = ++processed;
        if (n == 1) {
          std::unique_lock<std::mutex> lk(m);
          worker_blocked = true;
          cv.notify_all();
          cv.wait(lk, [&] { return release; });
        }
      });

  auto packet = [](std::uint32_t i) { return dip32_packet(i); };
  ASSERT_TRUE(pool.try_submit(packet(0), 0, 0).has_value());
  {
    // Wait until the worker holds packet 0 inside the completion callback;
    // from here on it cannot pop the ring.
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return worker_blocked; });
  }
  ASSERT_TRUE(pool.try_submit(packet(1), 0, 0).has_value());
  ASSERT_TRUE(pool.try_submit(packet(2), 0, 0).has_value());
  // Ring now full (2 slots) and the worker is blocked: these must shed.
  constexpr std::uint64_t kShed = 5;
  for (std::uint32_t i = 0; i < kShed; ++i) {
    EXPECT_FALSE(pool.try_submit(packet(3 + i), 0, 0).has_value());
  }
  EXPECT_EQ(pool.shed_total(), kShed);
  EXPECT_EQ(shed_seen.load(), kShed);
  EXPECT_TRUE(shed_on_dispatcher.load())
      << "shed completions run on the dispatcher thread";
  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  pool.drain();
  pool.stop();
  // Nothing lost, nothing double-processed: the 3 accepted packets all ran.
  EXPECT_EQ(processed.load(), 3u);
  EXPECT_EQ(pool.counters().processed, 3u);
  // The shed ledger renders in the stats page.
  const std::string page = pool.dump_stats();
  EXPECT_NE(page.find("dip_shed_total 5"), std::string::npos) << page;
  EXPECT_NE(page.find("dip_worker_shed_total{worker=\"0\"} 5"), std::string::npos);
}

// ---------- host-side recovery ----------

TEST(Chaos, NdnConsumerSurvivesInjectedLossWithBackoff) {
  netsim::Network net(11);
  auto registry = netsim::make_default_registry();
  LinkParams lossy;
  lossy.faults.drop_rate = 0.2;
  auto path = netsim::make_linear_path(net, 1, registry, [](std::size_t i) {
    return netsim::make_basic_env(static_cast<std::uint32_t>(i));
  }, lossy);
  path->routers[0]->env().default_egress.reset();
  ndn::install_name_route(*path->routers[0]->env().fib32,
                          fib::Name::parse("/chaos"), path->downstream_face[0]);
  // Keep PIT entries shorter than the first retransmit timeout so retries
  // are not suppressed as duplicates.
  pit::Pit::Config pit_config;
  pit_config.entry_lifetime = 5 * kMillisecond;
  path->routers[0]->env().pit = pit::Pit(pit_config);

  host::NdnProducer producer(path->destination, path->destination_face);
  producer.publish(fib::Name::parse("/chaos/x"), {'x'});

  host::RetryPolicy retry;
  retry.initial_timeout = 10 * kMillisecond;
  retry.max_retries = 15;
  retry.backoff = 2.0;
  retry.max_timeout = 200 * kMillisecond;
  host::NdnConsumer consumer(path->source, path->source_face, retry);
  bool got = false;
  bool failed = false;
  consumer.express_interest(
      fib::Name::parse("/chaos/x"),
      [&](const fib::Name&, std::span<const std::uint8_t>) { got = true; },
      [&](const fib::Name&) { failed = true; });
  net.run();

  EXPECT_TRUE(got) << "backoff retries must recover from 20% loss "
                   << "(failed=" << failed << ", retx=" << consumer.retransmissions()
                   << ")";
  EXPECT_GT(consumer.retransmissions(), 0u)
      << "seed 11 must actually drop at least one interest or data packet";
  EXPECT_GT(net.fault_events(), 0u);
}

TEST(Chaos, BackoffStretchesRetryTimeouts) {
  const host::RetryPolicy policy{8, 10 * kMillisecond, 2.0, 300 * kMillisecond};
  EXPECT_EQ(policy.timeout_for(0), 10 * kMillisecond);
  EXPECT_EQ(policy.timeout_for(1), 20 * kMillisecond);
  EXPECT_EQ(policy.timeout_for(3), 80 * kMillisecond);
  EXPECT_EQ(policy.timeout_for(7), 300 * kMillisecond);  // capped
  const host::RetryPolicy fixed{3, 10 * kMillisecond, 1.0, 300 * kMillisecond};
  EXPECT_EQ(fixed.timeout_for(5), 10 * kMillisecond);  // 1.0 = historical fixed
}

TEST(Chaos, OptTrafficSurvivesInjectedLossWithReliableSender) {
  // client -- (lossy link) -- router -- (lossy link) -- server. The client
  // retransmits an OPT-tagged request until the server's HostEngine
  // verifies it and an application reply makes it back.
  netsim::Network net(29);
  auto registry = netsim::make_default_registry();
  netsim::HostNode client, server;
  core::RouterEnv env = netsim::make_basic_env(1);
  const crypto::Block router_secret = env.node_secret;
  // Route the reply (client prefix) upstream; requests ride default_egress.
  netsim::DipRouterNode router(std::move(env), registry);
  net.add_node(client);
  net.add_node(router);
  net.add_node(server);
  LinkParams lossy;
  lossy.faults.drop_rate = 0.25;
  const auto [client_face, router_up] = net.connect(client, router, lossy);
  const auto [router_down, server_face] = net.connect(router, server, lossy);
  router.env().default_egress = router_down;
  router.env().fib32->insert({fib::ipv4_from_u32(0x7F000000), 8}, router_up);

  crypto::Xoshiro256 rng(41);
  const std::vector<crypto::Block> path_secrets{router_secret};
  const auto session = opt::negotiate_session(rng.block(), path_secrets, rng.block());
  const std::vector<std::uint8_t> payload = {'r', 'e', 'q'};

  host::SessionStore sessions;
  sessions.add(session);
  host::HostEngine engine(&sessions);
  std::uint64_t verified = 0;
  server.set_receiver([&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
    if (engine.receive(packet).status != host::DeliveryStatus::kDelivered) return;
    ++verified;
    // Application-level ack back to the client (dst in 127/8 routes upstream).
    server.send(server_face, dip32_packet(0x7F000001));
  });

  host::RetryPolicy policy;
  policy.max_retries = 20;
  policy.initial_timeout = 10 * kMillisecond;
  policy.backoff = 2.0;
  policy.max_timeout = 100 * kMillisecond;
  host::NetsimPort client_port(client, client_face);
  host::ReliableSender sender_driver(client_port, policy);
  constexpr host::ReliableSender::Key kRequest = 1;
  host::ReliableSender::Epoch request_epoch = 0;
  bool acked = false;
  bool gave_up = false;
  client.set_receiver([&](netsim::FaceId, netsim::PacketBytes, SimTime) {
    acked = true;
    sender_driver.acknowledge(kRequest, request_epoch);
  });
  request_epoch = sender_driver.send(
      kRequest,
      [&](std::uint32_t) {
        // Fresh tags per attempt: each traversal rewrites the OPT chain.
        auto wire = opt::make_opt_header(session, payload, 1234)->serialize();
        wire.insert(wire.end(), payload.begin(), payload.end());
        return wire;
      },
      [&] { gave_up = true; });
  net.run();

  EXPECT_TRUE(acked) << "retries must push the OPT request through 25% loss "
                     << "(gave_up=" << gave_up
                     << ", retx=" << sender_driver.retransmissions() << ")";
  EXPECT_GE(verified, 1u) << "the server must OPT-verify at least one attempt";
  EXPECT_GT(sender_driver.retransmissions(), 0u);
  EXPECT_FALSE(sender_driver.pending(kRequest));
}

// ---------- custody recovery vs the conservation ledger ----------

TEST(Chaos, CustodyRecoveryKeepsConservationLedgerBalanced) {
  // Backfill (docs/DTN.md): a packet blackholed during an outage is not
  // resurrected — the custodian re-*sends* it, and each retransmission is a
  // fresh transmit. The conservation identity must therefore hold exactly
  // through a blackout-plus-recovery cycle: recovered bundles appear as new
  // delivered transmits, never as a double count against the blackholed (or
  // any other terminal) bucket.
  netsim::Network net(42);
  netsim::HostNode a, b;
  auto registry = netsim::make_default_registry();
  dtn::add_custody_modules(*registry);
  const crypto::Block key = crypto::Xoshiro256(0xD7A).block();
  auto custody_env = [&key](std::uint32_t node) {
    core::RouterEnv env = netsim::make_basic_env(node);
    env.custody_key = key;
    env.accept_custody = true;
    return env;
  };
  dtn::CustodyRouterNode r1(custody_env(1), registry, {});
  dtn::CustodyRouterNode r2(custody_env(2), registry, {});
  net.add_node(a);
  net.add_node(r1);
  net.add_node(r2);
  net.add_node(b);

  netsim::LinkParams middle;  // dark for the first 2s, lossy afterwards
  middle.faults.blackout_period = 600 * kSecond;
  middle.faults.blackout_duration = 2 * kSecond;
  middle.faults.drop_rate = 0.1;
  const auto fa = net.connect(a, r1).first;
  const auto f12 = net.connect(r1, r2, middle).first;
  const auto [f2b, fb] = net.connect(r2, b);
  r1.env().fib32->insert(mesh::prefix_of(100), f12);
  r2.env().fib32->insert(mesh::prefix_of(100), f2b);

  dtn::BundleSender::Config sc;
  sc.self = mesh::addr_of(99);
  sc.node_id = 99;
  sc.custody_key = key;
  sc.frag_payload = 48;
  host::NetsimPort port_a(a, fa);
  dtn::BundleSender sender(port_a, sc);
  a.set_receiver([&](netsim::FaceId, netsim::PacketBytes p, SimTime) {
    sender.on_packet(p);
  });

  dtn::BundleReceiver::Config bc;
  bc.self = mesh::addr_of(100);
  bc.custody_key = key;
  std::map<std::uint32_t, std::vector<std::uint8_t>> delivered;
  host::NetsimPort port_b(b, fb);
  dtn::BundleReceiver receiver(port_b, bc,
                               [&](std::uint32_t id, std::vector<std::uint8_t> p) {
                                 delivered[id] = std::move(p);
                               });
  b.set_receiver([&](netsim::FaceId, netsim::PacketBytes p, SimTime) {
    receiver.on_packet(p);
  });

  std::vector<std::uint8_t> payload(192);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const std::uint32_t bundle =
      sender.send(mesh::addr_of(100), payload);  // t=0: middle link dark
  net.run();

  // Full recovery through the outage...
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[bundle], payload);
  EXPECT_GT(r1.store().stats().retransmissions, 0u);
  EXPECT_EQ(r1.store().bundles(), 0u);
  EXPECT_EQ(r1.store().stats().evicted, 0u);

  // ...with the transport ledger balanced to the packet: every transmit
  // (original, retransmission, injected duplicate) lands in exactly one
  // terminal bucket, and the blackholed copies stay blackholed.
  const auto& s = net.stats();
  EXPECT_GT(s.blackholed, 0u) << "the blackout must actually eat packets";
  EXPECT_GT(s.lost, 0u) << "the drop_rate must actually eat packets";
  EXPECT_EQ(s.transmitted + s.duplicated,
            s.delivered + s.lost + s.blackholed + s.dropped);
  EXPECT_GT(s.transmitted, s.delivered)
      << "recovery happens by fresh transmits, not resurrected ones";
}

}  // namespace
}  // namespace dip
