// Host-side engine: session store, F_ver execution on received packets,
// telemetry readout, and the NDN consumer/producer application endpoints.
#include <string>

#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/host/host_engine.hpp"
#include "dip/host/ndn_app.hpp"
#include "dip/host/retry.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/telemetry/telemetry.hpp"

namespace dip::host {
namespace {

using core::OpKey;

std::shared_ptr<core::OpRegistry> registry() {
  static auto r = netsim::make_default_registry();
  return r;
}

// ---------- session store ----------

TEST(SessionStore, AddFindRemove) {
  SessionStore store;
  crypto::Xoshiro256 rng(1);
  opt::Session s;
  s.id = rng.block();
  store.add(s);

  ASSERT_NE(store.find(s.id), nullptr);
  EXPECT_EQ(store.find(s.id)->id, s.id);
  EXPECT_EQ(store.find(rng.block()), nullptr);
  EXPECT_TRUE(store.remove(s.id));
  EXPECT_FALSE(store.remove(s.id));
  EXPECT_EQ(store.size(), 0u);
}

// ---------- host engine ----------

struct HostEngineFixture : ::testing::Test {
  HostEngineFixture() {
    crypto::Xoshiro256 rng(9);
    for (int i = 0; i < 2; ++i) {
      auto env = netsim::make_basic_env(i);
      env.default_egress = 1;
      secrets.push_back(env.node_secret);
      routers.emplace_back(std::move(env), registry().get());
    }
    session = opt::negotiate_session(rng.block(), secrets, rng.block());
    sessions.add(session);
  }

  std::vector<std::uint8_t> traversed_opt_packet(
      std::span<const std::uint8_t> payload) {
    const auto h = opt::make_opt_header(session, payload, 1000);
    auto packet = h->serialize();
    packet.insert(packet.end(), payload.begin(), payload.end());
    for (auto& r : routers) (void)r.process(packet, 0, 0);
    return packet;
  }

  std::vector<crypto::Block> secrets;
  std::vector<core::Router> routers;
  opt::Session session;
  SessionStore sessions;
};

TEST_F(HostEngineFixture, DeliversVerifiedOptPacket) {
  const std::vector<std::uint8_t> payload = {'o', 'k'};
  const auto packet = traversed_opt_packet(payload);

  HostEngine engine(&sessions);
  const Delivery d = engine.receive(packet);
  EXPECT_EQ(d.status, DeliveryStatus::kDelivered);
  ASSERT_TRUE(d.verify_result.has_value());
  EXPECT_EQ(*d.verify_result, opt::VerifyResult::kOk);
  EXPECT_TRUE(std::ranges::equal(d.payload, payload));
}

TEST_F(HostEngineFixture, RejectsTamperedPayload) {
  const std::vector<std::uint8_t> payload = {'o', 'k'};
  auto packet = traversed_opt_packet(payload);
  packet.back() ^= 1;

  HostEngine engine(&sessions);
  const Delivery d = engine.receive(packet);
  EXPECT_EQ(d.status, DeliveryStatus::kVerifyFailed);
  EXPECT_EQ(*d.verify_result, opt::VerifyResult::kBadDataHash);
}

TEST_F(HostEngineFixture, UnknownSessionReported) {
  const std::vector<std::uint8_t> payload = {'o', 'k'};
  const auto packet = traversed_opt_packet(payload);

  SessionStore empty;
  HostEngine engine(&empty);
  EXPECT_EQ(engine.receive(packet).status, DeliveryStatus::kUnknownSession);

  HostEngine no_store(nullptr);
  EXPECT_EQ(no_store.receive(packet).status, DeliveryStatus::kUnknownSession);
}

TEST_F(HostEngineFixture, FreshnessWindowEnforced) {
  const std::vector<std::uint8_t> payload = {'o', 'k'};
  const auto packet = traversed_opt_packet(payload);  // timestamp 1000

  HostEngine engine(&sessions);
  engine.set_freshness(/*now=*/1200, /*window=*/100);
  EXPECT_EQ(engine.receive(packet).status, DeliveryStatus::kVerifyFailed);
  engine.set_freshness(1050, 100);
  EXPECT_EQ(engine.receive(packet).status, DeliveryStatus::kDelivered);
}

TEST(ReliableSender, DuplicateAckFromEarlierEpochCannotCancelNewerSend) {
  // Regression: chaos links duplicate ACKs, and a late copy of an old ACK
  // used to cancel whatever newer request was in flight (acknowledge()
  // cleared pending_ unconditionally). Acknowledgement is now deduped by
  // the epoch token send() returns.
  netsim::Network net(7);
  netsim::HostNode client, server;
  net.add_node(client);
  net.add_node(server);
  const auto [client_face, server_face] = net.connect(client, server);
  (void)server_face;

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_timeout = 10 * kMillisecond;
  NetsimPort port(client, client_face);
  ReliableSender sender(port, policy);
  constexpr ReliableSender::Key kKey = 1;

  const auto first =
      sender.send(kKey, [](std::uint32_t) { return netsim::PacketBytes{'A'}; });
  EXPECT_TRUE(sender.pending(kKey));
  EXPECT_TRUE(sender.acknowledge(kKey, first));   // the genuine ACK retires it
  EXPECT_FALSE(sender.pending(kKey));
  EXPECT_FALSE(sender.acknowledge(kKey, first));  // a duplicate of it is a no-op

  bool second_failed = false;
  const auto second =
      sender.send(kKey, [](std::uint32_t) { return netsim::PacketBytes{'B'}; },
                  [&] { second_failed = true; });
  EXPECT_NE(first, second);
  // A link-duplicated copy of the first ACK lands after the sender moved
  // on; it must not cancel the in-flight second request.
  EXPECT_FALSE(sender.acknowledge(kKey, first));
  EXPECT_TRUE(sender.pending(kKey));

  // The second request's retransmission schedule survived the stale ACK:
  // unacknowledged, it retries to budget exhaustion and reports failure.
  net.run();
  EXPECT_EQ(sender.retransmissions(), 2u);
  EXPECT_TRUE(second_failed);
  EXPECT_FALSE(sender.pending(kKey));

  // A fresh epoch still acknowledges normally.
  const auto third =
      sender.send(kKey, [](std::uint32_t) { return netsim::PacketBytes{'C'}; });
  EXPECT_TRUE(sender.acknowledge(kKey, third));
  EXPECT_FALSE(sender.pending(kKey));
}

TEST(ReliableSender, KeyedRequestsRetireIndependently) {
  // One sender, many requests: each key has its own attempts, timer and
  // epoch, and its state goes on its ACK or its last retry.
  netsim::Network net(7);
  netsim::HostNode client, server;
  net.add_node(client);
  net.add_node(server);
  const auto [client_face, server_face] = net.connect(client, server);
  (void)server_face;
  std::string heard;  // every packet the server hears, one letter each
  server.set_receiver([&](netsim::FaceId, netsim::PacketBytes p, SimTime) {
    heard.push_back(static_cast<char>(p.at(0)));
  });

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_timeout = 10 * kMillisecond;
  NetsimPort port(client, client_face);
  ReliableSender sender(port, policy);
  const auto packet = [](char letter) {
    return [letter](std::uint32_t) { return netsim::PacketBytes{static_cast<std::uint8_t>(letter)}; };
  };

  // Two requests in flight; ACKing one leaves the other retransmitting.
  bool a_failed = false, b_failed = false;
  const auto a = sender.send(1, packet('A'), [&] { a_failed = true; });
  const auto b = sender.send(2, packet('B'), [&] { b_failed = true; });
  EXPECT_NE(a, b);
  EXPECT_EQ(sender.in_flight(), 2u);
  EXPECT_FALSE(sender.acknowledge(1, b)) << "another key's epoch retires nothing";
  EXPECT_TRUE(sender.acknowledge(1, a));
  EXPECT_FALSE(sender.pending(1));
  EXPECT_TRUE(sender.pending(2));
  net.run();
  EXPECT_EQ(heard, "ABBB");  // A once; B, then its two retransmissions
  EXPECT_EQ(sender.retransmissions(), 2u);
  EXPECT_FALSE(a_failed);
  EXPECT_TRUE(b_failed);
  EXPECT_FALSE(sender.pending(2)) << "no state after the last retry";
  EXPECT_EQ(sender.in_flight(), 0u);

  // A newer send of a key supersedes the older one: the stale epoch cannot
  // cancel it, and the superseded request neither retransmits nor fails.
  heard.clear();
  bool c_failed = false;
  const auto c = sender.send(3, packet('C'), [&] { c_failed = true; });
  const auto d = sender.send(3, packet('D'));
  EXPECT_EQ(sender.in_flight(), 1u);
  EXPECT_FALSE(sender.acknowledge(3, c));
  EXPECT_TRUE(sender.pending(3));
  EXPECT_TRUE(sender.acknowledge(3, d));
  EXPECT_FALSE(sender.pending(3)) << "no state after the ACK";
  net.run();
  EXPECT_EQ(heard, "CD");
  EXPECT_EQ(sender.retransmissions(), 2u);
  EXPECT_FALSE(c_failed);
}

TEST(HostEngine, PlainPacketDeliversWithoutVerification) {
  const auto h = core::make_dip32_header(fib::ipv4_from_u32(1), fib::ipv4_from_u32(2));
  auto packet = h->serialize();
  packet.push_back(0x42);

  HostEngine engine;
  const Delivery d = engine.receive(packet);
  EXPECT_EQ(d.status, DeliveryStatus::kDelivered);
  EXPECT_FALSE(d.verify_result.has_value());
  EXPECT_EQ(d.payload.size(), 1u);
}

TEST(HostEngine, GarbageIsMalformed) {
  HostEngine engine;
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  EXPECT_EQ(engine.receive(junk).status, DeliveryStatus::kMalformed);
}

TEST(HostEngine, ReadsTelemetryOnArrival) {
  core::HeaderBuilder b;
  telemetry::add_telemetry_fn(b, 4);
  auto packet = b.build()->serialize();

  // Run through two routers so records accumulate.
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto env = netsim::make_basic_env(i + 5);
    env.default_egress = 1;
    core::Router router(std::move(env), registry().get());
    (void)router.process(packet, 0, 1000 * (i + 1));
  }

  HostEngine engine;
  const Delivery d = engine.receive(packet);
  EXPECT_EQ(d.status, DeliveryStatus::kDelivered);
  ASSERT_TRUE(d.telemetry.has_value());
  ASSERT_EQ(d.telemetry->hops.size(), 2u);
  EXPECT_EQ(d.telemetry->hops[0].node_id, 5);
  EXPECT_EQ(d.telemetry->hops[1].node_id, 6);
}

// ---------- NDN consumer/producer over the simulator ----------

struct NdnAppFixture : ::testing::Test {
  NdnAppFixture() {
    path = netsim::make_linear_path(net, 2, registry(), [](std::size_t i) {
      return netsim::make_basic_env(static_cast<std::uint32_t>(i));
    });
    for (std::size_t i = 0; i < 2; ++i) {
      auto& env = path->routers[i]->env();
      env.default_egress.reset();
      ndn::install_name_route(*env.fib32, fib::Name::parse("/app"),
                              path->downstream_face[i]);
    }
  }

  netsim::Network net;
  std::unique_ptr<netsim::LinearPath> path;
};

TEST_F(NdnAppFixture, ConsumerGetsPublishedContent) {
  NdnProducer producer(path->destination, path->destination_face);
  producer.publish(fib::Name::parse("/app/movie"), {'m', 'p', '4'});

  NdnConsumer consumer(path->source, path->source_face);
  std::vector<std::uint8_t> got;
  consumer.express_interest(
      fib::Name::parse("/app/movie"),
      [&](const fib::Name&, std::span<const std::uint8_t> payload) {
        got.assign(payload.begin(), payload.end());
      });
  net.run();

  EXPECT_EQ(got, (std::vector<std::uint8_t>{'m', 'p', '4'}));
  EXPECT_EQ(producer.interests_served(), 1u);
  EXPECT_EQ(consumer.pending(), 0u);
  EXPECT_EQ(consumer.retransmissions(), 0u);
}

TEST_F(NdnAppFixture, ConsumerRetransmitsThroughLoss) {
  // Rebuild the path with a lossy first link.
  netsim::Network lossy_net(/*seed=*/3);
  netsim::LinkParams lossy;
  lossy.faults.drop_rate = 0.5;
  auto lossy_path =
      netsim::make_linear_path(lossy_net, 1, registry(), [](std::size_t i) {
        return netsim::make_basic_env(static_cast<std::uint32_t>(i));
      }, lossy);
  lossy_path->routers[0]->env().default_egress.reset();
  ndn::install_name_route(*lossy_path->routers[0]->env().fib32,
                          fib::Name::parse("/app"),
                          lossy_path->downstream_face[0]);
  // Retransmissions must not be PIT-suppressed as duplicates: keep the PIT
  // entry lifetime below the consumer's retransmit timer (real NDN uses
  // nonces for this; our 32-bit prototype names have no nonce field).
  pit::Pit::Config pit_config;
  pit_config.entry_lifetime = 50 * kMillisecond;
  lossy_path->routers[0]->env().pit = pit::Pit(pit_config);

  NdnProducer producer(lossy_path->destination, lossy_path->destination_face);
  producer.publish(fib::Name::parse("/app/x"), {'x'});

  RetryPolicy retry = NdnConsumer::kDefaultRetry;
  retry.max_retries = 60;
  NdnConsumer consumer(lossy_path->source, lossy_path->source_face, retry);
  bool got = false;
  bool failed = false;
  consumer.express_interest(
      fib::Name::parse("/app/x"),
      [&](const fib::Name&, std::span<const std::uint8_t>) { got = true; },
      [&](const fib::Name&) { failed = true; });
  lossy_net.run();

  EXPECT_TRUE(got || failed) << "must terminate either way";
  EXPECT_TRUE(got) << "60 retries through 50% loss: delivery overwhelmingly likely";
}

TEST_F(NdnAppFixture, ConsumerFailureAfterRetriesExhausted) {
  // No producer: interests die upstream (no route at last router).
  RetryPolicy retry = NdnConsumer::kDefaultRetry;
  retry.max_retries = 2;
  retry.initial_timeout = 10 * kMillisecond;
  NdnConsumer consumer(path->source, path->source_face, retry);

  bool failed = false;
  consumer.express_interest(
      fib::Name::parse("/nowhere/y"),
      [](const fib::Name&, std::span<const std::uint8_t>) { FAIL(); },
      [&](const fib::Name&) { failed = true; });
  net.run();

  EXPECT_TRUE(failed);
  EXPECT_EQ(consumer.retransmissions(), 2u);
  EXPECT_EQ(consumer.pending(), 0u);
}

TEST_F(NdnAppFixture, ProducerSignsWithOptAndConsumerHostVerifies) {
  // Producer signs NDN+OPT; consumer verifies via HostEngine.
  std::vector<crypto::Block> data_path_secrets{
      path->routers[1]->env().node_secret, path->routers[0]->env().node_secret};
  crypto::Xoshiro256 rng(4);
  const auto session =
      opt::negotiate_session(rng.block(), data_path_secrets, rng.block());

  NdnProducer::Options options;
  options.opt_session = session;
  options.opt_timestamp = 777;
  NdnProducer producer(path->destination, path->destination_face, options);
  producer.publish(fib::Name::parse("/app/secure"), {'s'});

  SessionStore sessions;
  sessions.add(session);
  HostEngine engine(&sessions);

  std::optional<DeliveryStatus> status;
  path->source.set_receiver([&](netsim::FaceId, netsim::PacketBytes packet, SimTime) {
    status = engine.receive(packet).status;
  });
  path->source.send(path->source_face,
                    ndn::make_interest_header(fib::Name::parse("/app/secure"))
                        ->serialize());
  net.run();

  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, DeliveryStatus::kDelivered);
}

TEST_F(NdnAppFixture, UnknownContentCountsAsUnknown) {
  NdnProducer producer(path->destination, path->destination_face);
  path->source.send(path->source_face,
                    ndn::make_interest_header(fib::Name::parse("/app/ghost"))
                        ->serialize());
  net.run();
  EXPECT_EQ(producer.interests_unknown(), 1u);
  EXPECT_EQ(producer.interests_served(), 0u);
}

}  // namespace
}  // namespace dip::host
