// Fast-path pipeline tests: SpscRing, FlowCache, process_batch vs process
// equivalence (property-style), parallel-bit relaxation, and RouterPool
// sharding. The equivalence suite is the safety net for every fast-path
// shortcut: cache on vs off and any burst grouping must be observationally
// identical to the seed single-packet path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <vector>

#include "dip/core/builder.hpp"
#include "dip/core/flow_cache.hpp"
#include "dip/core/ip.hpp"
#include "dip/core/ring.hpp"
#include "dip/core/router.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/fib/synth.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/qos/dps.hpp"
#include "dip/telemetry/counters.hpp"
#include "dip/telemetry/stats.hpp"
#include "dip/xia/xia.hpp"

namespace dip::core {
namespace {

std::shared_ptr<OpRegistry> registry() {
  static std::shared_ptr<OpRegistry> r = netsim::make_default_registry();
  return r;
}

RouterEnv routed_env(bool with_cache = true) {
  RouterEnv env = netsim::make_basic_env(1);
  if (!with_cache) env.flow_cache.reset();
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  env.fib32->insert({fib::ipv4_from_u32(0x0A010000), 16}, 2);
  env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32}, 9);
  return env;
}

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst, std::uint8_t hops = 64,
                                       bool parallel = false) {
  auto h = make_dip32_header(fib::ipv4_from_u32(dst), fib::ipv4_from_u32(0xC0A80001),
                             NextHeader::kNone, hops);
  h->basic.parallel = parallel;
  return h->serialize();
}

std::vector<std::uint8_t> dip128_packet(const char* dst) {
  const auto h = make_dip128_header(fib::parse_ipv6(dst).value(),
                                    fib::parse_ipv6("2001:db8::1").value());
  return h->serialize();
}

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, FifoOrderAcrossWrap) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ring.try_push(round * 2));
    ASSERT_TRUE(ring.try_push(round * 2 + 1));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, round * 2);
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, round * 2 + 1);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, RejectsWhenFull) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(3));  // slot freed
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SpscRing, PopBulkDrainsUpToRequest) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  std::vector<int> out(4);
  EXPECT_EQ(ring.pop_bulk(out), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.pop_bulk(out), 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(ring.pop_bulk(out), 0u);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
}

// --------------------------------------------------------------- FlowCache

TEST(FlowCache, FindsInsertedVerdictUnderSameGeneration) {
  FlowCache cache(64);
  const std::array<std::uint8_t, 4> key{10, 0, 0, 1};
  EXPECT_EQ(cache.find(key, 1), nullptr);
  cache.insert(key, 1, {42, false});
  const auto* v = cache.find(key, 1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->egress, 42u);
  EXPECT_FALSE(v->no_route);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(FlowCache, StaleGenerationIsAMissAndErases) {
  FlowCache cache(64);
  const std::array<std::uint8_t, 4> key{10, 0, 0, 1};
  cache.insert(key, 1, {42, false});
  EXPECT_EQ(cache.find(key, 2), nullptr);  // FIB changed: stale
  EXPECT_EQ(cache.entries(), 0u);          // erased on probe
  cache.insert(key, 2, {43, false});
  ASSERT_NE(cache.find(key, 2), nullptr);
  EXPECT_EQ(cache.find(key, 2)->egress, 43u);
}

TEST(FlowCache, CachesNegativeVerdicts) {
  FlowCache cache(64);
  const std::array<std::uint8_t, 4> key{11, 0, 0, 1};
  cache.insert(key, 1, {0, true});
  const auto* v = cache.find(key, 1);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->no_route);
}

TEST(FlowCache, DifferentWidthKeysNeverAlias) {
  FlowCache cache(64);
  std::array<std::uint8_t, 16> wide{};
  wide[0] = 10;
  wide[3] = 1;  // first 4 bytes == the narrow key
  const std::array<std::uint8_t, 4> narrow{10, 0, 0, 1};
  cache.insert(narrow, 1, {4, false});
  cache.insert(wide, 1, {16, false});
  ASSERT_NE(cache.find(narrow, 1), nullptr);
  ASSERT_NE(cache.find(wide, 1), nullptr);
  EXPECT_EQ(cache.find(narrow, 1)->egress, 4u);
  EXPECT_EQ(cache.find(wide, 1)->egress, 16u);
}

TEST(FlowCache, SurvivesOverfillByEvicting) {
  FlowCache cache(16);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::array<std::uint8_t, 4> key{
        static_cast<std::uint8_t>(i >> 24), static_cast<std::uint8_t>(i >> 16),
        static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i)};
    cache.insert(key, 1, {i, false});
    const auto* v = cache.find(key, 1);  // just-inserted key is always findable
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->egress, i);
  }
  EXPECT_LE(cache.entries(), cache.capacity());
  EXPECT_GT(cache.evictions(), 0u);
}

// ------------------------------------------------- Router + flow cache

TEST(RouterFlowCache, SecondPacketOfAFlowHitsTheCache) {
  Router router(routed_env(), registry().get());
  auto p1 = dip32_packet(0x0A000001);
  auto p2 = dip32_packet(0x0A000001);
  EXPECT_EQ(router.process(p1, 0, 0).egress, std::vector<FaceId>{7});
  EXPECT_EQ(router.process(p2, 0, 1).egress, std::vector<FaceId>{7});
  EXPECT_EQ(router.env().counters.flow_cache_misses, 1u);
  EXPECT_EQ(router.env().counters.flow_cache_hits, 1u);
  // Counter semantics: a hit still counts as an executed match FN.
  EXPECT_EQ(router.env().executions_of(OpKey::kMatch32), 2u);
}

TEST(RouterFlowCache, RouteChangeInvalidatesWithoutFlush) {
  Router router(routed_env(), registry().get());
  auto p1 = dip32_packet(0x0A020203);
  EXPECT_EQ(router.process(p1, 0, 0).egress, std::vector<FaceId>{7});  // via 10/8

  // A more specific route appears; the memoized 10/8 verdict must die.
  router.env().fib32->insert({fib::ipv4_from_u32(0x0A020200), 24}, 11);
  auto p2 = dip32_packet(0x0A020203);
  EXPECT_EQ(router.process(p2, 0, 1).egress, std::vector<FaceId>{11});

  // And the refreshed verdict is served from cache afterwards.
  auto p3 = dip32_packet(0x0A020203);
  EXPECT_EQ(router.process(p3, 0, 2).egress, std::vector<FaceId>{11});
  EXPECT_EQ(router.env().counters.flow_cache_hits, 1u);
  EXPECT_EQ(router.env().counters.flow_cache_misses, 2u);
}

TEST(RouterFlowCache, NegativeVerdictInvalidatedByNewRoute) {
  Router router(routed_env(), registry().get());
  auto p1 = dip32_packet(0x0B000001);  // outside every prefix
  auto p2 = dip32_packet(0x0B000001);
  EXPECT_EQ(router.process(p1, 0, 0).reason, DropReason::kNoRoute);
  EXPECT_EQ(router.process(p2, 0, 1).reason, DropReason::kNoRoute);
  EXPECT_EQ(router.env().counters.flow_cache_hits, 1u);  // negative hit

  router.env().fib32->insert({fib::ipv4_from_u32(0x0B000000), 8}, 5);
  auto p3 = dip32_packet(0x0B000001);
  EXPECT_EQ(router.process(p3, 0, 2).egress, std::vector<FaceId>{5});
}

TEST(RouterFlowCache, CachesMatch128Flows) {
  Router router(routed_env(), registry().get());
  auto p1 = dip128_packet("2001:db8::42");
  auto p2 = dip128_packet("2001:db8::42");
  EXPECT_EQ(router.process(p1, 0, 0).egress, std::vector<FaceId>{9});
  EXPECT_EQ(router.process(p2, 0, 1).egress, std::vector<FaceId>{9});
  EXPECT_EQ(router.env().counters.flow_cache_hits, 1u);
}

// ------------------------------------------------- parallel-bit relaxation

TEST(ParallelBit, IndependentFnsRunRelaxed) {
  Router router(routed_env(), registry().get());
  auto packet = dip32_packet(0x0A000001, 64, /*parallel=*/true);
  const auto result = router.process(packet, 0, 0);
  EXPECT_EQ(result.action, Action::kForward);
  EXPECT_EQ(result.egress, std::vector<FaceId>{7});
  EXPECT_EQ(router.env().counters.parallel_relaxed, 1u);
  EXPECT_EQ(router.env().counters.parallel_fallback, 0u);
}

TEST(ParallelBit, OrderDependentFnFallsBackToSequential) {
  Router router(routed_env(), registry().get());
  // F_FIB mutates the PIT — not order-independent, so the parallel bit must
  // be ignored (counted as a fallback).
  auto h = ndn::make_interest_header32(0x0A000001);
  ASSERT_TRUE(h.has_value());
  h->basic.parallel = true;
  auto packet = h->serialize();
  (void)router.process(packet, 3, 0);
  EXPECT_EQ(router.env().counters.parallel_relaxed, 0u);
  EXPECT_EQ(router.env().counters.parallel_fallback, 1u);
}

TEST(ParallelBit, OverlappingFieldsFallBackToSequential) {
  Router router(routed_env(), registry().get());
  // Two order-independent FNs sliced over overlapping bits: ineligible.
  const std::array<std::uint8_t, 4> dst{10, 0, 0, 1};
  HeaderBuilder b;
  const std::uint16_t loc = b.add_location(dst);
  b.add_fn(FnTriple::router(loc, 32, OpKey::kMatch32));
  b.add_fn(FnTriple::router(loc, 16, OpKey::kTelemetry));  // overlaps the dst
  b.parallel(true);
  auto h = b.build();
  ASSERT_TRUE(h.has_value());
  auto packet = h->serialize();
  (void)router.process(packet, 0, 0);
  EXPECT_EQ(router.env().counters.parallel_relaxed, 0u);
  EXPECT_EQ(router.env().counters.parallel_fallback, 1u);
}

// ------------------------------------------------------- batch equivalence

// Random packet soup: valid DIP-32/DIP-128/NDN flows plus every structural
// failure mode the single-packet path handles.
class PacketSoup {
 public:
  explicit PacketSoup(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::uint8_t> next() {
    switch (rng_() % 10) {
      case 0:
      case 1:
      case 2: {  // routable / unroutable DIP-32 flows (small flow universe)
        const std::uint32_t dst = 0x0A000000 + rng_() % 64 + ((rng_() % 2) << 24);
        return dip32_packet(dst);
      }
      case 3:
        return dip128_packet(rng_() % 2 ? "2001:db8::7" : "2002::7");
      case 4: {  // NDN interest; remember the name for a later data packet
        const auto code = static_cast<std::uint32_t>(0x0A000000 + rng_() % 16);
        names_.push_back(code);
        return ndn::make_interest_header32(code)->serialize();
      }
      case 5: {  // NDN data for a pending (or random) name
        const std::uint32_t code = names_.empty()
                                       ? 0x0A000001
                                       : names_[rng_() % names_.size()];
        return ndn::make_data_header32(code)->serialize();
      }
      case 6: {  // truncated
        auto p = dip32_packet(0x0A000001);
        p.resize(rng_() % p.size());
        return p;
      }
      case 7: {  // corrupted checksum byte
        auto p = dip32_packet(0x0A000002);
        p[5] ^= 0x5A;
        return p;
      }
      case 8:  // expiring hop limit
        return dip32_packet(0x0A000003, 1);
      default: {  // parallel-bit or unsupported-FN packet
        if (rng_() % 2) return dip32_packet(0x0A000004, 64, /*parallel=*/true);
        HeaderBuilder b;
        const std::array<std::uint8_t, 16> tag{};
        b.add_router_fn(OpKey::kMac, tag);  // kMac is disabled in the envs
        return b.build()->serialize();
      }
    }
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::uint32_t> names_;
};

void expect_same_result(const ProcessResult& a, const ProcessResult& b,
                        std::size_t packet_idx) {
  EXPECT_EQ(a.action, b.action) << "packet " << packet_idx;
  EXPECT_EQ(a.reason, b.reason) << "packet " << packet_idx;
  EXPECT_EQ(a.egress, b.egress) << "packet " << packet_idx;
  EXPECT_EQ(a.offending_key, b.offending_key) << "packet " << packet_idx;
  EXPECT_EQ(a.respond_from_cache, b.respond_from_cache) << "packet " << packet_idx;
}

// The tentpole property: for any burst grouping, process_batch with the flow
// cache on is observationally identical (verdicts AND packet bytes) to the
// seed per-packet path with the cache off.
TEST(BatchEquivalence, RandomSoupMatchesSequentialPath) {
  RouterEnv env_batch = routed_env(/*with_cache=*/true);
  RouterEnv env_seq = routed_env(/*with_cache=*/false);
  env_batch.disabled_keys.insert(OpKey::kMac);
  env_seq.disabled_keys.insert(OpKey::kMac);
  Router batch_router(std::move(env_batch), registry().get());
  Router seq_router(std::move(env_seq), registry().get());

  std::mt19937_64 rng(0xD1Bu);
  PacketSoup soup(0xD1Bu);

  SimTime now = 0;
  std::size_t packet_idx = 0;
  for (int burst = 0; burst < 200; ++burst, ++now) {
    const std::size_t n = 1 + rng() % 48;
    const FaceId ingress = static_cast<FaceId>(rng() % 4);

    std::vector<std::vector<std::uint8_t>> a(n);  // batch copies
    std::vector<std::vector<std::uint8_t>> b(n);  // sequential copies
    std::vector<PacketRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = soup.next();
      b[i] = a[i];
      refs[i] = PacketRef(a[i]);
    }

    std::vector<ProcessResult> batch_results(n);
    batch_router.process_batch(refs, ingress, now, batch_results);

    for (std::size_t i = 0; i < n; ++i, ++packet_idx) {
      const ProcessResult seq_result = seq_router.process(b[i], ingress, now);
      expect_same_result(batch_results[i], seq_result, packet_idx);
      EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << packet_idx;
    }
  }

  // The property only means something if the cache actually engaged.
  EXPECT_GT(batch_router.env().counters.flow_cache_hits, 0u);
  EXPECT_EQ(seq_router.env().counters.flow_cache_hits, 0u);
  // Both engines saw identical traffic.
  EXPECT_EQ(batch_router.env().counters.processed,
            seq_router.env().counters.processed);
  EXPECT_EQ(batch_router.env().counters.forwarded,
            seq_router.env().counters.forwarded);
  EXPECT_EQ(batch_router.env().counters.dropped, seq_router.env().counters.dropped);
  EXPECT_EQ(batch_router.env().counters.errors, seq_router.env().counters.errors);
}

TEST(BatchEquivalence, ResultSlotsAreFullyReset) {
  Router router(routed_env(), registry().get());
  std::vector<ProcessResult> results(1);
  results[0].fail_unsupported(OpKey::kMac);  // stale junk in the slot
  results[0].egress = {99, 98};

  auto packet = dip32_packet(0x0A000001);
  const PacketRef ref(packet);
  router.process_batch({&ref, 1}, 0, 0, results);
  EXPECT_EQ(results[0].action, Action::kForward);
  EXPECT_EQ(results[0].reason, DropReason::kNone);
  EXPECT_EQ(results[0].egress, std::vector<FaceId>{7});
  EXPECT_FALSE(results[0].respond_from_cache);
}

// Burst shapes around the plan's edges: 1 (a singleton runs alone through
// run_fn), 3/7 (odd partial bursts), 33 (past the bench's 32-wide shape). Strict and lenient both run — quarantine vs drop must not depend
// on the grouping either.
TEST(BatchEquivalence, FixedBurstShapesMatchSequential) {
  for (const ValidationMode mode : {ValidationMode::kStrict, ValidationMode::kLenient}) {
    RouterEnv env_batch = routed_env(/*with_cache=*/true);
    RouterEnv env_seq = routed_env(/*with_cache=*/false);
    env_batch.disabled_keys.insert(OpKey::kMac);
    env_seq.disabled_keys.insert(OpKey::kMac);
    Router batch_router(std::move(env_batch), registry().get());
    Router seq_router(std::move(env_seq), registry().get());
    batch_router.set_validation(mode);
    seq_router.set_validation(mode);

    PacketSoup soup(0xB1257u + static_cast<unsigned>(mode));
    SimTime now = 0;
    std::size_t packet_idx = 0;
    for (const std::size_t n : {1, 3, 7, 33}) {
      for (int repeat = 0; repeat < 20; ++repeat, ++now) {
        std::vector<std::vector<std::uint8_t>> a(n);
        std::vector<std::vector<std::uint8_t>> b(n);
        std::vector<PacketRef> refs(n);
        for (std::size_t i = 0; i < n; ++i) {
          a[i] = soup.next();
          b[i] = a[i];
          refs[i] = PacketRef(a[i]);
        }
        std::vector<ProcessResult> results(n);
        batch_router.process_batch(refs, 0, now, results);
        for (std::size_t i = 0; i < n; ++i, ++packet_idx) {
          const ProcessResult seq = seq_router.process(b[i], 0, now);
          expect_same_result(results[i], seq, packet_idx);
          EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << packet_idx;
        }
      }
    }
    EXPECT_EQ(batch_router.env().counters.quarantined,
              seq_router.env().counters.quarantined);
  }
}

// A burst where phase 1 kills every packet must short-circuit phase 2
// cleanly: strict mode drops as malformed, lenient mode quarantines, and
// in both cases the per-slot verdicts and counters account for all n.
TEST(BatchEquivalence, AllMalformedBurstDropsOrQuarantinesEveryPacket) {
  const std::size_t n = 9;
  for (const ValidationMode mode : {ValidationMode::kStrict, ValidationMode::kLenient}) {
    Router router(routed_env(), registry().get());
    router.set_validation(mode);

    std::vector<std::vector<std::uint8_t>> packets(n);
    std::vector<PacketRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
      packets[i] = dip32_packet(0x0A000001 + static_cast<std::uint32_t>(i));
      if (i % 2 == 0) {
        packets[i][5] ^= 0x5A;  // checksum corruption
      } else {
        packets[i].resize(3);  // truncation
      }
      refs[i] = PacketRef(packets[i]);
    }
    std::vector<ProcessResult> results(n);
    router.process_batch(refs, 0, 0, results);

    const DropReason want = mode == ValidationMode::kLenient
                                ? DropReason::kCorruptQuarantine
                                : DropReason::kMalformed;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(results[i].action, Action::kDrop) << i;
      EXPECT_EQ(results[i].reason, want) << i;
      EXPECT_TRUE(results[i].egress.empty()) << i;
    }
    EXPECT_EQ(router.env().counters.processed, n);
    EXPECT_EQ(router.env().counters.dropped, n);
    EXPECT_EQ(router.env().counters.quarantined,
              mode == ValidationMode::kLenient ? n : 0u);
  }
}

// Mixed op-key bursts with a stateful FN: F_dps packets interleaved with
// plain match packets. The DPS fair-share estimator and its seeded drop
// coin evolve per *arrival*, so batch dispatch must feed it in exactly
// arrival order — two independently-seeded engines (burst vs per-packet)
// agree verdict-for-verdict only if the order is preserved.
TEST(BatchEquivalence, MixedOpKeyBurstPreservesDpsArrivalOrder) {
  auto make_engine = [] {
    auto reg = netsim::make_default_registry();
    qos::FairShareEstimator::Config fair;
    fair.capacity_bytes_per_sec = 100'000;
    fair.window = 10 * kMillisecond;
    reg->add(std::make_unique<qos::DpsOp>(fair, /*seed=*/7));
    return reg;
  };
  auto reg_batch = make_engine();
  auto reg_seq = make_engine();
  RouterEnv env_batch = routed_env(/*with_cache=*/true);
  RouterEnv env_seq = routed_env(/*with_cache=*/false);
  env_batch.default_egress = 1;
  env_seq.default_egress = 1;
  Router batch_router(std::move(env_batch), reg_batch.get());
  Router seq_router(std::move(env_seq), reg_seq.get());

  // Overload the heavy flow (10 MB/s label against 100 kB/s capacity) so
  // the policer actually drops — order bugs would show as disagreeing
  // drop positions, not just counter totals.
  auto dps_packet = [](std::uint32_t flow, std::uint32_t label) {
    HeaderBuilder b;
    qos::add_dps_fn(b, flow, label);
    auto wire = b.build()->serialize();
    wire.resize(1000, 0);
    return wire;
  };

  SimTime now = 0;
  std::size_t packet_idx = 0;
  std::uint64_t batch_rate_drops = 0;
  for (int burst = 0; burst < 120; ++burst, now += 100 * kMicrosecond) {
    const std::size_t n = 32;
    std::vector<std::vector<std::uint8_t>> a(n);
    std::vector<std::vector<std::uint8_t>> b(n);
    std::vector<PacketRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = (i % 2 == 0) ? dps_packet(1, 10'000'000)
                          : dip32_packet(0x0A010000 + static_cast<std::uint32_t>(i % 4));
      b[i] = a[i];
      refs[i] = PacketRef(a[i]);
    }
    std::vector<ProcessResult> results(n);
    batch_router.process_batch(refs, 0, now, results);
    for (std::size_t i = 0; i < n; ++i, ++packet_idx) {
      const ProcessResult seq = seq_router.process(b[i], 0, now);
      expect_same_result(results[i], seq, packet_idx);
      EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << packet_idx;
      if (results[i].reason == DropReason::kRateExceeded) ++batch_rate_drops;
    }
  }
  // The property only bites if the policer engaged.
  EXPECT_GT(batch_rate_drops, 0u) << "DPS never dropped; overload too light";
}

// Stateful FNs at different positions must still run in arrival order. The
// burst's data packet carries F_PIT at position 1 (behind a host-tagged FN)
// and the interest after it carries F_FIB at position 0: position-major
// waves would run the interest's PIT/content-store lookup before the data's
// PIT match. Per packet, the data first satisfies the pending interest from
// face 1 and fills the content store, so the interest is answered from the
// cache and the data reaches face 1 only.
TEST(BatchEquivalence, StatefulFnsKeepArrivalOrderAcrossPositions) {
  constexpr std::uint32_t kName = 0x0A000042;
  const auto make_env = [] {
    RouterEnv env = routed_env();
    env.content_store.emplace(64);
    return env;
  };
  Router batch_router(make_env(), registry().get());
  Router seq_router(make_env(), registry().get());

  const auto interest = [] { return ndn::make_interest_header32(kName)->serialize(); };
  auto pending_a = interest();
  auto pending_b = interest();
  expect_same_result(batch_router.process(pending_a, 1, 0), seq_router.process(pending_b, 1, 0),
                     0);

  const auto code = fib::ipv4_from_u32(kName);
  HeaderBuilder data;
  const std::uint16_t loc = data.add_location(code.bytes);
  data.add_fn(FnTriple::host(loc, 32, OpKey::kMac));
  data.add_fn(FnTriple::router(loc, 32, OpKey::kPit));
  std::vector<std::vector<std::uint8_t>> a{data.build()->serialize(), interest()};
  std::vector<std::vector<std::uint8_t>> b = a;
  std::vector<PacketRef> refs(a.begin(), a.end());
  std::vector<ProcessResult> results(a.size());
  batch_router.process_batch(refs, 2, 1, results);
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_result(results[i], seq_router.process(b[i], 2, 1), i + 1);
    EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << i + 1;
  }
  EXPECT_EQ(results[0].action, Action::kForward);
  EXPECT_EQ(results[0].egress, std::vector<FaceId>{1});
  EXPECT_TRUE(results[1].respond_from_cache);
  EXPECT_EQ(results[1].egress, std::vector<FaceId>{2});
}

// An XIA packet is F_DAG at position 0 and F_intent at position 1. F_DAG
// reads only the XID-table snapshot and writes its own DAG field, so it
// commutes across packets, and F_intent is the packet's only stateful FN: a
// train of XIA packets never cuts a segment. The whole burst rides the
// waves, and every verdict and rewritten byte matches Router::process over
// the same mix of outcomes (direct intent, AD fallback, no route, local AD
// traversal, CID intents that hit and miss the content store).
TEST(BatchEquivalence, XiaTrainRunsInWavesAndMatchesPerPacket) {
  const fib::Xid ad = xia::xid_from_label("wave-ad");
  const fib::Xid ad2 = xia::xid_from_label("wave-ad2");
  const fib::Xid hid = xia::xid_from_label("wave-hid");
  const fib::Xid sid = xia::xid_from_label("wave-sid");
  const fib::Xid lost = xia::xid_from_label("wave-lost");
  const fib::Xid cached = xia::xid_from_label("wave-cached");
  const fib::Xid absent = xia::xid_from_label("wave-absent");
  const auto make_env = [&] {
    RouterEnv env = routed_env();
    env.stats = telemetry::make_router_stats();
    env.content_store.emplace(8);
    env.content_store->insert(xia::xid_code(cached), std::array<std::uint8_t, 2>{7, 7});
    env.xid_table->insert(fib::XidType::kSid, sid, 42);
    env.xid_table->insert(fib::XidType::kAd, ad, 7);
    env.xid_table->set_local(fib::XidType::kAd, ad2);
    env.xid_table->insert(fib::XidType::kHid, hid, 11);
    env.xid_table->set_local(fib::XidType::kHid, hid);
    env.xid_table->set_local(fib::XidType::kCid, cached);
    env.xid_table->set_local(fib::XidType::kCid, absent);
    return env;
  };
  Router batch_router(make_env(), registry().get());
  Router seq_router(make_env(), registry().get());

  const auto packet_for = [](const xia::Dag& dag, bool at_hid = false) {
    auto wire = xia::make_xia_header(dag)->serialize();
    // Enter at the HID node, as the previous hop leaves a packet for this
    // host: the DAG's cursor byte follows the basic header and two triples.
    if (at_hid) wire[6 + 12 + 1] = 1;
    return wire;
  };
  const std::vector<std::vector<std::uint8_t>> kinds = {
      packet_for(xia::make_service_dag(ad, hid, fib::XidType::kSid, sid)),
      packet_for(xia::make_service_dag(ad, hid, fib::XidType::kSid, lost)),
      packet_for(xia::make_service_dag(ad2, lost, fib::XidType::kSid, lost, false)),
      packet_for(xia::make_service_dag(ad2, hid, fib::XidType::kSid, lost, false)),
      packet_for(xia::make_service_dag(ad, hid, fib::XidType::kCid, cached, false), true),
      packet_for(xia::make_service_dag(ad, hid, fib::XidType::kCid, absent, false), true),
  };
  std::vector<std::vector<std::uint8_t>> a;
  for (std::size_t i = 0; i < 32; ++i) a.push_back(kinds[(i * 5) % kinds.size()]);
  std::vector<std::vector<std::uint8_t>> b = a;
  std::vector<PacketRef> refs(a.begin(), a.end());
  std::vector<ProcessResult> results(a.size());
  batch_router.process_batch(refs, 3, 0, results);

  std::set<std::pair<Action, bool>> outcomes;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_result(results[i], seq_router.process(b[i], 3, 0), i);
    EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << i;
    outcomes.insert({results[i].action, results[i].respond_from_cache});
  }
  EXPECT_EQ(batch_router.env().stats->burst_wave.load(), a.size());
  EXPECT_EQ(batch_router.env().stats->burst_legacy.load(), 0u);
  // Forwarded, answered from the store, and dropped all occur.
  EXPECT_EQ(outcomes.size(), 3u);
}

// F_intent stays ordered. An XIA packet's local CID intent shares its store
// code with the NDN data packet right behind it in the burst, and that data
// fills the content store. Per packet the intent runs first and misses. The
// data's F_PIT sits at position 0 and the intent at position 1, so were
// F_intent marked commuting, position-major waves would fill the store
// before the intent read it.
TEST(BatchEquivalence, XiaIntentReadsTheStoreInArrivalOrder) {
  constexpr std::uint32_t kName = 0x0A000043;
  // xid_code reads a CID's first 8 bytes: make it the NDN name code.
  fib::Xid cid;
  for (int i = 0; i < 4; ++i) {
    cid.bytes[4 + i] = static_cast<std::uint8_t>(kName >> (24 - 8 * i));
  }
  ASSERT_EQ(xia::xid_code(cid), kName);
  const fib::Xid ad = xia::xid_from_label("order-ad");
  const fib::Xid hid = xia::xid_from_label("order-hid");
  const auto make_env = [&] {
    RouterEnv env = routed_env();
    env.content_store.emplace(64);
    env.xid_table->set_local(fib::XidType::kHid, hid);
    env.xid_table->set_local(fib::XidType::kCid, cid);
    return env;
  };
  Router batch_router(make_env(), registry().get());
  Router seq_router(make_env(), registry().get());

  auto pending_a = ndn::make_interest_header32(kName)->serialize();
  auto pending_b = pending_a;
  expect_same_result(batch_router.process(pending_a, 1, 0),
                     seq_router.process(pending_b, 1, 0), 0);

  auto xia_packet =
      xia::make_xia_header(xia::make_service_dag(ad, hid, fib::XidType::kCid, cid, false))
          ->serialize();
  xia_packet[6 + 12 + 1] = 1;  // cursor on the local HID: the intent is next
  std::vector<std::vector<std::uint8_t>> a{xia_packet,
                                           ndn::make_data_header32(kName)->serialize()};
  std::vector<std::vector<std::uint8_t>> b = a;
  std::vector<PacketRef> refs(a.begin(), a.end());
  std::vector<ProcessResult> results(a.size());
  batch_router.process_batch(refs, 2, 1, results);
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_result(results[i], seq_router.process(b[i], 2, 1), i + 1);
    EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << i + 1;
  }
  EXPECT_FALSE(results[0].respond_from_cache)
      << "the intent read the store after the data filled it";
  EXPECT_EQ(results[0].reason, DropReason::kNoRoute);
  EXPECT_EQ(results[1].egress, std::vector<FaceId>{1});
  EXPECT_TRUE(batch_router.env().content_store->contains(kName));
}

// A wave group probes the flow cache ahead of its arrival-order pass (to
// resolve the misses' FIB lookups together). That probe must not perturb the
// cache: against a per-packet twin with its cache ON, verdicts, bytes, the
// hit/miss/executed counters and the cache's entries and evictions stay
// identical after every burst. A 16-slot cache over 256 destinations per
// width, a quarter of them drawn from a hot dozen, evicts inside a burst
// (so items predicted to hit can miss), repeated destinations inside a burst
// hit on an earlier item's insert, NDN pairs run F_FIB through the same
// groups, and route changes between bursts leave stale entries behind. Each
// burst holds one match width (groups of different widths probe the cache
// key by key, not in arrival order); the width changes every fourth burst.
TEST(BatchEquivalence, FibPrePassLeavesTheFlowCacheAsPerPacket) {
  const auto routes4 = fib::synth::ipv4_table(2'000, 0xCAC4E);
  const auto routes6 = fib::synth::ipv6_table(1'000, 0xCAC6E);
  const auto make_env = [&] {
    RouterEnv env = netsim::make_basic_env(1);
    env.flow_cache = std::make_unique<FlowCache>(16);
    env.stats = telemetry::make_router_stats();  // sampled packets ride along
    for (const auto& r : routes4) env.fib32->insert(r.prefix, r.nh);
    for (const auto& r : routes6) env.fib128->insert(r.prefix, r.nh);
    return env;
  };
  Router batch_router(make_env(), registry().get());
  Router seq_router(make_env(), registry().get());
  ASSERT_EQ(batch_router.env().flow_cache->capacity(), 16u);

  // Half inside installed prefixes, half random (mostly unrouted).
  const auto dst4 = fib::synth::probes(routes4, 256, 0xD54);
  const auto dst6 = fib::synth::probes(routes6, 256, 0xD56);
  std::mt19937_64 rng(0xF1B);
  const auto change_routes = [&](int burst) {
    // Withdraw one installed route per width and add a more-specific one
    // over a destination: cached verdicts of both widths go stale.
    for (Router* r : {&batch_router, &seq_router}) {
      r->env().fib32->remove(routes4[static_cast<std::size_t>(burst) % routes4.size()].prefix);
      r->env().fib32->insert({dst4[static_cast<std::size_t>(burst) % dst4.size()], 28},
                             900 + static_cast<fib::NextHop>(burst));
      r->env().fib128->remove(routes6[static_cast<std::size_t>(burst) % routes6.size()].prefix);
      r->env().fib128->insert({dst6[static_cast<std::size_t>(burst) % dst6.size()], 56},
                              900 + static_cast<fib::NextHop>(burst));
    }
  };

  SimTime now = 0;
  std::size_t packet_idx = 0;
  for (int burst = 0; burst < 240; ++burst, now += kMillisecond) {
    if (burst % 8 == 7) change_routes(burst);
    const bool wide = burst % 8 >= 4;
    const std::size_t n = 32;
    std::vector<std::vector<std::uint8_t>> a;
    std::size_t last = 0;
    while (a.size() < n) {
      const std::uint64_t draw = rng();
      if (draw % 8 == 0 && a.size() + 2 <= n) {  // an NDN interest/data pair
        const std::uint32_t code = fib::ipv4_to_u32(dst4[(draw >> 8) % 64]);
        a.push_back(ndn::make_interest_header32(code)->serialize());
        a.push_back(ndn::make_data_header32(code)->serialize());
        continue;
      }
      // One in four repeats the previous destination inside the burst, one
      // in four is a hot destination, the rest are uniform.
      const std::size_t d = draw % 4 == 1   ? last
                            : draw % 4 == 2 ? (draw >> 8) % 12
                                            : (draw >> 8) % 256;
      last = d;
      a.push_back(wide ? make_dip128_header(dst6[d], dst6[0])->serialize()
                       : dip32_packet(fib::ipv4_to_u32(dst4[d])));
    }
    std::vector<std::vector<std::uint8_t>> b = a;
    std::vector<PacketRef> refs(a.begin(), a.end());
    const FaceId ingress = static_cast<FaceId>(1 + rng() % 3);
    std::vector<ProcessResult> results(n);
    batch_router.process_batch(refs, ingress, now, results);
    for (std::size_t i = 0; i < n; ++i, ++packet_idx) {
      const ProcessResult seq = seq_router.process(b[i], ingress, now);
      expect_same_result(results[i], seq, packet_idx);
      EXPECT_EQ(a[i], b[i]) << "packet bytes diverged at " << packet_idx;
    }
    const auto& bc = batch_router.env().counters;
    const auto& sc = seq_router.env().counters;
    ASSERT_EQ(bc.flow_cache_hits, sc.flow_cache_hits) << "burst " << burst;
    ASSERT_EQ(bc.flow_cache_misses, sc.flow_cache_misses) << "burst " << burst;
    ASSERT_EQ(bc.fn_executed, sc.fn_executed) << "burst " << burst;
    ASSERT_EQ(batch_router.env().flow_cache->entries(), seq_router.env().flow_cache->entries())
        << "burst " << burst;
    ASSERT_EQ(batch_router.env().flow_cache->evictions(),
              seq_router.env().flow_cache->evictions())
        << "burst " << burst;
  }

  // The property only bites if every path engaged.
  const auto& counters = batch_router.env().counters;
  EXPECT_GT(counters.flow_cache_hits, 500u);
  EXPECT_GT(counters.flow_cache_misses, 500u);
  EXPECT_GT(batch_router.env().flow_cache->evictions(), 500u);
  EXPECT_GT(counters.forwarded, 1000u);
  EXPECT_GT(batch_router.env().executions_of(OpKey::kFib), 500u);
  EXPECT_GT(batch_router.env().stats->burst_wave.load(), 7000u);
  EXPECT_EQ(batch_router.env().stats->burst_legacy.load(), 0u);
}

// ---------------------------------------------------------------- RouterPool

TEST(RouterPool, ShardingIsDeterministicAndFlowAffine) {
  auto p1 = dip32_packet(0x0A000001);
  auto p2 = dip32_packet(0x0A000001, 17);  // same flow, different hop limit
  auto p3 = dip32_packet(0x0A010101);
  EXPECT_EQ(RouterPool::shard_of(p1, 4), RouterPool::shard_of(p1, 4));
  // Flow identity is the sliced dst field: hop limit must not affect it.
  EXPECT_EQ(RouterPool::shard_of(p1, 4), RouterPool::shard_of(p2, 4));
  EXPECT_LT(RouterPool::shard_of(p3, 4), 4u);
  EXPECT_EQ(RouterPool::shard_of(p1, 1), 0u);

  // NDN flow affinity: interest and data for one name shard identically.
  const auto interest = ndn::make_interest_header32(0x0A000042)->serialize();
  const auto data = ndn::make_data_header32(0x0A000042)->serialize();
  EXPECT_EQ(RouterPool::shard_of(interest, 4), RouterPool::shard_of(data, 4));
}

TEST(RouterPool, ProcessesEverythingAcrossWorkersWithSharedFib) {
  RouterEnv base = routed_env();
  const auto fib32 = base.fib32;  // one route table shared by all workers

  RouterPoolConfig config;
  config.workers = 4;
  config.max_batch = 32;

  std::mutex mu;
  std::map<std::uint32_t, std::set<std::size_t>> dst_workers;
  std::uint64_t forwarded = 0;

  RouterPool pool(
      registry().get(),
      [&](std::size_t i) {
        RouterEnv env = netsim::make_basic_env(100 + static_cast<std::uint32_t>(i));
        env.fib32 = fib32;
        return env;
      },
      config,
      [&](std::size_t worker, RouterPool::Item& item, ProcessResult& result) {
        // dst = first 4 bytes of the locations block (6 B basic + 2 FNs).
        const std::size_t locs = 6 + 2 * 6;
        std::uint32_t dst = 0;
        for (int b = 0; b < 4; ++b) dst = dst << 8 | item.packet[locs + b];
        std::lock_guard<std::mutex> lk(mu);
        dst_workers[dst].insert(worker);
        if (result.action == Action::kForward) ++forwarded;
      });

  constexpr std::size_t kPackets = 2000;
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::uint32_t dst = 0x0A000000 + static_cast<std::uint32_t>(rng() % 64);
    pool.submit(dip32_packet(dst), 0, static_cast<SimTime>(i));
  }
  pool.drain();

  const auto totals = pool.counters();
  EXPECT_EQ(totals.processed, kPackets);
  EXPECT_EQ(totals.forwarded, kPackets);  // every dst is inside 10/8
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(forwarded, kPackets);
    std::set<std::size_t> used;
    for (const auto& [dst, workers] : dst_workers) {
      EXPECT_EQ(workers.size(), 1u) << "flow " << dst << " migrated workers";
      used.insert(*workers.begin());
    }
    EXPECT_GT(used.size(), 1u);  // 64 flows actually spread across workers
  }
  // With 64 flows and 2000 packets the per-worker caches must be hot.
  EXPECT_GT(totals.flow_cache_hits, kPackets / 2);
  pool.stop();
}

TEST(RouterPool, DrainIsReusableAndStopIsIdempotent) {
  RouterPoolConfig config;
  config.workers = 2;
  RouterPool pool(
      registry().get(),
      [](std::size_t i) {
        RouterEnv env = netsim::make_basic_env(200 + static_cast<std::uint32_t>(i));
        env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
        return env;
      },
      config);

  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 100; ++i) {
      pool.submit(dip32_packet(0x0A000000 + i), 0, round);
    }
    pool.drain();
    EXPECT_EQ(pool.counters().processed, 100u * (round + 1));
  }
  pool.stop();
  pool.stop();  // idempotent
  EXPECT_EQ(pool.counters().processed, 300u);
}

TEST(RouterPool, StopWithQueuedPacketsLosesAndDuplicatesNothing) {
  // stop() while the rings are still full: every accepted packet must be
  // processed exactly once before the workers join — no lost packets, no
  // double-processing. Each packet carries a sequence number in its payload
  // so the completion callback can account for every submission. (This test
  // runs under TSan in scripts/check.sh.)
  constexpr std::uint32_t kPackets = 5000;
  RouterPoolConfig config;
  config.workers = 4;
  config.max_batch = 8;

  std::mutex mu;
  std::vector<std::uint32_t> seen_count(kPackets, 0);
  RouterPool pool(
      registry().get(),
      [](std::size_t i) {
        RouterEnv env = netsim::make_basic_env(300 + static_cast<std::uint32_t>(i));
        env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
        return env;
      },
      config,
      [&](std::size_t, RouterPool::Item& item, ProcessResult&) {
        std::uint32_t seq = 0;
        const std::size_t n = item.packet.size();
        for (std::size_t b = 0; b < 4; ++b) seq = seq << 8 | item.packet[n - 4 + b];
        std::lock_guard<std::mutex> lk(mu);
        ASSERT_LT(seq, kPackets);
        ++seen_count[seq];
      });

  for (std::uint32_t i = 0; i < kPackets; ++i) {
    auto packet = dip32_packet(0x0A000000 + (i % 64));
    packet.push_back(static_cast<std::uint8_t>(i >> 24));
    packet.push_back(static_cast<std::uint8_t>(i >> 16));
    packet.push_back(static_cast<std::uint8_t>(i >> 8));
    packet.push_back(static_cast<std::uint8_t>(i));
    pool.submit(std::move(packet), 0, static_cast<SimTime>(i));
  }
  pool.stop();  // no drain(): queues are likely non-empty right here

  EXPECT_EQ(pool.counters().processed, kPackets);
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(seen_count[i], 1u) << "sequence " << i;
  }
}

// ------------------------------------------------------------- aggregation

TEST(TelemetryCounters, AggregateSumsAcrossWorkers) {
  telemetry::RouterCounters a;
  telemetry::RouterCounters b;
  a.processed += 10;
  a.flow_cache_hits += 3;
  a.fn_by_key[1] += 2;
  b.processed += 5;
  b.flow_cache_hits += 1;
  b.fn_by_key[1] += 4;

  const telemetry::RouterCounters* all[] = {&a, &b};
  const telemetry::CounterSnapshot sum = telemetry::aggregate(all);
  EXPECT_EQ(sum.processed, 15u);
  EXPECT_EQ(sum.flow_cache_hits, 4u);
  EXPECT_EQ(sum.fn_by_key[1], 6u);
  EXPECT_DOUBLE_EQ(sum.flow_cache_hit_rate(), 1.0);
}

}  // namespace
}  // namespace dip::core
