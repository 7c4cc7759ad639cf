// Stats-layer tests: histogram bucket scheme and merge algebra, sampler
// determinism, trace-ring overwrite-when-full semantics, the text
// exposition format (golden), router-level recording with sample_period=1,
// and the RouterPool invariant that per-worker series sum to the fleet
// series. The golden test pins the exposition grammar documented in
// docs/OBSERVABILITY.md — change that doc if you change the format here.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/telemetry/exposition.hpp"
#include "support/conformance.hpp"

namespace dip::telemetry {
namespace {

// ------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundariesFollowBitWidth) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  for (std::size_t i = 1; i < kHistogramBuckets - 1; ++i) {
    // Bucket i spans exactly [2^(i-1), 2^i - 1].
    const std::uint64_t lower = std::uint64_t{1} << (i - 1);
    EXPECT_EQ(histogram_bucket(lower), i);
    EXPECT_EQ(histogram_bucket(histogram_bucket_upper(i)), i);
    EXPECT_EQ(histogram_bucket(histogram_bucket_upper(i) + 1), i + 1);
  }
  // Values past the last boundary clamp into the final bucket.
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_upper(0), 0u);
  EXPECT_EQ(histogram_bucket_upper(1), 1u);
  EXPECT_EQ(histogram_bucket_upper(2), 3u);
  EXPECT_EQ(histogram_bucket_upper(10), 1023u);
}

TEST(Histogram, RecordAndSnapshot) {
  LatencyHistogram h;
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(100);  // bucket 7: [64, 127]
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[7], 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);

  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record(3);  // bucket 2: [2, 3]
  for (int i = 0; i < 4; ++i) h.record(8);  // bucket 4: [8, 15]
  const HistogramSnapshot s = h.snapshot();
  // target = 4 lands exactly at the end of bucket 2 -> its upper bound.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  // target = 7.2 -> 0.8 through bucket 4: 8 + (15 - 8) * 0.8.
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 13.6);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 14.86);
  // Quantiles are monotone and bounded by the populated range.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, 15.0);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.mean(), (4.0 * 3 + 4.0 * 8) / 8.0);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  LatencyHistogram ha, hb, hc;
  for (std::uint64_t v : {1u, 5u, 9u, 200u}) ha.record(v);
  for (std::uint64_t v : {0u, 5u, 1000u}) hb.record(v);
  for (std::uint64_t v : {7u, 7u, 7u, 7u, 123456u}) hc.record(v);
  const HistogramSnapshot a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

  const HistogramSnapshot left = (a + b) + c;
  const HistogramSnapshot right = a + (b + c);
  const HistogramSnapshot swapped = c + (b + a);
  EXPECT_EQ(left.buckets, right.buckets);
  EXPECT_EQ(left.buckets, swapped.buckets);
  EXPECT_EQ(left.count, a.count + b.count + c.count);
  EXPECT_EQ(left.sum, a.sum + b.sum + c.sum);
  // A merged snapshot is exactly what one histogram fed all streams sees.
  LatencyHistogram all;
  for (std::uint64_t v : {1u, 5u, 9u, 200u, 0u, 5u, 1000u, 7u, 7u, 7u, 7u, 123456u}) {
    all.record(v);
  }
  EXPECT_EQ(left.buckets, all.snapshot().buckets);
  EXPECT_DOUBLE_EQ(left.quantile(0.5), all.snapshot().quantile(0.5));
}

// --------------------------------------------------------------- sampler

TEST(Sampler, DeterministicOneInN) {
  Sampler s(4);
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < 12; ++i) {
    if (s.tick()) picked.push_back(i);
  }
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 4, 8}));

  // Identical period + identical stream position => identical picks.
  Sampler a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.tick(), b.tick());
}

TEST(Sampler, ZeroDisablesOneSamplesEverything) {
  Sampler off(0);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(off.tick());
  Sampler always(1);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(always.tick());
}

// ------------------------------------------------------------ trace ring

TraceRecord record_with(std::uint64_t sim_now) {
  TraceRecord r;
  r.sim_now = sim_now;
  r.fn_count = 1;
  r.fns[0] = {0, 32, 1};
  return r;
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(4).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRing, DrainReturnsOldestFirstAndStampsSeq) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 3; ++i) ring.push(record_with(i * 10));
  std::vector<TraceRecord> out;
  EXPECT_EQ(ring.drain(out), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].sim_now, i * 10);
  }
  // Drained records are consumed.
  EXPECT_EQ(ring.drain(out), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.pushed(), 3u);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.push(record_with(i));
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);

  std::vector<TraceRecord> out;
  EXPECT_EQ(ring.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  // The survivors are the newest four, oldest of them first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].sim_now, 6u + i);
    EXPECT_EQ(out[i].seq, 6u + i);
  }
}

// ------------------------------------------------------- exposition text

TEST(Exposition, WriterGolden) {
  StatsWriter w;
  const Label labels[] = {{"worker", "3"}, {"fn", "F_FIB"}};
  w.counter("dip_fn_executions_total", labels, 42);
  w.gauge("dip_flow_cache_hit_rate", {}, 0.954233);
  w.comment("== section ==");
  EXPECT_EQ(w.text(),
            "dip_fn_executions_total{worker=\"3\",fn=\"F_FIB\"} 42\n"
            "dip_flow_cache_hit_rate 0.954233\n"
            "# == section ==\n");
}

TEST(Exposition, HistogramGolden) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record(3);
  for (int i = 0; i < 4; ++i) h.record(8);
  StatsWriter w;
  write_histogram(w, "lat_ns", {}, h.snapshot());
  EXPECT_EQ(w.text(),
            "lat_ns{quantile=\"0.5\"} 3\n"
            "lat_ns{quantile=\"0.9\"} 13.6\n"
            "lat_ns{quantile=\"0.99\"} 14.86\n"
            "lat_ns_bucket{le=\"3\"} 4\n"
            "lat_ns_bucket{le=\"15\"} 8\n"
            "lat_ns_bucket{le=\"+Inf\"} 8\n"
            "lat_ns_count 8\n"
            "lat_ns_sum 44\n");

  // Empty histograms emit nothing (absent series beat all-zero series).
  StatsWriter empty;
  write_histogram(empty, "lat_ns", {}, HistogramSnapshot{});
  EXPECT_EQ(empty.text(), "");
}

TEST(Exposition, CounterSnapshotGolden) {
  CounterSnapshot s;
  s.processed = 10;
  s.forwarded = 8;
  s.dropped = 2;
  s.batches = 3;
  s.fn_executed = 20;
  s.flow_cache_hits = 6;
  s.flow_cache_misses = 2;
  s.fn_by_key[1] = 16;  // kMatch32
  s.fn_by_key[4] = 4;   // kFib
  s.quarantined = 1;
  StatsWriter w;
  write_counter_snapshot(w, s, {}, nullptr);
  EXPECT_EQ(w.text(),
            "dip_packets_processed_total 10\n"
            "dip_packets_forwarded_total 8\n"
            "dip_packets_dropped_total 2\n"
            "dip_packet_errors_total 0\n"
            "dip_packets_quarantined_total 1\n"
            "dip_batches_total 3\n"
            "dip_fn_executed_total 20\n"
            "dip_fn_skipped_host_total 0\n"
            "dip_fn_skipped_optional_total 0\n"
            "dip_parallel_relaxed_total 0\n"
            "dip_parallel_fallback_total 0\n"
            "dip_flow_cache_hits_total 6\n"
            "dip_flow_cache_misses_total 2\n"
            "dip_flow_cache_hit_rate 0.75\n"
            "dip_fn_executions_total{fn=\"key1\"} 16\n"
            "dip_fn_executions_total{fn=\"key4\"} 4\n");

  // A KeyNamer swaps the fallback slot names for Table-1 notation.
  StatsWriter named;
  write_counter_snapshot(named, s, {}, +[](std::size_t slot) {
    return core::op_key_name(static_cast<core::OpKey>(slot));
  });
  EXPECT_NE(named.text().find("dip_fn_executions_total{fn=\"F_32_match\"} 16"),
            std::string::npos);
  EXPECT_NE(named.text().find("dip_fn_executions_total{fn=\"F_FIB\"} 4"),
            std::string::npos);
}

TEST(Exposition, RegistryComposesNamedSectionsAndSkipsEmpty) {
  StatsRegistry registry;
  registry.add("first", [](StatsWriter& w) { w.counter("a_total", {}, 1); });
  registry.add("empty", [](StatsWriter&) {});
  registry.add("second", [](StatsWriter& w) { w.counter("b_total", {}, 2); });
  EXPECT_EQ(registry.render(),
            "# == first ==\n"
            "a_total 1\n"
            "# == second ==\n"
            "b_total 2\n");
}

// --------------------------------------------------- router-level wiring

core::RouterEnv stats_env(std::uint32_t sample_period, std::uint32_t burst_period) {
  core::RouterEnv env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  RouterStatsConfig cfg;
  cfg.sample_period = sample_period;
  cfg.burst_period = burst_period;
  cfg.trace_capacity = 64;
  env.stats = make_router_stats(cfg);
  return env;
}

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst) {
  return core::make_dip32_header(fib::ipv4_from_u32(dst),
                                 fib::ipv4_from_u32(0xC0A80001))
      ->serialize();
}

TEST(RouterStatsWiring, SamplePeriodOneRecordsEveryPacket) {
  static const auto registry = netsim::make_default_registry();
  core::Router router(stats_env(/*sample_period=*/1, /*burst_period=*/1),
                      registry.get());

  constexpr std::size_t kBurst = 8;
  std::vector<std::vector<std::uint8_t>> packets;
  std::vector<core::PacketRef> refs;
  for (std::size_t i = 0; i < kBurst; ++i) {
    packets.push_back(dip32_packet(0x0A000000 + static_cast<std::uint32_t>(i)));
  }
  for (auto& p : packets) refs.emplace_back(p);
  std::vector<core::ProcessResult> results(kBurst);
  router.process_batch(refs, /*ingress=*/5, /*now=*/777, results);

  RouterStats& stats = *router.env().stats;
  // One burst => one sample in each phase histogram.
  EXPECT_EQ(stats.phase_bind.snapshot().count, 1u);
  EXPECT_EQ(stats.phase_validate.snapshot().count, 1u);
  EXPECT_EQ(stats.phase_dispatch.snapshot().count, 1u);
  // Every packet ran F_32_match + F_source; both were timed.
  const auto match = static_cast<std::size_t>(core::OpKey::kMatch32);
  const auto source = static_cast<std::size_t>(core::OpKey::kSource);
  EXPECT_EQ(stats.fn_ns[match].snapshot().count, kBurst);
  EXPECT_EQ(stats.fn_ns[source].snapshot().count, kBurst);
  EXPECT_GT(stats.fn_ns[match].snapshot().sum, 0u);

  // Every packet left one trace record carrying its FN program and verdict.
  std::vector<TraceRecord> records;
  EXPECT_EQ(stats.trace.drain(records), kBurst);
  const auto header = core::DipHeader::parse(packets[0]);
  ASSERT_TRUE(header.has_value());
  for (const auto& r : records) {
    EXPECT_EQ(r.sim_now, 777u);
    EXPECT_EQ(r.ingress, 5u);
    EXPECT_EQ(r.action, static_cast<std::uint8_t>(core::Action::kForward));
    EXPECT_EQ(r.egress_count, 1u);
    ASSERT_EQ(r.fn_count, header->fns.size());
    for (std::size_t f = 0; f < r.fn_count; ++f) {
      EXPECT_EQ(r.fns[f].field_loc, header->fns[f].field_loc);
      EXPECT_EQ(r.fns[f].field_len, header->fns[f].field_len);
      EXPECT_EQ(r.fns[f].op, header->fns[f].op);
    }
  }
}

TEST(RouterStatsWiring, NullStatsRecordsNothingAndStillRoutes) {
  static const auto registry = netsim::make_default_registry();
  core::RouterEnv env = netsim::make_basic_env(1);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  ASSERT_EQ(env.stats, nullptr);
  core::Router router(std::move(env), registry.get());
  auto packet = dip32_packet(0x0A000001);
  const core::PacketRef ref(packet);
  std::vector<core::ProcessResult> results(1);
  router.process_batch({&ref, 1}, 0, 0, results);
  EXPECT_EQ(results[0].action, core::Action::kForward);
}

TEST(RouterStatsWiring, SamplerPicksAreDeterministicAcrossReplays) {
  static const auto registry = netsim::make_default_registry();
  auto run = [&](std::uint32_t period) {
    core::Router router(stats_env(period, /*burst_period=*/1), registry.get());
    for (std::uint32_t i = 0; i < 50; ++i) {
      auto packet = dip32_packet(0x0A000000 + i);
      const core::PacketRef ref(packet);
      std::vector<core::ProcessResult> results(1);
      router.process_batch({&ref, 1}, 0, i, results);
    }
    std::vector<TraceRecord> records;
    router.env().stats->trace.drain(records);
    std::vector<std::uint64_t> sampled_times;
    for (const auto& r : records) sampled_times.push_back(r.sim_now);
    return sampled_times;
  };
  const auto first = run(8);
  const auto second = run(8);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, (std::vector<std::uint64_t>{0, 8, 16, 24, 32, 40, 48}));
}

// A sampled packet runs exactly the code an unsampled one runs, so the
// per-FN histograms time the path every packet takes. One router samples
// every packet and burst, its twin installs no stats; fed the conformance
// stream in the same bursts, they agree on every verdict, rewritten byte,
// flow-cache hit, miss and eviction and every execution count, and the
// sampled router holds exactly one fn_ns sample per execution of each key.
TEST(RouterStatsWiring, SampledRouterRunsTheUnsampledPathAndTimesEveryExecution) {
  namespace cf = dip::conformance;
  namespace w = dip::proptest::world;
  const cf::SharedTables tables = cf::make_shared_tables();
  const auto registry = cf::make_registry(/*with_dps=*/false);
  const core::EnvFactory envf = cf::make_env_factory(tables);
  core::RouterEnv sampled_env = envf(0);
  sampled_env.stats = make_router_stats({.sample_period = 1, .burst_period = 1});
  core::Router sampled(std::move(sampled_env), registry.get());
  core::Router plain(envf(0), registry.get());

  std::uint64_t seed = 0x5EED'2026'10'19ull;
  for (const std::size_t burst : {1, 2, 7, 13, 32, 64}) {
    const auto stream = proptest::gen::make_conformance_stream(seed++, 1'500);
    for (std::size_t first = 0; first < stream.size(); first += burst) {
      const std::size_t n = std::min(burst, stream.size() - first);
      std::vector<std::vector<std::uint8_t>> a(stream.begin() + first,
                                               stream.begin() + first + n);
      std::vector<std::vector<std::uint8_t>> b = a;
      const std::vector<core::PacketRef> refs_a(a.begin(), a.end());
      const std::vector<core::PacketRef> refs_b(b.begin(), b.end());
      std::vector<core::ProcessResult> got(n), want(n);
      sampled.process_batch(refs_a, w::ingress_of(first), w::now_of(first), got);
      plain.process_batch(refs_b, w::ingress_of(first), w::now_of(first), want);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(cf::image_of(got[i]), cf::image_of(want[i]))
            << "burst " << burst << ", packet " << first + i << ": "
            << cf::to_string(cf::image_of(got[i])) << " vs "
            << cf::to_string(cf::image_of(want[i]));
        ASSERT_EQ(a[i], b[i]) << "burst " << burst << ", packet " << first + i;
      }
    }
  }

  const CounterSnapshot s = sampled.env().counters.snapshot();
  const CounterSnapshot p = plain.env().counters.snapshot();
  EXPECT_GT(s.flow_cache_hits, 0u);
  EXPECT_GT(s.flow_cache_misses, 0u);
  EXPECT_EQ(s.flow_cache_hits, p.flow_cache_hits);
  EXPECT_EQ(s.flow_cache_misses, p.flow_cache_misses);
  EXPECT_EQ(sampled.env().flow_cache->evictions(), plain.env().flow_cache->evictions());
  EXPECT_EQ(s.fn_executed, p.fn_executed);
  const RouterStats& stats = *sampled.env().stats;
  for (std::size_t k = 0; k < s.fn_by_key.size(); ++k) {
    const std::string key(core::op_key_name(static_cast<core::OpKey>(k)));
    EXPECT_EQ(s.fn_by_key[k], p.fn_by_key[k]) << key;
    EXPECT_EQ(stats.fn_ns[k].snapshot().count, s.fn_by_key[k]) << key;
  }
  // The kernels the wave path batches all ran, so all were timed.
  for (const core::OpKey key : {core::OpKey::kMatch32, core::OpKey::kMatch128,
                                core::OpKey::kFib, core::OpKey::kParm,
                                core::OpKey::kMac}) {
    EXPECT_GT(s.fn_by_key[static_cast<std::size_t>(key)], 0u) << core::op_key_name(key);
  }
}

// ------------------------------------------------------------ pool rollup

/// Parse every `name{...} value` (or `name value`) line of an exposition
/// page into (series-with-labels -> value), skipping comments.
void parse_exposition(const std::string& text, std::map<std::string, double>& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
}

TEST(RouterPoolStats, PerWorkerSeriesSumToFleetSeries) {
  auto registry = netsim::make_default_registry();
  core::RouterPoolConfig config;
  config.workers = 2;
  config.ring_capacity = 1024;
  core::RouterPool pool(
      registry.get(),
      [](std::size_t i) {
        core::RouterEnv env = netsim::make_basic_env(static_cast<std::uint32_t>(i));
        env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
        RouterStatsConfig cfg;
        cfg.sample_period = 4;
        cfg.burst_period = 1;
        env.stats = make_router_stats(cfg);
        return env;
      },
      config);
  for (std::uint32_t i = 0; i < 400; ++i) {
    pool.submit(dip32_packet(0x0A000000 + i % 64), 0, i);
  }
  pool.drain();

  const std::string page = pool.dump_stats();
  std::map<std::string, double> series;
  ASSERT_NO_FATAL_FAILURE(parse_exposition(page, series));

  for (const char* name :
       {"dip_packets_processed_total", "dip_packets_forwarded_total",
        "dip_packets_dropped_total", "dip_fn_executed_total",
        "dip_flow_cache_hits_total"}) {
    ASSERT_TRUE(series.contains(name)) << name << "\n" << page;
    double worker_sum = 0;
    for (std::size_t w = 0; w < pool.workers(); ++w) {
      const std::string labelled =
          std::string(name) + "{worker=\"" + std::to_string(w) + "\"}";
      ASSERT_TRUE(series.contains(labelled)) << labelled << "\n" << page;
      worker_sum += series[labelled];
    }
    EXPECT_DOUBLE_EQ(series[name], worker_sum) << name;
  }
  EXPECT_EQ(series["dip_packets_processed_total"], 400.0);

  // The merged trace meter equals the sum over the workers' rings, and the
  // fleet phase/fn histogram counts roll up the same way.
  double pushed = 0;
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    pushed += static_cast<double>(pool.router(w).env().stats->trace.pushed());
  }
  EXPECT_EQ(series["dip_trace_sampled_total"], pushed);
  ASSERT_TRUE(series.contains("dip_phase_latency_ns_count{phase=\"dispatch\"}"));
  double dispatch_bursts = 0;
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    dispatch_bursts += static_cast<double>(
        pool.router(w).env().stats->phase_dispatch.snapshot().count);
  }
  EXPECT_EQ(series["dip_phase_latency_ns_count{phase=\"dispatch\"}"],
            dispatch_bursts);

  // Queue depths are exposed per worker (drained pool => zero).
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    const std::string depth =
        "dip_worker_queue_depth{worker=\"" + std::to_string(w) + "\"}";
    ASSERT_TRUE(series.contains(depth)) << depth << "\n" << page;
    EXPECT_EQ(series[depth], 0.0);
  }
  pool.stop();
}

TEST(NodeStats, DumpCarriesNodeLabelAndDropLedger) {
  auto registry = netsim::make_default_registry();
  core::RouterEnv env = netsim::make_basic_env(42);
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  RouterStatsConfig cfg;
  cfg.sample_period = 1;
  cfg.burst_period = 1;
  env.stats = make_router_stats(cfg);
  netsim::DipRouterNode node(std::move(env), registry);
  netsim::Network net;
  net.add_node(node);

  node.on_packet(0, dip32_packet(0x0A000001), 0);
  node.on_packet(0, std::vector<std::uint8_t>{0x00, 0x01}, 0);  // malformed

  const std::string page = node.dump_stats();
  EXPECT_NE(page.find("dip_packets_processed_total{node=\"42\"} 2"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("dip_node_drops_total{node=\"42\",reason="),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("dip_fn_latency_ns{node=\"42\",fn=\"F_32_match\""),
            std::string::npos)
      << page;
}

}  // namespace
}  // namespace dip::telemetry
