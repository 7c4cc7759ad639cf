// pool_dip32 — a core::RouterPool with nproc-1 workers, fed by the
// benchmark thread as its single dispatcher with a fixed number of packets
// in flight (a closed loop).
//
// Why this workload: bare DIP-32 at the smallest frame size to a
// destination set smaller than the flow cache keeps per-packet router work
// minimal, so dispatch, ring, wake and completion overhead dominate. Route
// flaps go through ControlTables/RouteJournal on a fixed per-packet
// schedule, published from the dispatcher thread: the RCU publishes are FIB
// writes running beside the workers' reads, and each one invalidates the
// flow caches. The pool uses RouterPoolConfig{} except for the worker count.
#include <cstring>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "dip/core/ip.hpp"
#include "dip/core/ring.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/fib/synth.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DIPBENCH_PAUSE() _mm_pause()
#else
#define DIPBENCH_PAUSE() std::this_thread::yield()
#endif

namespace perfbench {

using namespace dip;

namespace {

constexpr std::size_t kRoutes = 16'384;
// Uniform over fewer destinations than the 4096-slot default flow cache: a
// skewed draw would let a few heavy flows decide each seed's shard balance.
constexpr std::size_t kDests = 2'048;
constexpr std::size_t kTrace = 1u << 16;
constexpr std::size_t kPacketSize = 128;   // the paper's smallest frame
constexpr std::size_t kSeqOffset = 32;     // payload bytes carrying the sequence number
constexpr std::size_t kInFlight = 256;
constexpr std::size_t kSlots = 4096;       // > kInFlight; power of two
constexpr std::uint64_t kFlapEvery = 16'384;  // packets between route flaps
constexpr std::size_t kRebuilds = 24;  // set-ups repeated during an untraced run
// Long windows: a pool window's p99 is set by worker wake-ups, a tail
// that short windows sample too thinly.
constexpr std::uint64_t kWindowNs = 500'000'000;
constexpr std::uint64_t kSegmentNs = 500'000'000;
constexpr core::FaceId kIngress = 7;
constexpr std::uint64_t kStallNs = 2'000'000'000;

std::uint32_t egress_code(const core::ProcessResult& r) {
  if (r.action != core::Action::kForward) return 0x8000'0000u | static_cast<std::uint32_t>(r.reason);
  return r.egress.size() == 1 ? r.egress[0] : ~static_cast<std::uint32_t>(r.egress.size());
}

/// Per-sequence-slot completion record, written by the worker that
/// completed the packet and read by the dispatcher after `done` flips.
struct alignas(64) Slot {
  std::uint64_t submit_ns = 0;
  std::uint64_t complete_ns = 0;
  std::uint64_t ring_wait_ns = 0;
  std::uint32_t expected = 0;
  std::uint32_t got = 0;
  std::atomic<std::uint64_t> done{~std::uint64_t{0}};
};

struct alignas(64) WorkerProbe {
  std::atomic<long> tid{0};
  std::atomic<std::uint64_t> packets{0};  ///< completions on this worker
};

/// Worker thread CPU time from the scheduler (ns on CPU).
std::uint64_t task_cpu_ns(long tid) {
  std::FILE* f = std::fopen(("/proc/self/task/" + std::to_string(tid) + "/schedstat").c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long ns = 0;
  if (std::fscanf(f, "%llu", &ns) != 1) ns = 0;
  std::fclose(f);
  return ns;
}

struct Setup {
  core::RouterEnv tables;
  std::shared_ptr<ctrl::ControlTables> control;
  std::unique_ptr<ctrl::RouteJournal> journal;
  std::unique_ptr<core::RouterPool> pool;
};

}  // namespace

int run_pool_dip32(const RunConfig& cfg, Report& report) {
  // ---- inputs (outside every timed call) ----
  const auto routes = fib::synth::ipv4_table(kRoutes, cfg.seed);
  crypto::Xoshiro256 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 23);
  std::vector<std::vector<std::uint8_t>> templates;
  std::vector<fib::Ipv4Addr> dests;
  const fib::Ipv4Addr src = fib::ipv4_from_u32(0xC0A80001u);
  for (std::size_t i = 0; i < kDests; ++i) {
    const auto& p = routes[rng.below(routes.size())].prefix;
    fib::Ipv4Addr a = fib::ipv4_from_u32(static_cast<std::uint32_t>(rng.next()));
    for (std::size_t b = 0; b < p.length; ++b) a.set_bit(b, p.addr.bit(b));
    dests.push_back(a);
    auto t = core::make_dip32_header(a, src)->serialize();
    t.resize(kPacketSize, 0xA5);
    templates.push_back(std::move(t));
  }
  std::vector<std::uint32_t> trace(kTrace);
  for (auto& t : trace) t = static_cast<std::uint32_t>(rng.below(kDests));
  const fib::Ipv4Addr probe_addr =
      fib::ipv4_from_u32(0xF0000000u | static_cast<std::uint32_t>(rng.below(1u << 24)));
  auto probe_template = core::make_dip32_header(probe_addr, src)->serialize();
  probe_template.resize(kPacketSize, 0xA5);

  const auto registry = netsim::make_default_registry();
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  core::RouterPoolConfig pool_cfg;
  pool_cfg.workers = hw - 1;

  std::vector<Slot> slots(kSlots);
  std::vector<std::unique_ptr<core::SpscRing<std::vector<std::uint8_t>>>> returns;
  std::vector<WorkerProbe> workers(pool_cfg.workers);
  for (std::size_t i = 0; i < pool_cfg.workers; ++i) {
    returns.push_back(std::make_unique<core::SpscRing<std::vector<std::uint8_t>>>(2 * kInFlight));
  }
  auto on_complete = [&](std::size_t worker, core::RouterPool::Item& item,
                         core::ProcessResult& result) {
    std::uint64_t seq = 0;
    std::memcpy(&seq, item.packet.data() + kSeqOffset, sizeof seq);
    Slot& s = slots[seq % kSlots];
    s.complete_ns = now_ns();
    s.got = egress_code(result);
    const std::uint64_t batch_start = last_batch_start_ns();
    s.ring_wait_ns = batch_start > s.submit_ns ? batch_start - s.submit_ns : 0;
    WorkerProbe& wp = workers[worker];
    if (wp.tid.load(std::memory_order_relaxed) == 0) {
      wp.tid.store(current_tid(), std::memory_order_relaxed);
    }
    wp.packets.fetch_add(1, std::memory_order_relaxed);
    s.done.store(seq, std::memory_order_release);
    (void)returns[worker]->try_push(std::move(item.packet));
  };

  // ---- setup (repeated during untraced runs; see the timed loop) ----
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  auto build = [&] {
    setup.reset();
    const std::uint64_t t0 = now_ns();
    auto s = std::make_unique<Setup>();
    s->tables = netsim::make_basic_env(0);
    for (const auto& r : routes) s->tables.fib32->insert(r.prefix, r.nh);
    s->control = std::make_shared<ctrl::ControlTables>();
    s->journal = std::make_unique<ctrl::RouteJournal>(s->control);
    s->journal->seed(s->tables.fib32.get());
    s->pool = std::make_unique<core::RouterPool>(
        registry.get(),
        [&](std::size_t w) {
          core::RouterEnv env = netsim::make_basic_env(static_cast<std::uint32_t>(w + 1));
          env.control = s->control;
          env.ctrl_reader = env.control->register_reader();
          return env;
        },
        pool_cfg, on_complete);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup = std::move(s);
    for (WorkerProbe& wp : workers) wp.tid.store(0, std::memory_order_relaxed);
  };
  build();

  // Expected verdicts: the LPM answer of the published table per destination.
  std::vector<std::uint32_t> expected(kDests);
  for (std::size_t i = 0; i < kDests; ++i) {
    const auto nh = setup->tables.fib32->lookup(dests[i]);
    expected[i] = nh ? *nh : (0x8000'0000u | static_cast<std::uint32_t>(core::DropReason::kNoRoute));
  }

  // ---- closed loop ----
  Tracer tracer;
  std::uint64_t submitted = 0, consumed = 0, trace_pos = 0;
  std::size_t next_return = 0;
  core::FaceId probe_nh = 0;
  std::uint64_t probe_seq = ~std::uint64_t{0}, flap_t0 = 0, next_flap = kFlapEvery;
  std::size_t flaps = 0;
  std::vector<double> flush_ns;
  bool in_traced = false;
  std::uint64_t seg_t0 = 0, traced_wall = 0, traced_busy = 0, traced_pkts = 0;
  std::uint64_t depth_sum = 0, depth_samples = 0, ring_wait_sum = 0, ring_wait_n = 0;
  std::uint64_t cpu_sum = 0, ctx_sum = 0;
  std::vector<std::uint64_t> seg_cpu(workers.size()), seg_ctx(workers.size() + 1);
  std::vector<std::uint64_t> seg_worker_pkts(workers.size()), traced_worker_pkts(workers.size());
  const long dispatcher_tid = current_tid();
  telemetry::CounterSnapshot seg_counters, traced_counters;

  auto submit = [&](std::vector<std::uint8_t> buf, std::uint32_t expect) {
    const std::uint64_t seq = submitted++;
    std::memcpy(buf.data() + kSeqOffset, &seq, sizeof seq);
    Slot& s = slots[seq % kSlots];
    s.expected = expect;
    s.submit_ns = now_ns();
    if (in_traced) {
      for (std::size_t w = 0; w < setup->pool->workers(); ++w) depth_sum += setup->pool->queue_depth(w);
      ++depth_samples;
    }
    Scoped span(tracer, "pool.submit", seq);
    setup->pool->submit(std::move(buf), kIngress, 0);
    return seq;
  };
  auto next_buffer = [&] {
    std::vector<std::uint8_t> buf;
    for (std::size_t r = 0; r < returns.size(); ++r) {
      next_return = (next_return + 1) % returns.size();
      if (returns[next_return]->try_pop(buf)) break;
    }
    return buf;
  };

  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  WindowSeries plain(kWindowNs, t_start), traced(kWindowNs, t_start);
  auto set_traced = [&](bool on, std::uint64_t t) {
    if (on == in_traced) return;
    if (on) {
      seg_t0 = t;
      seg_counters = setup->pool->counters();
      for (std::size_t w = 0; w < workers.size(); ++w) {
        const long tid = workers[w].tid.load(std::memory_order_relaxed);
        seg_cpu[w] = tid ? task_cpu_ns(tid) : 0;
        seg_ctx[w] = tid ? thread_ctx_switches(tid) : 0;
        seg_worker_pkts[w] = workers[w].packets.load(std::memory_order_relaxed);
      }
      seg_ctx.back() = thread_ctx_switches(dispatcher_tid);
    } else {
      traced_wall += t - seg_t0;
      const auto c = setup->pool->counters();
      traced_counters.flow_cache_hits += c.flow_cache_hits - seg_counters.flow_cache_hits;
      traced_counters.flow_cache_misses += c.flow_cache_misses - seg_counters.flow_cache_misses;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        const long tid = workers[w].tid.load(std::memory_order_relaxed);
        if (tid) {
          cpu_sum += task_cpu_ns(tid) - seg_cpu[w];
          ctx_sum += thread_ctx_switches(tid) - seg_ctx[w];
        }
        traced_worker_pkts[w] += workers[w].packets.load(std::memory_order_relaxed) - seg_worker_pkts[w];
      }
      ctx_sum += thread_ctx_switches(dispatcher_tid) - seg_ctx.back();
    }
    in_traced = on;
    probes().on.store(on, std::memory_order_relaxed);
    tracer.set_enabled(on);
  };
  if (cfg.trace) probes().reset();

  // Completions are checked in submission order, but the closed loop
  // counts packets in flight by completions: a packet parked in a worker
  // ring below the pool's wake threshold must not hold back submissions,
  // or the ring it waits in would never fill.
  auto in_flight = [&] {
    std::uint64_t done = 0;
    for (const WorkerProbe& wp : workers) done += wp.packets.load(std::memory_order_acquire);
    return submitted - done;
  };
  // Completions are charged to the window the dispatcher sees them in, the
  // clock its busy time is charged by.
  auto consume = [&] {
    std::size_t n = 0;
    const std::uint64_t t = now_ns();
    while (consumed < submitted) {
      Slot& s = slots[consumed % kSlots];
      if (s.done.load(std::memory_order_acquire) != consumed) break;
      const bool ok = s.got == s.expected;
      Window& w = (in_traced ? traced : plain).at(t);
      w.ok += ok;
      w.latency.add(s.complete_ns - s.submit_ns);
      report.failed += !ok;
      if (in_traced) {
        ++traced_pkts;
        ring_wait_sum += s.ring_wait_ns;
        ++ring_wait_n;
      }
      if (consumed == probe_seq) {
        w.reconverge_ms.push_back(static_cast<double>(s.complete_ns - flap_t0) / 1e6);
        probe_seq = ~std::uint64_t{0};
        ++flaps;
      }
      ++consumed;
      ++n;
    }
    return n;
  };

  std::uint64_t t_prev = t_start, last_progress = t_start;
  bool stalled = false;
  std::size_t rebuilds_done = 0;
  for (std::uint64_t t = now_ns(); t < t_end; t = now_ns()) {
    if (cfg.trace) set_traced(((t - t_start) / kSegmentNs) % 2 == 1, t);
    const std::uint64_t busy_t0 = now_ns();
    bool worked = consume() > 0;

    // Untraced runs repeat the set-up at points spread over the run, so
    // setup_s samples more than one host phase: drain the packets in
    // flight, then rebuild tables and pool.
    if (!cfg.trace && rebuilds_done < kRebuilds &&
        t >= t_start + (rebuilds_done + 1) * (t_end - t_start) / (kRebuilds + 1)) {
      setup->pool->drain();
      consume();
      build();
      ++rebuilds_done;
      t_prev = last_progress = now_ns();
      continue;
    }

    const bool room = in_flight() < kInFlight;
    if (submitted - consumed >= kSlots - kInFlight) {
      // The oldest packet has waited in a parked worker's ring for
      // thousands of submissions: flush the tail, as drain() documents.
      setup->pool->drain();
      worked = consume() > 0;
    } else if (room && submitted >= next_flap && probe_seq == ~std::uint64_t{0}) {
      // Route flap on the per-packet schedule: publish, then send a probe
      // that must already follow the new route. The next flap waits for
      // the previous probe so every verdict stays determined.
      probe_nh = static_cast<core::FaceId>(probe_nh == 20 ? 21 : 20);
      flap_t0 = now_ns();
      {
        // The table clone is control-plane work, not per-packet allocation.
        Scoped span(tracer, "ctrl.flush", submitted);
        probes().on.store(false, std::memory_order_relaxed);
        setup->journal->add_route32({probe_addr, 32}, probe_nh);
        setup->journal->flush();
        probes().on.store(in_traced, std::memory_order_relaxed);
      }
      flush_ns.push_back(static_cast<double>(setup->journal->stats().last_flush_ns));
      std::vector<std::uint8_t> buf = next_buffer();
      buf.assign(probe_template.begin(), probe_template.end());
      probe_seq = submit(std::move(buf), probe_nh);
      next_flap += kFlapEvery;
      worked = true;
    } else if (room) {
      std::vector<std::uint8_t> buf = next_buffer();
      const std::uint32_t d = trace[trace_pos];
      if (++trace_pos == kTrace) trace_pos = 0;
      buf.assign(templates[d].begin(), templates[d].end());
      (void)submit(std::move(buf), expected[d]);
      worked = true;
    } else {
      DIPBENCH_PAUSE();
    }
    const std::uint64_t t_after = now_ns();
    Window& w = (in_traced ? traced : plain).at(t_after);
    w.busy_ns += t_after - t_prev;
    if (in_traced && worked) traced_busy += t_after - busy_t0;
    t_prev = t_after;
    if (worked) {
      last_progress = t_after;
    } else if (t_after - last_progress > kStallNs) {
      stalled = true;
      break;
    }
  }
  set_traced(false, now_ns());
  setup->pool->drain();
  consume();
  const std::uint64_t t_done = now_ns();
  plain.close(t_done);
  traced.close(t_done);

  report.attempted += submitted;
  if (stalled) report.fail("pool_dip32: no completion for 2 s");
  if (consumed != submitted) {
    report.failed += submitted - consumed;
    report.fail("pool_dip32: completions do not equal submissions");
  }
  if (report.failed != 0) report.fail("pool_dip32: verdicts differ from the FIB's answers");
  if (setup->pool->shed_total() != 0) report.fail("pool_dip32: packets were shed");

  report.set_window_metrics(plain);
  report.set("setup_s", median(setup_s), "s");
  report.set("rss_mib", peak_rss_mib(), "MiB");
  report.diag["workers"] = static_cast<double>(setup->pool->workers());
  report.diag["flaps"] = static_cast<double>(flaps);

  if (cfg.trace) {
    const Probes& p = probes();
    const double pkts = static_cast<double>(std::max<std::uint64_t>(traced_pkts, 1));
    const double wall = static_cast<double>(std::max<std::uint64_t>(traced_wall, 1));
    const Tracer::Totals submits = tracer.totals_of("pool.submit");
    report.set("pool.submit_ns",
               submits.count ? static_cast<double>(submits.total_ns) / submits.count : 0.0,
               "ns");
    report.set("pool.dispatcher_busy_ratio", static_cast<double>(traced_busy) / wall, "1");
    report.set("pool.worker_cpu_ratio",
               static_cast<double>(cpu_sum) / wall / static_cast<double>(workers.size()), "1");
    std::uint64_t max_pkts = 0, all_pkts = 0;
    for (const std::uint64_t n : traced_worker_pkts) {
      max_pkts = std::max(max_pkts, n);
      all_pkts += n;
    }
    report.set("pool.worker_share_max",
               all_pkts ? static_cast<double>(max_pkts) / static_cast<double>(all_pkts) : 0.0, "1");
    report.set("pool.ctx_switches_per_kpkt", static_cast<double>(ctx_sum) * 1000.0 / pkts, "count");
    report.set("pool.queue_depth_mean",
               depth_samples ? static_cast<double>(depth_sum) /
                                   static_cast<double>(depth_samples * workers.size())
                             : 0.0,
               "count");
    report.set("pool.ring_wait_us",
               ring_wait_n ? static_cast<double>(ring_wait_sum) / ring_wait_n / 1e3 : 0.0, "us");
    report.set("core.batch_ns_per_pkt",
               p.batch_pkts.load() ? static_cast<double>(p.batch.ns.load()) /
                                         static_cast<double>(p.batch_pkts.load())
                                   : 0.0,
               "ns");
    report.set("core.flow_cache_hit_ratio", traced_counters.flow_cache_hit_rate(), "1");
    report.set("core.allocs_per_pkt", static_cast<double>(p.allocs.load()) / pkts, "count");
    report.set("trace.overhead_share",
               1.0 - quantile(traced.rates(), kRateRank) / quantile(plain.rates(), kRateRank),
               "1");
    const ctrl::JournalStats& js = setup->journal->stats();
    report.set("ctrl.flush_ns_p50", median(flush_ns), "ns");
    report.set("ctrl.flush_ns_max", static_cast<double>(js.max_flush_ns), "ns");
    report.set("ctrl.publishes", static_cast<double>(js.snapshots_published), "count");
    report_span_totals(tracer, report);
    if (!cfg.trace_path.empty() && !tracer.write(cfg.trace_path)) {
      report.fail("cannot write spans to " + cfg.trace_path);
    }
  }
  setup->pool->stop();
  return 0;
}

}  // namespace perfbench
