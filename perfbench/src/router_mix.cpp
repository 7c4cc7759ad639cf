// router_mix — one core::Router, one thread, 32-packet bursts over a seeded
// trace of packet trains across the six Table-1 compositions.
//
// Why this workload: bind/validate/dispatch, the FN modules, crypto and the
// FIB do all the work, with no I/O. Trains of one composition give uniform
// bursts (the uniform-wave plan); train boundaries and the NDN/OPT pairs
// give mixed, multi-stateful bursts (classification and legacy demotion).
// Destinations follow a Zipf law over an Internet-scale fib::synth table
// with far more destinations than the default 4096-slot flow cache holds,
// so the FIB sees a steady miss stream.
//
// Every table comes from the program's defaults: netsim::make_basic_env
// (its FIB engines and flow cache) and make_default_registry. The tables
// are handed to a RouteJournal (the control-plane path), which publishes
// them to the router through ControlTables; route flaps on a probe prefix
// measure how long a route change takes to reach the data path.
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/fib/synth.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/xia/xia.hpp"

namespace perfbench {

using namespace dip;

namespace {

constexpr std::size_t kRoutes4 = 500'000;
constexpr std::size_t kRoutes6 = 100'000;
constexpr std::size_t kDst4 = 65'536;  // 16x the default flow cache
constexpr std::size_t kDst6 = 16'384;
constexpr std::size_t kNames = 8'192;
constexpr std::size_t kOptTemplates = 256;
constexpr std::size_t kXiaServices = 256;
constexpr double kZipf = 0.9;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kTrace = 1u << 16;  // packets; a multiple of kBurst
constexpr std::size_t kRebuilds = 4;  // set-ups repeated during an untraced run
constexpr std::size_t kFlaps = 24;
// A window spans whole passes over the trace, so which part of the trace a
// window saw does not decide its rate.
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr std::uint64_t kSegmentNs = 500'000'000;
constexpr core::FaceId kIngress = 7;
constexpr core::FaceId kDefaultFace = 1;
// The probe route's next hop between flaps, and during one.
constexpr core::FaceId kHomeFace = 21;
constexpr core::FaceId kFlapFace = 20;
constexpr std::size_t kSizes[] = {128, 768, 1500};  // the paper's frame sizes

enum class Kind : std::uint8_t { kDip32, kDip128, kNdn, kOpt, kNdnOpt, kXia };

struct TracePacket {
  std::uint32_t tmpl = 0;
  std::uint16_t size = 0;
};

/// The seeded inputs: route tables, packet templates and the trace.
struct Inputs {
  std::vector<fib::synth::SynthRoute<32>> routes4;
  std::vector<fib::synth::SynthRoute<128>> routes6;
  std::vector<std::pair<fib::Xid, fib::Xid>> xia;  // (ad, sid) per service
  std::vector<std::vector<std::uint8_t>> templates;
  std::vector<std::uint32_t> dip32_tmpl_dst;  // template index -> dst (dip32 only)
  std::vector<fib::Ipv4Addr> dst4;
  std::vector<fib::Ipv6Addr> dst6;
  std::vector<TracePacket> trace;
  fib::Ipv4Addr probe;  ///< flap target: a host route no trace packet uses
};

template <std::size_t W>
fib::Address<W> host_in(const fib::Prefix<W>& p, crypto::Xoshiro256& rng) {
  fib::Address<W> a{};
  for (auto& b : a.bytes) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t i = 0; i < p.length; ++i) a.set_bit(i, p.addr.bit(i));
  return a;
}

std::uint32_t u32_of(const fib::Ipv4Addr& a) {
  return (std::uint32_t{a.bytes[0]} << 24) | (std::uint32_t{a.bytes[1]} << 16) |
         (std::uint32_t{a.bytes[2]} << 8) | a.bytes[3];
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  crypto::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  in.routes4 = fib::synth::ipv4_table(kRoutes4, seed);
  in.routes6 = fib::synth::ipv6_table(kRoutes6, seed);
  for (std::size_t i = 0; i < kDst4; ++i) {
    in.dst4.push_back(host_in(in.routes4[rng.below(in.routes4.size())].prefix, rng));
  }
  for (std::size_t i = 0; i < kDst6; ++i) {
    in.dst6.push_back(host_in(in.routes6[rng.below(in.routes6.size())].prefix, rng));
  }
  // The probe address sits in 240/4 (reserved space the synthesizer never
  // draws), so its host route changes no traffic verdict.
  in.probe = fib::ipv4_from_u32(0xF0000000u | static_cast<std::uint32_t>(rng.below(1u << 24)));

  const fib::Ipv4Addr src = fib::ipv4_from_u32(0xC0A80001u);
  const fib::Ipv6Addr src6 = host_in(in.routes6.front().prefix, rng);
  auto add = [&in](const bytes::Result<core::DipHeader>& h) {
    in.templates.push_back(h->serialize());
    return static_cast<std::uint32_t>(in.templates.size() - 1);
  };

  std::vector<std::uint32_t> dip32(kDst4), dip128(kDst6);
  for (std::size_t i = 0; i < kDst4; ++i) dip32[i] = add(core::make_dip32_header(in.dst4[i], src));
  for (std::size_t i = 0; i < kDst6; ++i) {
    dip128[i] = add(core::make_dip128_header(in.dst6[i], src6));
  }
  // NDN name codes resolve through fib32 (F_FIB), so draw them inside
  // installed prefixes too.
  std::vector<std::array<std::uint32_t, 2>> ndn(kNames), ndn_opt(kNames);
  const std::vector<crypto::Block> secrets{netsim::make_basic_env(1).node_secret};
  const opt::Session session = opt::negotiate_session(rng.block(), secrets, rng.block());
  const std::vector<std::uint8_t> payload = {'d', 'i', 'p', 'b'};
  for (std::size_t i = 0; i < kNames; ++i) {
    const std::uint32_t code =
        u32_of(host_in(in.routes4[rng.below(in.routes4.size())].prefix, rng));
    ndn[i] = {add(ndn::make_interest_header32(code)), add(ndn::make_data_header32(code))};
    ndn_opt[i] = {add(opt::make_ndn_opt_header(code, true, session, payload, 1000)),
                  add(opt::make_ndn_opt_header(code, false, session, payload, 1000))};
  }
  std::vector<std::uint32_t> opt_t(kOptTemplates);
  for (std::size_t i = 0; i < kOptTemplates; ++i) {
    opt_t[i] = add(opt::make_opt_header(session, payload, static_cast<std::uint32_t>(1000 + i)));
  }
  std::vector<std::uint32_t> xia_t(kXiaServices);
  for (std::size_t i = 0; i < kXiaServices; ++i) {
    const fib::Xid ad = xia::xid_from_label("ad-" + std::to_string(seed) + "-" + std::to_string(i));
    const fib::Xid sid = xia::xid_from_label("sid-" + std::to_string(i));
    in.xia.emplace_back(ad, sid);
    xia_t[i] = add(xia::make_xia_header(xia::make_service_dag(
        ad, xia::xid_from_label("hid-" + std::to_string(i)), fib::XidType::kSid, sid)));
  }

  netsim::ZipfSampler zipf4(kDst4, kZipf, seed + 1);
  netsim::ZipfSampler zipf6(kDst6, kZipf, seed + 2);
  netsim::ZipfSampler zipf_names(kNames, kZipf, seed + 3);
  // Trains come in rounds: a round holds one train of every (composition,
  // size) pair, in a seeded order and of one seeded length. Every seed's
  // trace then carries the same mix; seeds differ in order, train lengths
  // and destinations.
  std::vector<std::pair<Kind, std::uint16_t>> round;
  for (int k = 0; k <= static_cast<int>(Kind::kXia); ++k) {
    for (const std::size_t size : kSizes) {
      round.emplace_back(static_cast<Kind>(k), static_cast<std::uint16_t>(size));
    }
  }
  in.trace.reserve(kTrace);
  while (in.trace.size() < kTrace) {
    const std::size_t length = 4 + rng.below(61);
    for (std::size_t i = round.size(); i > 1; --i) std::swap(round[i - 1], round[rng.below(i)]);
    for (const auto& [kind, size] : round) {
      std::size_t train = length;
      while (train > 0 && in.trace.size() < kTrace) {
        switch (kind) {
          case Kind::kDip32:
            in.trace.push_back({dip32[zipf4.sample()], size});
            break;
          case Kind::kDip128:
            in.trace.push_back({dip128[zipf6.sample()], size});
            break;
          case Kind::kOpt:
            in.trace.push_back({opt_t[rng.below(kOptTemplates)], size});
            break;
          case Kind::kXia:
            in.trace.push_back({xia_t[rng.below(kXiaServices)], size});
            break;
          case Kind::kNdn:
          case Kind::kNdnOpt: {
            // Interest then data for one name: every PIT entry is consumed,
            // so each pass over the trace starts from the same PIT state.
            if (in.trace.size() + 2 > kTrace) {
              in.trace.push_back({dip32[zipf4.sample()], size});
              break;
            }
            const auto& pair = (kind == Kind::kNdn ? ndn : ndn_opt)[zipf_names.sample()];
            in.trace.push_back({pair[0], size});
            in.trace.push_back({pair[1], size});
            train = train > 1 ? train - 1 : 1;
            break;
          }
        }
        --train;
      }
    }
  }
  in.dip32_tmpl_dst.assign(in.templates.size(), ~std::uint32_t{0});
  for (std::size_t i = 0; i < kDst4; ++i) in.dip32_tmpl_dst[dip32[i]] = static_cast<std::uint32_t>(i);
  return in;
}

/// One built router with its tables (what setup_s times).
struct Node {
  core::RouterEnv tables;  ///< the make_basic_env tables the journal was seeded from
  std::shared_ptr<ctrl::ControlTables> control;
  std::unique_ptr<ctrl::RouteJournal> journal;
  std::unique_ptr<core::Router> router;
  double fib_build_s = 0;
};

core::RouterEnv reader_env(const Node& node) {
  core::RouterEnv env = netsim::make_basic_env(1);
  env.default_egress = kDefaultFace;
  env.control = node.control;
  env.ctrl_reader = env.control->register_reader();
  return env;
}

std::unique_ptr<Node> build_node(const Inputs& in, const core::OpRegistry* registry) {
  auto node = std::make_unique<Node>();
  const std::uint64_t t0 = now_ns();
  node->tables = netsim::make_basic_env(1);
  for (const auto& r : in.routes4) node->tables.fib32->insert(r.prefix, r.nh);
  for (const auto& r : in.routes6) node->tables.fib128->insert(r.prefix, r.nh);
  for (std::size_t i = 0; i < in.xia.size(); ++i) {
    node->tables.xid_table->insert(fib::XidType::kAd, in.xia[i].first, 2 + i % 8);
    node->tables.xid_table->insert(fib::XidType::kSid, in.xia[i].second, 2 + i % 8);
  }
  node->fib_build_s = static_cast<double>(now_ns() - t0) / 1e9;
  node->control = std::make_shared<ctrl::ControlTables>();
  node->journal = std::make_unique<ctrl::RouteJournal>(node->control);
  node->journal->seed(node->tables.fib32.get(), node->tables.fib128.get(),
                      node->tables.xid_table.get());
  node->router = std::make_unique<core::Router>(reader_env(*node), registry);
  return node;
}

/// What the reference replay says about one trace position.
struct Expect {
  core::Action action = core::Action::kForward;
  core::DropReason reason = core::DropReason::kNone;
  std::uint32_t egress = ~std::uint32_t{0};
  std::uint64_t header_hash = 0;
};

std::uint64_t fnv(std::span<const std::uint8_t> b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t x : b) h = (h ^ x) * 0x100000001b3ull;
  return h;
}

/// The single egress face, or a marker that encodes the egress count.
std::uint32_t egress_code(const core::ProcessResult& r) {
  return r.egress.size() == 1 ? r.egress[0]
                              : ~static_cast<std::uint32_t>(r.egress.size());
}

Expect expect_of(const core::ProcessResult& r, std::span<const std::uint8_t> header) {
  return {r.action, r.reason, egress_code(r), fnv(header)};
}

bool matches(const Expect& e, const core::ProcessResult& r, std::span<const std::uint8_t> header) {
  return e.action == r.action && e.reason == r.reason && e.egress == egress_code(r) &&
         e.header_hash == fnv(header);
}

/// Burst buffers refilled from templates (outside the timed calls).
struct BurstBuffers {
  std::vector<std::vector<std::uint8_t>> bufs = std::vector<std::vector<std::uint8_t>>(
      kBurst, std::vector<std::uint8_t>(2048));
  std::vector<core::PacketRef> refs = std::vector<core::PacketRef>(kBurst);
  std::vector<core::ProcessResult> results = std::vector<core::ProcessResult>(kBurst);

  void fill(const Inputs& in, std::size_t first) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const TracePacket& p = in.trace[first + i];
      const auto& t = in.templates[p.tmpl];
      const std::size_t size = std::max<std::size_t>(p.size, t.size());
      std::memcpy(bufs[i].data(), t.data(), t.size());
      std::memset(bufs[i].data() + t.size(), 0xA5, size - t.size());
      refs[i] = core::PacketRef(std::span(bufs[i].data(), size));
    }
  }
};

SimTime burst_time(std::size_t burst_index) { return static_cast<SimTime>(burst_index) * 1000; }

}  // namespace

int run_router_mix(const RunConfig& cfg, Report& report) {
  const Inputs in = make_inputs(cfg.seed);
  const auto registry = netsim::make_default_registry();

  std::vector<double> setup_s, build_s;
  std::unique_ptr<Node> node;
  auto setup = [&] {
    node.reset();
    const std::uint64_t t0 = now_ns();
    node = build_node(in, registry.get());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    build_s.push_back(node->fib_build_s);
    // Installed untimed, so every timed flush finds a retired snapshot to
    // reclaim: the steady-state work of reclaiming, cloning and publishing.
    node->journal->add_route32({in.probe, 32}, kHomeFace);
    node->journal->flush();
  };
  setup();

  // Correctness gate: the first pass through process_batch must equal a
  // per-packet Router::process replay of the same trace (verdicts and
  // rewritten headers), on a second router reading the same tables.
  std::vector<Expect> expect(kTrace);
  {
    core::Router reference(reader_env(*node), registry.get());
    BurstBuffers b;
    for (std::size_t first = 0; first < kTrace; first += kBurst) {
      b.fill(in, first);
      for (std::size_t i = 0; i < kBurst; ++i) {
        const auto r = reference.process(b.refs[i].bytes, kIngress, burst_time(first / kBurst));
        const std::size_t hlen = in.templates[in.trace[first + i].tmpl].size();
        expect[first + i] = expect_of(r, b.refs[i].bytes.first(hlen));
      }
    }
    std::uint64_t mismatched = 0;
    for (std::size_t first = 0; first < kTrace; first += kBurst) {
      b.fill(in, first);
      node->router->process_batch(b.refs, kIngress, burst_time(first / kBurst), b.results);
      for (std::size_t i = 0; i < kBurst; ++i) {
        const std::size_t hlen = in.templates[in.trace[first + i].tmpl].size();
        if (!matches(expect[first + i], b.results[i], b.refs[i].bytes.first(hlen))) ++mismatched;
      }
    }
    report.attempted += kTrace;
    report.failed += mismatched;
    if (mismatched != 0) report.fail("router_mix: batch verdicts differ from the scalar replay");
    std::uint64_t forwarded = 0;
    for (const Expect& e : expect) forwarded += e.action == core::Action::kForward;
    report.diag["forwarded_share"] = static_cast<double>(forwarded) / kTrace;
  }

  // Timed run. Traced runs alternate untraced and traced segments, so the
  // tracing overhead is measured inside one process and one host phase.
  Tracer tracer;
  std::unique_ptr<telemetry::RouterStats> stats = telemetry::make_router_stats();
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  WindowSeries plain(kWindowNs, t_start), traced(kWindowNs, t_start);
  BurstBuffers b;
  std::size_t pos = 0;
  std::uint64_t burst_index = 0;
  std::uint64_t traced_pkts = 0, traced_batch_ns = 0;
  telemetry::CounterSnapshot traced_counters;
  telemetry::CounterSnapshot seg_start_counters;
  bool in_traced = false;
  std::size_t flaps_done = 0;
  std::vector<double> flush_ns;
  const std::vector<std::uint8_t> probe_template =
      core::make_dip32_header(in.probe, fib::ipv4_from_u32(0xC0A80001u))->serialize();
  std::vector<std::uint8_t> probe;

  auto set_traced = [&](bool on) {
    if (on == in_traced) return;
    in_traced = on;
    probes().on.store(on, std::memory_order_relaxed);
    tracer.set_enabled(on);
    core::RouterEnv& env = node->router->env();
    if (on) {
      env.stats = std::move(stats);
      seg_start_counters = env.counters.snapshot();
    } else {
      stats = std::move(env.stats);
      const auto now = env.counters.snapshot();
      traced_counters.flow_cache_hits += now.flow_cache_hits - seg_start_counters.flow_cache_hits;
      traced_counters.flow_cache_misses +=
          now.flow_cache_misses - seg_start_counters.flow_cache_misses;
    }
  };
  if (cfg.trace) probes().reset();

  std::size_t rebuilds_done = 0;
  for (std::uint64_t t = now_ns(); t < t_end; t = now_ns()) {
    if (cfg.trace) set_traced(((t - t_start) / kSegmentNs) % 2 == 1);

    // Untraced runs repeat the set-up at points spread over the run, so
    // setup_s samples more than one host phase. Only at a trace wrap: every
    // NDN pair is complete there, so the fresh router's verdicts match.
    if (!cfg.trace && rebuilds_done < kRebuilds && pos == 0 &&
        t >= t_start + (rebuilds_done + 1) * (t_end - t_start) / (kRebuilds + 1)) {
      setup();
      ++rebuilds_done;
      continue;
    }

    // Route flap on the probe prefix: move it away and back, each change
    // published through the journal and followed by a probe burst that must
    // already take the new next hop. The sample is the mean of the two
    // changes: successive table clones alternate between a cheap and a
    // costly one (the allocator reuses, then grows the heap), and a flap
    // always holds one of each.
    if (flaps_done < kFlaps &&
        t >= t_start + (2 * flaps_done + 1) * (t_end - t_start) / (2 * kFlaps)) {
      std::uint64_t change_ns = 0;
      for (const core::FaceId nh : {kFlapFace, kHomeFace}) {
        probe = probe_template;
        const core::PacketRef probe_ref(probe);
        const std::uint64_t f0 = now_ns();
        {
          // The table clone is control-plane work, not per-packet allocation.
          Scoped s(tracer, "ctrl.flush", flaps_done);
          probes().on.store(false, std::memory_order_relaxed);
          node->journal->add_route32({in.probe, 32}, nh);
          node->journal->flush();
          probes().on.store(in_traced, std::memory_order_relaxed);
        }
        {
          Scoped s(tracer, "core.process_batch", burst_index);
          // Stamped with the trace's current time: a later one could age
          // out the PIT entry of an interest whose data is in the next burst.
          node->router->process_batch({&probe_ref, 1}, kIngress, burst_time(pos / kBurst),
                                      {b.results.data(), 1});
        }
        change_ns += now_ns() - f0;
        ++report.attempted;
        if (!b.results[0].forwarded() || b.results[0].egress[0] != nh) {
          ++report.failed;
          report.fail("router_mix: probe did not follow the flapped route");
        }
        flush_ns.push_back(static_cast<double>(node->journal->stats().last_flush_ns));
        ++burst_index;
      }
      (in_traced ? traced : plain).at(now_ns()).reconverge_ms.push_back(
          static_cast<double>(change_ns) / 2e6);
      ++flaps_done;
      continue;  // the probe bursts are not part of the trace
    }

    b.fill(in, pos);
    const SimTime now = burst_time(pos / kBurst);
    const std::uint64_t t0 = now_ns();
    {
      Scoped s(tracer, "core.process_batch", burst_index);
      node->router->process_batch(b.refs, kIngress, now, b.results);
    }
    const std::uint64_t t1 = now_ns();
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
      const std::size_t hlen = in.templates[in.trace[pos + i].tmpl].size();
      ok += matches(expect[pos + i], b.results[i], b.refs[i].bytes.first(hlen));
    }
    report.attempted += kBurst;
    report.failed += kBurst - ok;
    Window& w = (in_traced ? traced : plain).at(t1);
    w.ok += ok;
    w.busy_ns += t1 - t0;
    w.latency.add(t1 - t0, kBurst);
    if (in_traced) {
      traced_pkts += kBurst;
      traced_batch_ns += t1 - t0;
    }
    ++burst_index;
    pos += kBurst;
    if (pos == kTrace) pos = 0;
  }
  set_traced(false);
  const std::uint64_t t_done = now_ns();
  plain.close(t_done);
  traced.close(t_done);
  if (report.failed != 0 && report.errors.empty()) {
    report.fail("router_mix: timed verdicts differ from the scalar replay");
  }

  report.set_window_metrics(plain);
  report.set("setup_s", median(setup_s), "s");
  report.set("rss_mib", peak_rss_mib(), "MiB");
  report.diag["bursts"] = static_cast<double>(burst_index);

  if (!cfg.trace) return 0;

  // ---- per-layer metrics (traced segments) ----
  const Probes& p = probes();
  const double pkts = static_cast<double>(std::max<std::uint64_t>(traced_pkts, 1));
  report.set("core.batch_ns_per_pkt", static_cast<double>(traced_batch_ns) / pkts, "ns");
  const telemetry::RouterStats& st = *stats;
  auto per_pkt = [&](const telemetry::LatencyHistogram& h) {
    const auto s = h.snapshot();
    return s.count ? static_cast<double>(s.sum) / static_cast<double>(s.count) / kBurst : 0.0;
  };
  report.set("core.bind_ns_per_pkt", per_pkt(st.phase_bind), "ns");
  report.set("core.validate_ns_per_pkt", per_pkt(st.phase_validate), "ns");
  report.set("core.dispatch_ns_per_pkt", per_pkt(st.phase_dispatch), "ns");
  const double bound = static_cast<double>(std::max<std::uint64_t>(st.burst_bound.load(), 1));
  report.set("core.wave_pkt_share", static_cast<double>(st.burst_wave.load()) / bound, "1");
  report.set("core.legacy_pkt_share", static_cast<double>(st.burst_legacy.load()) / bound, "1");
  const std::pair<const char*, core::OpKey> fns[] = {
      {"match32", core::OpKey::kMatch32}, {"match128", core::OpKey::kMatch128},
      {"source", core::OpKey::kSource},   {"fib", core::OpKey::kFib},
      {"pit", core::OpKey::kPit},         {"parm", core::OpKey::kParm},
      {"mac", core::OpKey::kMac},         {"mark", core::OpKey::kMark},
      {"dag", core::OpKey::kDag},         {"intent", core::OpKey::kIntent}};
  for (const auto& [name, key] : fns) {
    const auto s = st.fn_ns[static_cast<std::size_t>(key) % st.fn_ns.size()].snapshot();
    report.set(std::string("core.fn_ns.") + name,
               s.count ? static_cast<double>(s.sum) / static_cast<double>(s.count) : 0.0, "ns");
  }
  report.set("core.flow_cache_hit_ratio", traced_counters.flow_cache_hit_rate(), "1");
  report.set("core.allocs_per_pkt", static_cast<double>(p.allocs.load()) / pkts, "count");
  report.set("trace.overhead_share",
             1.0 - quantile(traced.rates(), kRateRank) / quantile(plain.rates(), kRateRank), "1");

  // FIB layer on the flow-cache-miss stream: replay one trace pass's
  // DIP-32 destinations through a default FlowCache to find the misses,
  // then time the FIB alone on them.
  {
    core::FlowCache cache;
    std::vector<fib::Ipv4Addr> misses;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      for (const TracePacket& tp : in.trace) {
        const std::uint32_t d = in.dip32_tmpl_dst[tp.tmpl];
        if (d == ~std::uint32_t{0}) continue;
        const auto& a = in.dst4[d];
        if (cache.find(a.bytes, 1) == nullptr) {
          cache.insert(a.bytes, 1, {});
          if (pass == 1) misses.push_back(a);
        }
      }
    }
    const fib::Ipv4Lpm& fib = *node->tables.fib32;
    std::uint64_t depth = 0, sink = 0;
    for (const auto& a : misses) depth += fib.lookup_depth(a);
    std::vector<double> per_lookup;
    for (std::size_t first = 0; first + 1024 <= misses.size(); first += 1024) {
      Scoped s(tracer, "fib.lookup_block", first / 1024);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = first; i < first + 1024; ++i) sink += fib.lookup(misses[i]).value_or(0);
      per_lookup.push_back(static_cast<double>(now_ns() - t0) / 1024.0);
    }
    report.diag["fib.miss_stream"] = static_cast<double>(misses.size());
    report.diag["fib.sink"] = static_cast<double>(sink & 1);
    report.set("fib.lookup_ns", median(per_lookup), "ns");
    report.set("fib.lookup_depth_mean",
               misses.empty() ? 0.0 : static_cast<double>(depth) / misses.size(), "count");
    const double bytes = static_cast<double>(node->tables.fib32->memory_bytes() +
                                             node->tables.fib128->memory_bytes());
    const double routes =
        static_cast<double>(node->tables.fib32->size() + node->tables.fib128->size());
    report.set("fib.memory_bytes_per_route", bytes / routes, "B");
    report.set("fib.build_s", median(build_s), "s");
  }
  const ctrl::JournalStats& js = node->journal->stats();
  report.set("ctrl.flush_ns_p50", median(flush_ns), "ns");
  report.set("ctrl.flush_ns_max", static_cast<double>(js.max_flush_ns), "ns");
  report.set("ctrl.publishes", static_cast<double>(js.snapshots_published), "count");
  report_span_totals(tracer, report);
  if (!cfg.trace_path.empty() && !tracer.write(cfg.trace_path)) {
    report.fail("cannot write spans to " + cfg.trace_path);
  }
  return 0;
}

}  // namespace perfbench
