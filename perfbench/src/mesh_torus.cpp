// mesh_torus — the 9x12 loopback-UDP torus of examples/dip_mesh, driven in
// one thread by a closed loop: a fixed set of Zipf flows each keeps one
// probe in flight, flows churn on a delivery-count schedule, and a fixed
// number of fail -> reconverge -> restore link cycles run with data paused.
//
// Why this workload: socket syscalls, poll, framing, the impairer, the
// ingress copy and hold-back timers dominate each hop, with core as a small
// share; LSA flooding, SPF and journal publishes run in setup and on every
// failure. It is the workload where a core-only change should show no gain.
// Links carry mild seeded duplicate/reorder impairment and no random drop,
// so every probe must arrive and the wire ledger must balance exactly.
#include <cstring>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "dip/core/ip.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/netsim/topology.hpp"

namespace perfbench {

using namespace dip;

namespace {

constexpr std::size_t kRows = 9;
constexpr std::size_t kCols = 12;
constexpr std::size_t kFlows = 64;
constexpr double kZipf = 1.0;
constexpr std::uint64_t kChurnEvery = 16;  // deliveries between flow replacements
constexpr std::size_t kCycles = 12;
constexpr std::uint64_t kWindowNs = 250'000'000;
constexpr std::uint64_t kSegmentNs = 500'000'000;
constexpr std::uint64_t kStallNs = 2'000'000'000;
constexpr std::size_t kPayload = 16;  // flow id, sequence, inject time

struct Flow {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint32_t id = 0;
  std::uint32_t seq = 0;
  bool outstanding = false;
  std::uint64_t inject_ns = 0;
};

std::size_t torus_hops(std::size_t a, std::size_t b) {
  const std::size_t ra = a / kCols, ca = a % kCols, rb = b / kCols, cb = b % kCols;
  const std::size_t dr = ra > rb ? ra - rb : rb - ra;
  const std::size_t dc = ca > cb ? ca - cb : cb - ca;
  return std::min(dr, kRows - dr) + std::min(dc, kCols - dc);
}

netsim::FaultPlan impairment() {
  netsim::FaultPlan plan;
  plan.duplicate_rate = 0.01;
  plan.reorder_rate = 0.02;
  plan.reorder_window = 250 * kMicrosecond;
  return plan;
}

}  // namespace

int run_mesh_torus(const RunConfig& cfg, Report& report) {
  const std::size_t nodes = kRows * kCols;
  std::vector<double> setup_s, spf_ns, flush_ns;

  auto publish_all = [&](mesh::MeshNet& net) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      (void)mesh::publish_routes(net.router(i), net.local_face_of(i));
      spf_ns.push_back(static_cast<double>(now_ns() - t0));
      flush_ns.push_back(static_cast<double>(net.router(i).journal().stats().last_flush_ns));
    }
  };

  // Set-up: torus, in-band discovery, first SPF. Untraced runs repeat it
  // on a throwaway mesh during each link cycle (data paused), so setup_s
  // samples more than one host phase.
  auto build_mesh = [&]() -> std::unique_ptr<mesh::MeshNet> {
    const std::uint64_t t0 = now_ns();
    mesh::MeshConfig mcfg;
    mcfg.fault_seed = cfg.seed;
    auto net = std::make_unique<mesh::MeshNet>(mcfg);
    net->build_torus(kRows, kCols, impairment());
    if (!net->discover(10 * kSecond)) {
      report.fail("mesh_torus: discovery did not converge");
      return nullptr;
    }
    publish_all(*net);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return net;
  };
  const std::unique_ptr<mesh::MeshNet> net_owner = build_mesh();
  if (!net_owner) return 1;
  mesh::MeshNet& net = *net_owner;
  mesh::MeshEventLoop& loop = net.loop();

  // ---- flows (seeded; generated outside the timed calls) ----
  crypto::Xoshiro256 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 37);
  netsim::ZipfSampler zipf(nodes, kZipf, cfg.seed + 9);
  std::uint32_t next_id = 1;
  auto make_flow = [&] {
    Flow f;
    f.dst = zipf.sample();
    do {
      f.src = rng.below(nodes);
    } while (f.src == f.dst);
    f.id = next_id++;
    return f;
  };
  std::vector<Flow> flows;
  std::unordered_map<std::uint32_t, std::size_t> flow_index;
  for (std::size_t i = 0; i < kFlows; ++i) {
    flows.push_back(make_flow());
    flow_index[flows.back().id] = i;
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < kFlows; ++i) ready.push_back(i);
  std::size_t outstanding = 0;

  std::vector<std::uint8_t> packet;
  auto build_packet = [&](std::size_t src, std::size_t dst, std::uint32_t id, std::uint32_t seq) {
    packet = core::make_dip32_header(mesh::addr_of(net.router(dst).node_id()),
                                     mesh::addr_of(net.router(src).node_id()))
                 ->serialize();
    const std::uint64_t t = loop.now_ns();
    std::uint8_t payload[kPayload];
    std::memcpy(payload, &id, 4);
    std::memcpy(payload + 4, &seq, 4);
    std::memcpy(payload + 8, &t, 8);
    packet.insert(packet.end(), payload, payload + kPayload);
    return t;
  };

  // ---- delivery: dedupe, latency, window accounting ----
  Tracer tracer;
  bool in_traced = false;
  bool timing = true;  // cleared once the timed loop ends (the final drain is not timed)
  const std::uint64_t t_start = now_ns();
  const std::uint64_t t_end = t_start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  WindowSeries plain(kWindowNs, t_start), traced(kWindowNs, t_start);
  std::uint64_t injected = 0, delivered = 0, duplicates = 0, strays = 0;
  std::uint64_t traced_latency_sum = 0, traced_hops_sum = 0, traced_probes = 0;
  std::size_t probe_target = ~std::size_t{0};
  bool probe_arrived = false;

  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t> bytes, std::uint64_t now) {
    if (bytes.size() < kPayload) {
      ++strays;
      return;
    }
    std::uint32_t id = 0, seq = 0;
    std::memcpy(&id, bytes.data() + bytes.size() - kPayload, 4);
    std::memcpy(&seq, bytes.data() + bytes.size() - kPayload + 4, 4);
    if (id == 0) {  // reconvergence probe
      probe_arrived |= node == probe_target;
      loop.stop();
      return;
    }
    const auto it = flow_index.find(id);
    if (it == flow_index.end()) {
      ++duplicates;  // a late copy for a retired flow
      return;
    }
    Flow& f = flows[it->second];
    if (!f.outstanding || seq != f.seq || node != f.dst) {
      if (node != f.dst) ++strays;
      else ++duplicates;
      return;
    }
    f.outstanding = false;
    --outstanding;
    ++delivered;
    const std::uint64_t lat = now - f.inject_ns;
    if (timing) {
      Window& w = (in_traced ? traced : plain).at(now_ns());
      w.latency.add(lat);
      w.ok += 1;
    }
    if (in_traced) {
      traced_latency_sum += lat;
      traced_hops_sum += torus_hops(f.src, f.dst);
      ++traced_probes;
    }
    if (delivered % kChurnEvery == 0) {
      flow_index.erase(f.id);
      f = make_flow();
      flow_index[f.id] = it->second;
    }
    ready.push_back(flow_index.find(f.id)->second);
    loop.stop();
  });

  auto inject_ready = [&] {
    for (const std::size_t i : ready) {
      Flow& f = flows[i];
      ++f.seq;
      f.inject_ns = build_packet(f.src, f.dst, f.id, f.seq);
      f.outstanding = true;
      ++outstanding;
      ++injected;
      Scoped span(tracer, "mesh.inject", (std::uint64_t{f.id} << 32) | f.seq);
      net.router(f.src).inject(packet, net.local_face_of(f.src));
    }
    ready.clear();
  };

  // Run the loop until no probe is outstanding and nothing is held back.
  auto drain = [&](std::uint64_t budget_ns) {
    const std::uint64_t deadline = now_ns() + budget_ns;
    while ((outstanding > 0 || net.pending_holdbacks() > 0) && now_ns() < deadline) {
      Scoped span(tracer, "mesh.loop_run");
      (void)loop.run(loop.now_ns() + 10 * kMillisecond);
    }
    loop.run_until_idle();
    return outstanding == 0 && net.pending_holdbacks() == 0;
  };

  // ---- traced-segment bookkeeping ----
  mesh::WireLedger seg_ledger{};
  mesh::LoopStats seg_loop{};
  std::uint64_t seg_t0 = 0, traced_wall = 0, traced_frames = 0, traced_wakeups = 0,
                traced_reads = 0;
  auto set_traced = [&](bool on) {
    if (on == in_traced) return;
    const std::uint64_t t = now_ns();
    if (on) {
      seg_t0 = t;
      seg_ledger = net.aggregate_ledger();
      seg_loop = loop.stats();
    } else {
      traced_wall += t - seg_t0;
      traced_frames += net.aggregate_ledger().delivered - seg_ledger.delivered;
      traced_wakeups += loop.stats().wakeups - seg_loop.wakeups;
      traced_reads += loop.stats().reads_dispatched - seg_loop.reads_dispatched;
    }
    in_traced = on;
    probes().on.store(on, std::memory_order_relaxed);
    tracer.set_enabled(on);
  };
  if (cfg.trace) probes().reset();

  // Time inside the program's calls, charged to the window it ends in.
  std::uint64_t t_prev = 0;
  auto account_busy = [&] {
    const std::uint64_t t = now_ns();
    (in_traced ? traced : plain).at(t).busy_ns += t - t_prev;
    t_prev = t;
  };

  std::size_t cycles_done = 0;
  auto run_cycle = [&] {
    const bool was_traced = in_traced;
    set_traced(false);  // control-plane work is not part of the per-hop figures
    if (!drain(kStallNs)) {
      report.fail("mesh_torus: probes still in flight before a link failure");
      return false;
    }
    account_busy();  // the drain delivered timed probes
    const std::size_t a = rng.below(nodes);
    const std::size_t b = rng.below(2) == 0 ? (a / kCols) * kCols + (a % kCols + 1) % kCols
                                            : ((a / kCols + 1) % kRows) * kCols + a % kCols;
    const std::uint64_t t0 = now_ns();
    net.fail_link(a, b);
    loop.run_until_idle();  // the LSA flood (loopback sends land synchronously)
    publish_all(net);
    probe_target = b;
    probe_arrived = false;
    (void)build_packet(a, b, 0, static_cast<std::uint32_t>(cycles_done));
    net.router(a).inject(packet, net.local_face_of(a));
    const std::uint64_t deadline = now_ns() + kStallNs;
    while (!probe_arrived && now_ns() < deadline) (void)loop.run(loop.now_ns() + kMillisecond);
    const std::uint64_t t1 = now_ns();
    ++report.attempted;
    if (!probe_arrived) {
      ++report.failed;
      report.fail("mesh_torus: link-failure probe was never rerouted");
      return false;
    }
    plain.at(t1).reconverge_ms.push_back(static_cast<double>(t1 - t0) / 1e6);

    // Restore the link and converge back before data resumes.
    mesh::MeshRouter& ra = net.router(a);
    mesh::MeshRouter& rb = net.router(b);
    if (const auto f = ra.face_toward(rb.node_id())) ra.set_face_up(*f, true);
    if (const auto f = rb.face_toward(ra.node_id())) rb.set_face_up(*f, true);
    ra.originate_lsa(32);
    rb.originate_lsa(32);
    loop.run_until_idle();
    publish_all(net);
    ++cycles_done;
    if (!cfg.trace && !build_mesh()) return false;
    set_traced(was_traced);
    return true;
  };

  // ---- closed loop ----
  t_prev = now_ns();
  std::uint64_t last_progress = t_prev, last_delivered = 0;
  bool ok_run = true;
  for (std::uint64_t t = now_ns(); t < t_end; t = now_ns()) {
    if (cfg.trace) set_traced(((t - t_start) / kSegmentNs) % 2 == 1);
    if (cycles_done < kCycles && t >= t_start + (2 * cycles_done + 1) * (t_end - t_start) /
                                                    (2 * kCycles)) {
      if (!run_cycle()) {
        ok_run = false;
        break;
      }
      t_prev = last_progress = now_ns();
      continue;
    }
    inject_ready();
    {
      Scoped span(tracer, "mesh.loop_run");
      (void)loop.run(std::min(t_end, loop.now_ns() + 50 * kMillisecond));
    }
    account_busy();
    const std::uint64_t t_after = t_prev;
    if (delivered != last_delivered) {
      last_delivered = delivered;
      last_progress = t_after;
    } else if (t_after - last_progress > kStallNs) {
      report.fail("mesh_torus: no delivery for 2 s");
      ok_run = false;
      break;
    }
  }
  set_traced(false);
  timing = false;
  const std::uint64_t t_done = now_ns();
  plain.close(t_done);
  traced.close(t_done);

  // ---- correctness gate: every probe exactly once, exact ledger ----
  if (ok_run && !drain(kStallNs)) report.fail("mesh_torus: probes never arrived");
  if (!net.quiesce(5 * kSecond)) report.fail("mesh_torus: mesh did not quiesce");
  const mesh::WireLedger ledger = net.aggregate_ledger();
  report.attempted += injected;
  report.failed += injected - delivered;
  if (injected != delivered) report.fail("mesh_torus: some probes were not delivered");
  if (strays != 0) report.fail("mesh_torus: probes delivered at the wrong node");
  if (ledger.imbalance() != 0) report.fail("mesh_torus: wire ledger imbalance");
  if (ledger.lost != 0 || ledger.dropped != 0 || ledger.blackholed != 0) {
    report.fail("mesh_torus: frames lost, dropped or blackholed");
  }
  if (cycles_done != kCycles) report.fail("mesh_torus: not every link cycle ran");
  report.diag["ledger.imbalance"] = static_cast<double>(ledger.imbalance());
  report.diag["ledger.duplicated"] = static_cast<double>(ledger.duplicated);
  report.diag["duplicate_deliveries"] = static_cast<double>(duplicates);
  report.diag["probes"] = static_cast<double>(delivered);

  report.set_window_metrics(plain);
  report.set("setup_s", median(setup_s), "s");
  report.set("rss_mib", peak_rss_mib(), "MiB");

  if (!cfg.trace) return 0;

  // ---- per-layer metrics (traced data segments) ----
  const Probes& p = probes();
  auto total_of = [&](const char* name) {
    return static_cast<double>(tracer.totals_of(name).total_ns);
  };
  // Loop-busy time: inside loop.run and inject, minus the parked polls.
  const double busy = total_of("mesh.loop_run") + total_of("mesh.inject") -
                      static_cast<double>(p.poll_wait.ns.load());
  const double frames = static_cast<double>(std::max<std::uint64_t>(traced_frames, 1));
  const double hop_ns = busy / frames;
  const double syscalls = static_cast<double>(p.send.calls.load() + p.recv.calls.load() +
                                              p.poll.calls.load() + p.poll_wait.calls.load());
  const double layers = static_cast<double>(p.send.ns.load() + p.recv.ns.load() +
                                            p.poll.ns.load() + p.encode.ns.load() +
                                            p.decode.ns.load() + p.impair.ns.load() +
                                            p.batch.ns.load());
  report.set("mesh.hop_ns", hop_ns, "ns");
  report.set("mesh.syscalls_per_hop", syscalls / frames, "count");
  report.set("mesh.socket.send_ns", p.send.mean_ns(), "ns");
  report.set("mesh.socket.recv_ns", p.recv.mean_ns(), "ns");
  report.set("mesh.loop.round_ns", traced_wakeups ? busy / traced_wakeups : 0.0, "ns");
  report.set("mesh.loop.reads_per_round",
             traced_wakeups ? static_cast<double>(traced_reads) / traced_wakeups : 0.0, "count");
  report.set("mesh.frame.encode_ns", p.encode.mean_ns(), "ns");
  report.set("mesh.frame.decode_ns", p.decode.mean_ns(), "ns");
  report.set("mesh.impair_ns", p.impair.mean_ns(), "ns");
  report.set("mesh.holdback_share",
             p.impair.calls.load() ? static_cast<double>(p.holdbacks.load()) /
                                         static_cast<double>(p.impair.calls.load())
                                   : 0.0,
             "1");
  report.set("mesh.allocs_per_hop", static_cast<double>(p.allocs.load()) / frames, "count");
  report.set("mesh.burst_pkts_mean",
             p.batch.calls.load() ? static_cast<double>(p.batch_pkts.load()) /
                                        static_cast<double>(p.batch.calls.load())
                                  : 0.0,
             "count");
  report.set("mesh.core_share", busy > 0 ? static_cast<double>(p.batch.ns.load()) / busy : 0.0,
             "1");
  const double probes_n = static_cast<double>(std::max<std::uint64_t>(traced_probes, 1));
  const double hops_mean = static_cast<double>(traced_hops_sum) / probes_n;
  const double latency_mean = static_cast<double>(traced_latency_sum) / probes_n;
  report.set("mesh.wait_ns_per_hop",
             hops_mean > 0 ? (latency_mean - hops_mean * hop_ns) / hops_mean : 0.0, "ns");
  report.set("mesh.unexplained_share", busy > 0 ? 1.0 - layers / busy : 0.0, "1");
  report.set("core.allocs_per_pkt", static_cast<double>(p.allocs.load()) / probes_n, "count");
  report.set("trace.overhead_share",
             1.0 - quantile(traced.rates(), kRateRank) / quantile(plain.rates(), kRateRank), "1");
  report.diag["mesh.traced_wall_s"] = static_cast<double>(traced_wall) / 1e9;
  report.diag["mesh.hops_mean"] = hops_mean;
  report.diag["mesh.recv_eagain_per_hop"] = static_cast<double>(p.recv_again.load()) / frames;

  double flush_max = 0, publishes = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& js = net.router(i).journal().stats();
    flush_max = std::max(flush_max, static_cast<double>(js.max_flush_ns));
    publishes += static_cast<double>(js.snapshots_published);
  }
  report.set("ctrl.spf_ns", median(spf_ns), "ns");
  report.set("ctrl.flush_ns_p50", median(flush_ns), "ns");
  report.set("ctrl.flush_ns_max", flush_max, "ns");
  report.set("ctrl.publishes", publishes, "count");
  report_span_totals(tracer, report);
  if (!cfg.trace_path.empty() && !tracer.write(cfg.trace_path)) {
    report.fail("cannot write spans to " + cfg.trace_path);
  }
  return 0;
}

}  // namespace perfbench
