// dip_stats: run a traffic scenario and expose the router stats layer.
//
//   $ ./dip_stats [exposition.prom]
//
// Drives a 2-worker RouterPool over a Zipf(0.99) DIP-32 + NDN mix (plus a
// sprinkle of malformed packets), with RouterEnv::stats installed on every
// worker, then shows the three observability surfaces in order:
//
//   1. an operator digest — throughput counters, flow-cache hit rate, and
//      per-FN / per-phase latency quantiles out of the histograms;
//   2. a drained trace-ring sample — the exact FN programs and verdicts of
//      sampled packets;
//   3. the chaos-layer drop reasons — corrupt-quarantine on a lenient
//      router behind a corrupting link, and overload shedding on a tiny
//      pool (docs/FAULTS.md has the taxonomy);
//   4. the control plane under a link flap — route churn, convergence
//      time, and QSBR snapshot reclamation, the dip_ctrl_* series
//      (docs/CONTROL_PLANE.md);
//   5. the FIB over one synthesized route table — footprint and
//      lookup-depth quantiles, the dip_fib_* series (docs/FIB.md);
//   6. the PISA stage-budget fit matrix over the six Table-1 compositions
//      — hardware deployability verdicts, the dip_pisa_* series
//      (docs/PISA.md);
//   7. the full Prometheus-style text exposition (written to the optional
//      file argument, else printed), composed through a StatsRegistry that
//      carries pool, node, network, control-plane, FIB, and PISA sections.
//
// The metric catalogue is documented in docs/OBSERVABILITY.md.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/ctrl/control_plane.hpp"
#include "dip/fib/synth.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/netsim/traffic.hpp"
#include "dip/pisa/compiler.hpp"
#include "dip/pisa/table1.hpp"
#include "dip/telemetry/exposition.hpp"

namespace {

constexpr std::size_t kPrefixes = 256;   // /24s under 10.0.0.0/9
constexpr std::size_t kFlows = 2048;     // distinct destinations
constexpr std::size_t kPackets = 50000;  // submitted to the pool

std::uint32_t flow_addr(std::size_t flow) {
  return 0x0A000000u | (static_cast<std::uint32_t>(flow % kPrefixes) << 8) |
         static_cast<std::uint32_t>(flow / kPrefixes + 1);
}

void print_histogram_digest(const char* name,
                            const dip::telemetry::HistogramSnapshot& h) {
  if (h.count == 0) return;
  std::printf("  %-22s n=%-8llu p50=%-8.0f p90=%-8.0f p99=%-8.0f mean=%.0f ns\n",
              name, static_cast<unsigned long long>(h.count), h.quantile(0.5),
              h.quantile(0.9), h.quantile(0.99), h.mean());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dip;

  std::printf("== dip_stats: router observability over a Zipf DIP-32 + NDN mix ==\n\n");

  // --- Pool: 2 workers sharing one route table, stats on every worker. ---
  auto registry = netsim::make_default_registry();
  auto fib32 = std::make_shared<fib::Ipv4Lpm>();
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    fib32->insert(
        {fib::ipv4_from_u32(0x0A000000u | (static_cast<std::uint32_t>(i) << 8)), 24},
        static_cast<core::FaceId>(1 + i % 8));
  }

  core::RouterPoolConfig config;
  config.workers = 2;
  config.ring_capacity = 4096;
  config.max_batch = 32;
  core::RouterPool pool(
      registry.get(),
      [&fib32](std::size_t i) {
        core::RouterEnv env = netsim::make_basic_env(static_cast<std::uint32_t>(i));
        env.fib32 = fib32;
        telemetry::RouterStatsConfig stats;
        stats.sample_period = 16;  // dense sampling: this is a demo, not a NIC
        stats.burst_period = 1;
        stats.trace_capacity = 512;
        env.stats = telemetry::make_router_stats(stats);
        return env;
      },
      config);

  // --- Traffic: heavy-tailed destinations, one NDN interest in eight, ----
  // --- and one torn header in 500 for a nonzero malformed series. --------
  netsim::ZipfSampler zipf(kFlows, 0.99, 0x5EED);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const std::size_t flow = zipf.sample();
    std::vector<std::uint8_t> packet;
    if (i % 8 == 7) {
      packet = ndn::make_interest_header32(flow_addr(flow))->serialize();
    } else {
      packet = core::make_dip32_header(fib::ipv4_from_u32(flow_addr(flow)),
                                       fib::parse_ipv4("172.16.0.1").value())
                   ->serialize();
    }
    if (i % 500 == 499) packet.resize(packet.size() / 2);  // malformed
    // Timestamps are block-aligned (one tick per 32-packet burst): workers
    // split bursts into runs sharing (ingress, now), so per-packet stamps
    // would degenerate every run to a singleton, which runs alone, and keep
    // the waves — and their dip_burst_wave_total series below — cold.
    pool.submit(std::move(packet), /*ingress=*/0, /*now=*/(i / 32) * 3200);
    ++sent;
  }
  pool.drain();

  // --- 1. Operator digest straight off the live stats blocks. ------------
  const auto fleet = pool.counters();
  std::printf("[digest] %llu packets: %llu forwarded, %llu dropped, "
              "flow-cache hit rate %.3f\n",
              static_cast<unsigned long long>(fleet.processed),
              static_cast<unsigned long long>(fleet.forwarded),
              static_cast<unsigned long long>(fleet.dropped),
              fleet.flow_cache_hit_rate());
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    const auto& env = pool.router(w).env();
    std::printf("[digest] worker %zu: %llu processed, queue depth %zu\n", w,
                static_cast<unsigned long long>(env.counters.processed.load()),
                pool.queue_depth(w));
  }
  std::printf("\n[latency] per-phase and per-FN histograms (merged workers):\n");
  {
    telemetry::RouterStats::Snapshot merged;
    for (std::size_t w = 0; w < pool.workers(); ++w) {
      if (const auto* stats = pool.router(w).env().stats.get()) {
        merged += stats->snapshot();
      }
    }
    print_histogram_digest("phase bind/burst", merged.phase_bind);
    print_histogram_digest("phase validate/burst", merged.phase_validate);
    print_histogram_digest("phase dispatch/burst", merged.phase_dispatch);
    for (std::size_t k = 0; k < merged.fn_ns.size(); ++k) {
      if (merged.fn_ns[k].count == 0) continue;
      const std::string name(core::op_key_name(static_cast<core::OpKey>(k)));
      print_histogram_digest(name.c_str(), merged.fn_ns[k]);
    }
  }

  // --- 2. Drain the trace rings from this (control) thread. --------------
  std::printf("\n[trace] sampled packet records (1-in-%u sampler):\n", 16u);
  std::vector<telemetry::TraceRecord> records;
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    if (auto* stats = pool.router(w).env().stats.get()) {
      stats->trace.drain(records);
    }
  }
  std::printf("  drained %zu records; first 5:\n", records.size());
  for (std::size_t i = 0; i < records.size() && i < 5; ++i) {
    const auto& r = records[i];
    std::printf("  seq=%-4llu sim=%-8llu dur=%-5uns fns=[",
                static_cast<unsigned long long>(r.seq),
                static_cast<unsigned long long>(r.sim_now), r.duration_ns);
    for (std::size_t f = 0; f < r.fn_count; ++f) {
      const core::FnTriple fn{r.fns[f].field_loc, r.fns[f].field_len, r.fns[f].op};
      std::printf("%s%s", f == 0 ? "" : " ",
                  std::string(core::op_key_name(fn.key())).c_str());
    }
    std::printf("] action=%u egress=%u\n", r.action, r.egress_count);
  }

  // --- 3. Graceful degradation: a corrupting link into a lenient node, ---
  // --- plus overload shedding — the chaos-layer drop reasons (see --------
  // --- docs/FAULTS.md) land in the same exposition page. -----------------
  netsim::Network net(0xC5A0);
  netsim::HostNode chaos_sender;
  core::RouterEnv node_env = netsim::make_basic_env(99);
  node_env.fib32 = fib32;
  node_env.stats = telemetry::make_router_stats(
      {.sample_period = 1, .burst_period = 1, .trace_capacity = 64});
  netsim::DipRouterNode node(std::move(node_env), registry);
  node.router().set_validation(core::ValidationMode::kLenient);
  net.add_node(chaos_sender);
  net.add_node(node);
  netsim::LinkParams chaos_link;
  chaos_link.faults.drop_rate = 0.05;
  chaos_link.faults.corrupt_rate = 0.3;
  chaos_link.faults.corrupt_max_bytes = 2;
  const auto chaos_face = net.connect(chaos_sender, node, chaos_link).first;
  for (std::size_t i = 0; i < 2000; ++i) {
    net.loop().schedule_at(static_cast<SimTime>(i) * kMicrosecond, [&, i] {
      chaos_sender.send(chaos_face,
                        core::make_dip32_header(fib::ipv4_from_u32(flow_addr(i % kFlows)),
                                                fib::parse_ipv4("172.16.0.1").value())
                            ->serialize());
    });
  }
  net.run();
  std::printf("\n[chaos] faulty link (drop 5%%, corrupt 30%%) into a lenient router:\n");
  std::printf("  delivered=%llu lost=%llu corrupted=%llu quarantined=%llu\n",
              static_cast<unsigned long long>(net.stats().delivered),
              static_cast<unsigned long long>(net.stats().lost),
              static_cast<unsigned long long>(net.stats().corrupted),
              static_cast<unsigned long long>(node.env().counters.quarantined.load()));

  // Overload shedding: a deliberately tiny 1-worker pool under a burst —
  // try_submit refuses work with a tagged verdict instead of stalling. The
  // worker is held inside its first completion for the whole burst, so the
  // count is exact: one packet in the worker's hands, 64 in the ring, and
  // every later one shed (20000 - 1 - 64 = 19935).
  core::RouterPoolConfig tiny;
  tiny.workers = 1;
  tiny.ring_capacity = 64;
  tiny.max_batch = 1;  // the worker takes packets one at a time
  std::uint64_t shed_refusals = 0;
  {
    std::mutex hold_mu;
    std::condition_variable hold_cv;
    bool worker_held = false;
    bool released = false;
    core::RouterPool tiny_pool(
        registry.get(),
        [&fib32](std::size_t) {
          core::RouterEnv env = netsim::make_basic_env(7);
          env.fib32 = fib32;
          return env;
        },
        tiny,
        [&](std::size_t, core::RouterPool::Item&, core::ProcessResult& result) {
          // Shed completions run on the dispatcher thread: never hold those.
          if (result.reason == core::DropReason::kOverloadShed) return;
          std::unique_lock<std::mutex> lk(hold_mu);
          if (worker_held) return;
          worker_held = true;
          hold_cv.notify_all();
          hold_cv.wait(lk, [&] { return released; });
        });
    const auto packet = [](std::size_t i) {
      return core::make_dip32_header(fib::ipv4_from_u32(flow_addr(i % kFlows)),
                                     fib::parse_ipv4("172.16.0.1").value())
          ->serialize();
    };
    (void)tiny_pool.try_submit(packet(0), 0, 0);
    {
      std::unique_lock<std::mutex> lk(hold_mu);
      hold_cv.wait(lk, [&] { return worker_held; });
    }
    for (std::size_t i = 1; i < 20000; ++i) (void)tiny_pool.try_submit(packet(i), 0, i);
    {
      const std::lock_guard<std::mutex> lk(hold_mu);
      released = true;
    }
    hold_cv.notify_all();
    tiny_pool.drain();
    shed_refusals = tiny_pool.shed_total();
    tiny_pool.stop();
  }
  std::printf("[chaos] 20000-packet burst into a 64-slot 1-worker pool: %llu shed "
              "(dip_shed_total)\n",
              static_cast<unsigned long long>(shed_refusals));

  // --- 4. Control plane under a link flap: churn + convergence + QSBR ----
  // --- reclamation on a diamond topology (docs/CONTROL_PLANE.md). The ----
  // --- primary path A-B-D goes dark for 300 us at t=1 ms; the control ----
  // --- plane detects it within one poll, reroutes via C, and routes ------
  // --- back when the link recovers. --------------------------------------
  constexpr SimDuration kCtrlPoll = 70 * kMicrosecond;
  netsim::Network ctrl_net;
  std::vector<std::unique_ptr<netsim::DipRouterNode>> ctrl_routers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    core::RouterEnv env = netsim::make_basic_env(200 + i);
    env.default_egress.reset();  // no route = blackhole, not fallback
    ctrl_routers.push_back(
        std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
    ctrl_net.add_node(*ctrl_routers[i]);
  }
  netsim::LinkParams flaky;
  flaky.faults.blackout_period = 1 * kMillisecond;
  flaky.faults.blackout_duration = 300 * kMicrosecond;
  ctrl_net.connect(*ctrl_routers[0], *ctrl_routers[1], flaky);  // A-B primary
  ctrl_net.connect(*ctrl_routers[1], *ctrl_routers[3]);         // B-D
  ctrl_net.connect(*ctrl_routers[0], *ctrl_routers[2]);         // A-C backup
  ctrl_net.connect(*ctrl_routers[2], *ctrl_routers[3]);         // C-D

  netsim::HostNode ctrl_source;
  std::size_t ctrl_delivered = 0;
  netsim::HostNode ctrl_dest(
      [&ctrl_delivered](netsim::FaceId, netsim::PacketBytes, SimTime) {
        ++ctrl_delivered;
      });
  ctrl_net.add_node(ctrl_source);
  ctrl_net.add_node(ctrl_dest);
  const auto [ctrl_source_face, a_ingress] = ctrl_net.connect(ctrl_source, *ctrl_routers[0]);
  (void)a_ingress;
  const auto [d_delivery, dest_ingress] = ctrl_net.connect(*ctrl_routers[3], ctrl_dest);
  (void)dest_ingress;

  ctrl::ControlPlane cp(ctrl_net, ctrl::ControlPlaneConfig{.poll_interval = kCtrlPoll});
  for (auto& r : ctrl_routers) cp.manage(*r);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8},
                     ctrl_routers[3]->id(), d_delivery);
  for (SimTime t = 5 * kMicrosecond; t < 1900 * kMicrosecond; t += 20 * kMicrosecond) {
    ctrl_net.loop().schedule_at(t, [&ctrl_source, f = ctrl_source_face] {
      ctrl_source.send(f, core::make_dip32_header(fib::ipv4_from_u32(0x0A000001),
                                                  fib::parse_ipv4("172.16.0.1").value())
                              ->serialize());
    });
  }
  cp.start(/*horizon=*/1950 * kMicrosecond);
  ctrl_net.run();

  const ctrl::ControlPlaneStats& cs = cp.stats();
  std::printf("\n[ctrl] diamond topology, primary link dark for 300 us at t=1 ms "
              "(poll %llu us):\n",
              static_cast<unsigned long long>(kCtrlPoll / kMicrosecond));
  std::printf("  link events: %llu down, %llu up; %llu SPF recomputes, "
              "%llu publishes\n",
              static_cast<unsigned long long>(cs.link_down_events),
              static_cast<unsigned long long>(cs.link_up_events),
              static_cast<unsigned long long>(cs.recomputes),
              static_cast<unsigned long long>(cs.publishes));
  std::printf("  convergences=%llu, last event->publish %llu us "
              "(includes detection latency)\n",
              static_cast<unsigned long long>(cs.convergences),
              static_cast<unsigned long long>(cs.last_convergence_ns / kMicrosecond));
  std::printf("  delivered %zu packets; %llu blackholed inside the detection "
              "window, none after\n",
              ctrl_delivered,
              static_cast<unsigned long long>(ctrl_net.stats().blackholed));
  {
    ctrl::RouteJournal* a_journal = cp.journal(ctrl_routers[0]->id());
    a_journal->flush();  // one more reclaim round after the last burst
    std::printf("  node A: %llu route snapshots published, %llu reclaimed, "
                "backlog %zu\n",
                static_cast<unsigned long long>(a_journal->stats().snapshots_published),
                static_cast<unsigned long long>(
                    a_journal->tables().domain.reclaimed_total()),
                a_journal->tables().domain.backlog());
  }

  // --- 5. The FIB over one synthesized table (docs/FIB.md): the tree ----
  // --- bitmap loaded with a realistic 20k-route distribution, reporting --
  // --- footprint and lookup-depth quantiles — the dip_fib_* series an ----
  // --- operator would watch. ---------------------------------------------
  constexpr std::size_t kFibRoutes = 20000;
  constexpr std::size_t kFibProbes = 512;
  fib::Ipv4Lpm fib_table;
  double depth_p50 = 0.0;
  double depth_p99 = 0.0;
  {
    const auto fib_routes = fib::synth::ipv4_table(kFibRoutes, 0xD1B);
    const auto fib_probes = fib::synth::probes(fib_routes, kFibProbes, 7);
    std::printf("\n[fib] %zu synthesized routes, %zu probes (docs/FIB.md):\n",
                fib_routes.size(), fib_probes.size());
    for (const auto& r : fib_routes) fib_table.insert(r.prefix, r.nh);
    std::vector<std::size_t> depths;
    depths.reserve(fib_probes.size());
    for (const auto& a : fib_probes) depths.push_back(fib_table.lookup_depth(a));
    std::sort(depths.begin(), depths.end());
    depth_p50 = static_cast<double>(depths[depths.size() / 2]);
    depth_p99 = static_cast<double>(depths[depths.size() * 99 / 100]);
    std::printf("  %-12s %zu routes in %8zu bytes (%6.1f B/prefix), "
                "lookup depth p50=%.0f p99=%.0f\n",
                "tree_bitmap", fib_table.size(), fib_table.memory_bytes(),
                static_cast<double>(fib_table.memory_bytes()) /
                    static_cast<double>(fib_table.size()),
                depth_p50, depth_p99);
  }

  // --- 6. Hardware fit verdicts: the PISA stage-budget compiler over the --
  // --- Table-1 compositions (docs/PISA.md, examples/dip_fit). -------------
  struct PisaRow {
    std::string name;
    pisa::PlacementReport report;
  };
  std::vector<PisaRow> pisa_rows;
  {
    std::printf("\n[pisa] Table-1 fit matrix (stages=%zu, passes<=%zu):\n",
                pisa::tna::kStages, pisa::tna::kMaxPasses);
    for (const auto& comp : pisa::table1_compositions()) {
      PisaRow row{comp.name, pisa::compile(comp.fns, comp.locations_bytes)};
      std::printf("  %-8s %-8s passes=%zu stages=%zu cycles=%llu\n", row.name.c_str(),
                  std::string(pisa::to_string(row.report.verdict)).c_str(),
                  row.report.passes.size(), row.report.stages_used,
                  static_cast<unsigned long long>(row.report.cycles));
      pisa_rows.push_back(std::move(row));
    }
  }

  // --- 7. Full exposition page via a StatsRegistry: pool + node + --------
  // --- network + control plane + FIB + PISA fit. --------------------------
  telemetry::StatsRegistry page;
  page.add("router_pool", [&](telemetry::StatsWriter& w) { pool.write_stats(w); });
  page.add("node " + std::to_string(node.env().node_id),
           [&](telemetry::StatsWriter& w) { node.write_stats(w); });
  page.add("network", [&](telemetry::StatsWriter& w) { net.write_stats(w); });
  page.add("control_plane", [&](telemetry::StatsWriter& w) { cp.write_stats(w); });
  page.add("fib", [&](telemetry::StatsWriter& w) {
    const telemetry::Label engine{"engine", "tree_bitmap"};
    const telemetry::Label plain[]{engine};
    w.counter("dip_fib_entries", plain, fib_table.size());
    w.counter("dip_fib_memory_bytes", plain, fib_table.memory_bytes());
    const telemetry::Label p50[]{engine, {"quantile", "0.5"}};
    w.gauge("dip_fib_lookup_depth", p50, depth_p50);
    const telemetry::Label p99[]{engine, {"quantile", "0.99"}};
    w.gauge("dip_fib_lookup_depth", p99, depth_p99);
  });
  page.add("pisa", [&pisa_rows](telemetry::StatsWriter& w) {
    for (const auto& row : pisa_rows) {
      const telemetry::Label comp{"composition", row.name};
      const telemetry::Label verdict[]{
          comp, {"verdict", std::string(pisa::to_string(row.report.verdict))}};
      w.gauge("dip_pisa_verdict", verdict, 1.0);
      const telemetry::Label plain[]{comp};
      w.gauge("dip_pisa_passes", plain, static_cast<double>(row.report.passes.size()));
      w.gauge("dip_pisa_stages_used", plain, static_cast<double>(row.report.stages_used));
      w.gauge("dip_pisa_parser_states", plain,
              static_cast<double>(row.report.parser_states));
      w.gauge("dip_pisa_phv_containers", plain,
              static_cast<double>(row.report.phv_containers));
      w.gauge("dip_pisa_cycles", plain, static_cast<double>(row.report.cycles));
    }
  });
  const std::string exposition = page.render();

  if (argc > 1) {
    std::ofstream out(argv[1]);
    out << exposition;
    std::printf("\n[exposition] %zu bytes written to %s\n", exposition.size(),
                argv[1]);
  } else {
    std::printf("\n[exposition] full stats page (%zu bytes):\n\n%s", exposition.size(),
                exposition.c_str());
  }

  pool.stop();
  std::printf("\n(sent %zu packets; see docs/OBSERVABILITY.md for the metric catalogue)\n",
              sent);
  return 0;
}
