// ControlPlane — netsim-driven route computation over RCU snapshots.
//
// The first subsystem where router state changes are driven by the network
// rather than by test setup: the control plane polls link state (PR-3
// blackout schedules are pure functions of simulated time), recomputes
// shortest paths over the managed topology on every transition, and pushes
// the per-node route deltas through each node's RouteJournal — data planes
// keep forwarding off the old snapshots until the new ones are published.
//
// Scope deliberately matches the experiments: destinations are IPv4
// prefixes anchored at a node (the paper's eval traffic), link metric is
// hop count, and next hops follow the shared SPF rule (bootstrap/spf.hpp:
// the smallest-id neighbour on some shortest path), so the computation is
// deterministic and matches the mesh's for the same topology.
// The machinery underneath (journal, snapshots, QSBR) is protocol-agnostic.
//
// Convergence accounting: when a poll observes a link transition, the
// transition's *event time* is reconstructed exactly from the blackout
// schedule (window start for down, window end for up); the convergence time
// reported for the following publish is publish_time - event_time, i.e. it
// includes detection latency — the end-to-end number a deployment cares
// about, not just the recompute cost.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dip/ctrl/journal.hpp"
#include "dip/ctrl/tables.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/network.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::ctrl {

struct ControlPlaneConfig {
  /// Link-state scan cadence (simulated time).
  SimDuration poll_interval = 100 * kMicrosecond;
  /// Minimum spacing between snapshot publishes per node; deltas decided
  /// inside the window stay pending (and coalesce) until it elapses. 0 =
  /// publish as soon as a recompute dirties a journal.
  SimDuration publish_interval = 0;
};

struct ControlPlaneStats {
  std::uint64_t polls = 0;
  std::uint64_t link_down_events = 0;
  std::uint64_t link_up_events = 0;
  std::uint64_t recomputes = 0;          ///< SPF runs (one per transition batch)
  std::uint64_t routes_installed = 0;    ///< journal adds enqueued
  std::uint64_t routes_withdrawn = 0;    ///< journal removes enqueued
  std::uint64_t publishes = 0;           ///< flush rounds that published
  std::uint64_t convergences = 0;
  SimTime last_event_time = 0;           ///< reconstructed transition time
  SimDuration last_convergence_ns = 0;   ///< publish - event, end to end
};

class ControlPlane {
 public:
  explicit ControlPlane(netsim::Network& net, ControlPlaneConfig config = {});

  /// Put a router under management: create its ControlTables + journal,
  /// seed snapshots from the env's static tables, register the env as a
  /// reader, and switch its data path to the snapshot views. Call before
  /// traffic starts.
  void manage(netsim::DipRouterNode& node);

  /// Declare a destination: traffic matching `prefix` is routed toward
  /// `anchor`; the anchor itself forwards out of `delivery_face` (its host
  /// port). Takes effect on the next refresh().
  void add_destination(fib::Prefix<32> prefix, netsim::NodeId anchor,
                       core::FaceId delivery_face);

  /// Scan link state, recompute routes if anything changed (or `force`),
  /// enqueue deltas, and flush journals subject to publish_interval.
  void refresh(bool force = false);

  /// Self-rescheduling poll on net.loop() every poll_interval until
  /// `horizon`. Runs one forced refresh immediately to install the initial
  /// routes.
  void start(SimTime horizon);

  [[nodiscard]] const ControlPlaneStats& stats() const noexcept { return stats_; }
  /// The journal managing `node`, or nullptr if not managed.
  [[nodiscard]] RouteJournal* journal(netsim::NodeId node);

  /// `dip_ctrl_*` series (catalogue in docs/OBSERVABILITY.md): global
  /// poll/convergence counters plus per-node journal and QSBR gauges.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  struct Managed {
    netsim::DipRouterNode* node = nullptr;
    /// Each recompute assigns the node's whole route set; the journal
    /// enqueues only what changed.
    std::unique_ptr<RouteJournal> journal;
  };

  struct Destination {
    fib::Prefix<32> prefix;
    netsim::NodeId anchor = 0;
    core::FaceId delivery_face = 0;
  };

  /// (node, face) -> link currently usable, for every managed-to-managed
  /// half-link. A link is usable only if *both* halves are out of blackout
  /// (either dark half blackholes one direction).
  [[nodiscard]] std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool>
  scan_links() const;

  void recompute();
  void flush_journals();
  void start_tick(SimTime horizon);

  netsim::Network& net_;
  ControlPlaneConfig config_;
  ControlPlaneStats stats_;
  std::map<netsim::NodeId, Managed> managed_;
  std::vector<Destination> destinations_;
  std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool> link_state_;
  bool have_link_state_ = false;
  SimTime last_publish_ = 0;
  bool ever_published_ = false;
  /// A transition was observed and routes republished for it is pending.
  bool convergence_pending_ = false;
};

}  // namespace dip::ctrl
