#include "dip/ctrl/control_plane.hpp"

#include <algorithm>

#include "dip/bootstrap/spf.hpp"

namespace dip::ctrl {

ControlPlane::ControlPlane(netsim::Network& net, ControlPlaneConfig config)
    : net_(net), config_(config) {}

void ControlPlane::manage(netsim::DipRouterNode& node) {
  auto tables = std::make_shared<ControlTables>();
  auto journal = std::make_unique<RouteJournal>(tables);

  core::RouterEnv& env = node.env();
  // Carry the node's statically installed state into the first snapshots,
  // then retire the static pointers from the forwarding path.
  journal->seed(env.fib32.get(), env.fib128.get(), env.xid_table.get());
  env.control = tables;
  env.ctrl_reader = tables->register_reader();
  // The simulator thread is this node's reader; join the protocol now so
  // grace periods start tracking it.
  tables->domain.resume(env.ctrl_reader);

  Managed m;
  m.node = &node;
  m.journal = std::move(journal);
  managed_[node.id()] = std::move(m);
}

void ControlPlane::add_destination(fib::Prefix<32> prefix,
                                   netsim::NodeId anchor,
                                   core::FaceId delivery_face) {
  prefix.normalize();
  destinations_.push_back(Destination{prefix, anchor, delivery_face});
}

RouteJournal* ControlPlane::journal(netsim::NodeId node) {
  const auto it = managed_.find(node);
  return it == managed_.end() ? nullptr : it->second.journal.get();
}

std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool>
ControlPlane::scan_links() const {
  std::map<std::pair<netsim::NodeId, netsim::FaceId>, bool> links;
  const SimTime now = net_.now();
  for (const auto& [id, m] : managed_) {
    const std::size_t faces = net_.face_count(id);
    for (netsim::FaceId f = 0; f < faces; ++f) {
      const netsim::LinkParams* params = net_.link_params(id, f);
      if (params == nullptr) continue;
      const auto peer = net_.peer_of(*m.node, f);
      if (!peer || !managed_.contains(peer->first)) continue;  // host port
      const netsim::LinkParams* back = net_.link_params(peer->first, peer->second);
      // Usable only if neither transmit half is inside a blackout window —
      // one dark half already blackholes a direction.
      const bool usable = !params->faults.in_blackout(now) &&
                          (back == nullptr || !back->faults.in_blackout(now));
      links[{id, f}] = usable;
    }
  }
  return links;
}

void ControlPlane::refresh(bool force) {
  ++stats_.polls;
  const SimTime now = net_.now();
  auto current = scan_links();

  bool changed = force || !have_link_state_;
  // Links that vanished since the last scan (face torn down) change the
  // topology even though no key in `current` flips.
  if (!changed) {
    for (const auto& [key, usable] : link_state_) {
      if (!current.contains(key)) {
        changed = true;
        break;
      }
    }
  }
  for (const auto& [key, usable] : current) {
    const auto prev = link_state_.find(key);
    if (prev == link_state_.end()) {
      // First sighting (a face connected after start()): there is no
      // up/down transition to account, but routes over it don't exist yet
      // — recompute or the new link stays unrouted forever.
      changed = true;
      continue;
    }
    if (prev->second == usable) continue;
    changed = true;
    // Both halves of a physical link transition together (usable is
    // computed symmetrically); account the event once, at the lower-id
    // endpoint.
    const auto peer = net_.peer_of(*managed_.at(key.first).node, key.second);
    if (peer && peer->first < key.first &&
        current.contains({peer->first, peer->second})) {
      continue;
    }
    // Reconstruct the transition instant from the blackout schedule of
    // whichever transmit half is (or was) dark: windows are
    // [k*period, k*period + duration), so with poll_interval shorter than
    // both the window and the gap, the current period holds the event.
    const netsim::LinkParams* halves[2] = {
        net_.link_params(key.first, key.second), nullptr};
    if (peer) {
      halves[1] = net_.link_params(peer->first, peer->second);
    }
    SimTime event = now;
    for (const netsim::LinkParams* p : halves) {
      if (p == nullptr || p->faults.blackout_period == 0 ||
          p->faults.blackout_duration == 0) {
        continue;
      }
      const SimDuration period = p->faults.blackout_period;
      const SimDuration duration = p->faults.blackout_duration;
      if (!usable && p->faults.in_blackout(now)) {
        event = std::min(event, (now / period) * period);  // window start
      } else if (usable && now % period >= duration) {
        event = std::min(event, (now / period) * period + duration);  // end
      }
    }
    if (usable) {
      ++stats_.link_up_events;
    } else {
      ++stats_.link_down_events;
    }
    stats_.last_event_time = event;
    convergence_pending_ = true;
  }
  link_state_ = std::move(current);
  have_link_state_ = true;

  if (changed) recompute();
  flush_journals();
}

void ControlPlane::recompute() {
  ++stats_.recomputes;
  constexpr std::uint32_t kNone = bootstrap::SpfGraph::kNone;

  // One graph over every managed node (index i = the i-th managed id) and
  // the usable managed-to-managed links. `faces` runs beside the graph's
  // rows: arc k of node i's row leaves through faces[face_row[i] + k]. Rows
  // are sorted by (neighbour, face), so the first arc toward a neighbour is
  // the lowest face toward it.
  std::vector<std::uint32_t> ids;
  ids.reserve(managed_.size());
  for (const auto& [id, m] : managed_) ids.push_back(id);
  bootstrap::SpfGraph graph(std::move(ids));
  std::vector<netsim::FaceId> faces;
  std::vector<std::size_t> face_row;
  face_row.reserve(managed_.size());
  std::vector<std::pair<std::uint32_t, netsim::FaceId>> row;
  for (const auto& [id, m] : managed_) {
    row.clear();
    for (auto link = link_state_.lower_bound({id, 0});
         link != link_state_.end() && link->first.first == id; ++link) {
      if (!link->second) continue;
      const auto peer = net_.peer_of(*m.node, link->first.second);
      if (!peer) continue;
      const std::uint32_t nb = graph.index_of(peer->first);
      if (nb != kNone) row.emplace_back(nb, link->first.second);
    }
    std::sort(row.begin(), row.end());
    face_row.push_back(faces.size());
    for (const auto& [nb, face] : row) {
      graph.add_neighbor(nb);
      faces.push_back(face);
    }
    graph.end_row();
  }
  std::vector<std::uint32_t> anchors;  // per destination: its anchor's index
  anchors.reserve(destinations_.size());
  for (const Destination& dest : destinations_) anchors.push_back(graph.index_of(dest.anchor));

  // Each node's route set across all destinations: the shared SPF's first
  // hop toward each anchor, out this node's lowest face toward it. The
  // journal enqueues only what differs from the set it last assigned.
  std::uint32_t i = 0;
  for (auto& [id, m] : managed_) {
    const std::vector<std::uint32_t> hops = bootstrap::first_hops(graph, i);
    const auto neighbors = graph.neighbors(i);
    std::map<fib::Prefix<32>, fib::NextHop> want;  // a later destination wins
    for (std::size_t d = 0; d < destinations_.size(); ++d) {
      const Destination& dest = destinations_[d];
      if (anchors[d] == kNone) continue;  // anchor not managed
      if (anchors[d] == i) {
        want[dest.prefix] = dest.delivery_face;
        continue;
      }
      const std::uint32_t hop = hops[anchors[d]];
      if (hop == kNone) continue;  // unreachable: no route (blackhole)
      const auto arc = std::find(neighbors.begin(), neighbors.end(), hop) - neighbors.begin();
      want[dest.prefix] = faces[face_row[i] + static_cast<std::size_t>(arc)];
    }
    const RouteJournal::RouteDelta delta =
        m.journal->assign_routes32({want.begin(), want.end()});
    stats_.routes_installed += delta.installed;
    stats_.routes_withdrawn += delta.withdrawn;
    ++i;
  }
}

void ControlPlane::flush_journals() {
  const SimTime now = net_.now();
  // This tick runs on the simulator thread — the same thread that drives
  // every managed node's scalar Router — so each node's sim-thread reader
  // is between bursts right now and provably holds no snapshot pointers.
  // Announce quiescence on their behalf: a traffic-idle node otherwise
  // never quiesces (Router only announces at burst boundaries), pinning
  // its resume-time version and growing the retired backlog unboundedly.
  for (const auto& [id, m] : managed_) m.node->env().ctrl_quiesce();
  bool any_dirty = false;
  for (const auto& [id, m] : managed_) any_dirty |= m.journal->dirty();

  const bool rate_limited = ever_published_ && config_.publish_interval > 0 &&
                            now - last_publish_ < config_.publish_interval;
  if (any_dirty && !rate_limited) {
    std::size_t published = 0;
    for (auto& [id, m] : managed_) {
      if (m.journal->dirty()) published += m.journal->flush();
    }
    if (published != 0) {
      ++stats_.publishes;
      last_publish_ = now;
      ever_published_ = true;
      if (convergence_pending_) {
        ++stats_.convergences;
        stats_.last_convergence_ns = now - stats_.last_event_time;
        convergence_pending_ = false;
      }
    }
  } else {
    // Nothing to publish (or holding for the publish window): still drain
    // any grace periods that elapsed since the last poll.
    for (auto& [id, m] : managed_) m.journal->tables().domain.try_reclaim();
  }
}

void ControlPlane::start(SimTime horizon) {
  refresh(/*force=*/true);
  const SimTime next = net_.now() + config_.poll_interval;
  if (next > horizon) return;
  net_.loop().schedule_at(next, [this, horizon] { start_tick(horizon); });
}

void ControlPlane::start_tick(SimTime horizon) {
  refresh();
  const SimTime next = net_.now() + config_.poll_interval;
  if (next > horizon) return;
  net_.loop().schedule_at(next, [this, horizon] { start_tick(horizon); });
}

void ControlPlane::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_ctrl_polls_total", {}, stats_.polls);
  const telemetry::Label down[] = {{"dir", "down"}};
  const telemetry::Label up[] = {{"dir", "up"}};
  w.counter("dip_ctrl_link_events_total", down, stats_.link_down_events);
  w.counter("dip_ctrl_link_events_total", up, stats_.link_up_events);
  w.counter("dip_ctrl_recomputes_total", {}, stats_.recomputes);
  w.counter("dip_ctrl_routes_installed_total", {}, stats_.routes_installed);
  w.counter("dip_ctrl_routes_withdrawn_total", {}, stats_.routes_withdrawn);
  w.counter("dip_ctrl_publishes_total", {}, stats_.publishes);
  w.counter("dip_ctrl_convergences_total", {}, stats_.convergences);
  w.counter("dip_ctrl_convergence_ns", {}, stats_.last_convergence_ns);

  for (const auto& [id, m] : managed_) {
    const std::string idx = std::to_string(id);
    const telemetry::Label labels[] = {{"node", idx}};
    const JournalStats& js = m.journal->stats();
    w.counter("dip_ctrl_updates_enqueued_total", labels, js.ops_enqueued);
    w.counter("dip_ctrl_updates_coalesced_total", labels, js.ops_coalesced);
    w.counter("dip_ctrl_updates_applied_total", labels, js.updates_applied);
    w.counter("dip_ctrl_snapshots_published_total", labels,
              js.snapshots_published);
    w.counter("dip_ctrl_snapshot_clones_total", labels, js.clones);
    const ControlTables& tables = *m.node->env().control;
    const fib::Ipv4Lpm* fib = tables.fib32.read();
    w.counter("dip_ctrl_snapshot_generation", labels,
              fib != nullptr ? fib->generation() : 0);
    w.counter("dip_ctrl_reclaim_backlog", labels, tables.domain.backlog());
    w.counter("dip_ctrl_reclaimed_total", labels,
              tables.domain.reclaimed_total());
    // FIB shape of the live snapshot (catalogued in docs/OBSERVABILITY.md).
    w.counter("dip_fib_entries", labels, fib != nullptr ? fib->size() : 0);
    w.counter("dip_fib_memory_bytes", labels,
              fib != nullptr ? fib->memory_bytes() : 0);
    w.counter("dip_fib_publish_latency_ns", labels, js.last_flush_ns);
    w.counter("dip_fib_publish_latency_max_ns", labels, js.max_flush_ns);
  }
}

}  // namespace dip::ctrl
