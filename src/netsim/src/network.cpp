#include "dip/netsim/network.hpp"

#include <cassert>

namespace dip::netsim {

NodeId Network::add_node(Node& node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  node.id_ = id;
  node.network_ = this;
  nodes_.push_back(&node);
  faces_.emplace_back();
  return id;
}

std::pair<FaceId, FaceId> Network::connect(Node& a, Node& b, LinkParams params) {
  assert(a.network_ == this && b.network_ == this);
  auto& fa = faces_[a.id()];
  auto& fb = faces_[b.id()];
  const auto face_a = static_cast<FaceId>(fa.size());
  const auto face_b = static_cast<FaceId>(fb.size());
  HalfLink half_a{b.id(), face_b, params, true, 0,
                  FaultStream(params.faults, seed_, next_link_ordinal_++)};
  HalfLink half_b{a.id(), face_a, params, true, 0,
                  FaultStream(params.faults, seed_, next_link_ordinal_++)};
  fa.push_back(std::move(half_a));
  fb.push_back(std::move(half_b));
  return {face_a, face_b};
}

Network::HalfLink* Network::half(NodeId node, FaceId face) {
  if (node >= faces_.size() || face >= faces_[node].size()) return nullptr;
  HalfLink& h = faces_[node][face];
  return h.connected ? &h : nullptr;
}

std::optional<std::pair<NodeId, FaceId>> Network::peer_of(const Node& node,
                                                          FaceId face) const {
  if (node.id() >= faces_.size() || face >= faces_[node.id()].size()) {
    return std::nullopt;
  }
  const HalfLink& h = faces_[node.id()][face];
  if (!h.connected) return std::nullopt;
  return std::make_pair(h.peer_node, h.peer_face);
}

void Network::record_fault(FaultKind kind, NodeId node, FaceId face,
                           std::uint64_t packet_index, std::uint64_t detail) {
  ++fault_events_;
  ++faults_by_kind_[static_cast<std::size_t>(kind) % faults_by_kind_.size()];
  if (fault_trace_.size() < kFaultTraceLimit) {
    fault_trace_.push_back({kind, node, face, packet_index, loop_.now(), detail});
  }
}

void Network::send(const Node& from, FaceId face, PacketBytes packet) {
  HalfLink* link = half(from.id(), face);
  if (link == nullptr) {
    ++stats_.dead_faced;
    return;
  }
  ++stats_.transmitted;
  stats_.bytes += packet.size();

  if (link->params.loss_rate > 0 && rng_.uniform() < link->params.loss_rate) {
    ++stats_.lost;
    return;
  }

  // FaultPlan decisions: the half-link's own stream, in the fixed draw
  // order (faults.hpp), so the fault trace is a pure function of (seed,
  // topology, traffic). Corruption mutates the bytes now but is *counted*
  // only if the packet actually delivers — a corrupted-then-queue-dropped
  // packet lands in exactly one ledger bucket (dropped).
  const NodeId from_node = from.id();
  const std::uint64_t pkt_idx = link->faults.packet_index();
  const FaultDecision fault = link->faults.next(loop_.now(), packet);
  if (fault.blackout) {
    ++stats_.blackholed;
    record_fault(FaultKind::kBlackout, from_node, face, pkt_idx, 0);
    return;
  }
  if (fault.drop) {
    ++stats_.lost;
    record_fault(FaultKind::kDrop, from_node, face, pkt_idx, 0);
    return;
  }
  if (fault.corrupt_bytes != 0) {
    record_fault(FaultKind::kCorrupt, from_node, face, pkt_idx, fault.corrupt_bytes);
  }
  if (fault.duplicate) record_fault(FaultKind::kDuplicate, from_node, face, pkt_idx, 0);
  if (fault.extra_delay_ns != 0) {
    record_fault(FaultKind::kReorder, from_node, face, pkt_idx, fault.extra_delay_ns);
  }

  // Serialization: the face transmits packets back to back, in order.
  const SimDuration tx_time =
      link->params.bandwidth_bps == 0
          ? 0
          : (packet.size() * 8 * kSecond) / link->params.bandwidth_bps;
  const SimTime start = std::max(loop_.now(), link->busy_until);
  if (link->params.max_queue_delay != 0 &&
      start - loop_.now() > link->params.max_queue_delay) {
    ++stats_.dropped;  // finite buffer: tail drop
    return;
  }
  const SimTime arrive = start + tx_time + link->params.latency + fault.extra_delay_ns;
  link->busy_until = start + tx_time;

  const NodeId to_node = link->peer_node;
  const FaceId to_face = link->peer_face;
  const bool was_corrupted = fault.corrupt_bytes != 0;

  if (fault.duplicate) {
    // The copy rides back to back behind the original: it occupies the link
    // for another tx_time and skips the queue check the original passed.
    ++stats_.duplicated;
    const SimTime dup_arrive = arrive + tx_time;
    link->busy_until += tx_time;
    loop_.schedule_at(dup_arrive, [this, from_node, to_node, to_face, was_corrupted,
                                   packet]() mutable {
      ++stats_.delivered;
      if (was_corrupted) ++stats_.corrupted;
      if (tap_) tap_(from_node, to_node, to_face, packet, loop_.now());
      nodes_[to_node]->on_packet(to_face, std::move(packet), loop_.now());
    });
  }
  loop_.schedule_at(arrive, [this, from_node, to_node, to_face, was_corrupted,
                             packet = std::move(packet)]() mutable {
    ++stats_.delivered;
    if (was_corrupted) ++stats_.corrupted;
    if (tap_) tap_(from_node, to_node, to_face, packet, loop_.now());
    nodes_[to_node]->on_packet(to_face, std::move(packet), loop_.now());
  });
}

void Network::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_net_transmitted_total", {}, stats_.transmitted);
  w.counter("dip_net_delivered_total", {}, stats_.delivered);
  w.counter("dip_net_lost_total", {}, stats_.lost);
  w.counter("dip_net_queue_dropped_total", {}, stats_.dropped);
  w.counter("dip_net_dead_faced_total", {}, stats_.dead_faced);
  w.counter("dip_net_bytes_total", {}, stats_.bytes);
  w.counter("dip_net_duplicated_total", {}, stats_.duplicated);
  w.counter("dip_net_corrupted_total", {}, stats_.corrupted);
  w.counter("dip_net_blackholed_total", {}, stats_.blackholed);
  w.counter("dip_net_fault_events_total", {}, fault_events_);
  for (std::size_t k = 0; k < faults_by_kind_.size(); ++k) {
    if (faults_by_kind_[k] == 0) continue;
    const telemetry::Label labels[] = {
        {"kind", to_string(static_cast<FaultKind>(k))}};
    w.counter("dip_net_faults_total", labels, faults_by_kind_[k]);
  }
}

void Network::register_stats(telemetry::StatsRegistry& registry) const {
  registry.add("network", [this](telemetry::StatsWriter& w) { write_stats(w); });
}

}  // namespace dip::netsim
