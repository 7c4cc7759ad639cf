// Network: nodes, faces, links, and packet transport.
//
// Topology model: nodes are added first, then connected pairwise; each
// connection allocates one face id on each endpoint. A link has propagation
// latency, bandwidth (serialization delay = bits / bandwidth), an optional
// transmit-queue bound, and a FaultPlan (faults.hpp), the one way a link
// loses packets. Delivery is in-order per link.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dip/netsim/event_loop.hpp"
#include "dip/netsim/faults.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::netsim {

using NodeId = std::uint32_t;
using FaceId = std::uint32_t;

/// A captured packet in flight or delivered (tests/tracing).
using PacketBytes = std::vector<std::uint8_t>;

class Network;

/// Anything attachable to the network: DIP routers, hosts, legacy routers,
/// border routers.
class Node {
 public:
  virtual ~Node() = default;

  /// Called when a packet arrives on `face` at simulated time `now`.
  virtual void on_packet(FaceId face, PacketBytes packet, SimTime now) = 0;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Network* network() const noexcept { return network_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  Network* network_ = nullptr;
};

struct LinkParams {
  SimDuration latency = 1 * kMicrosecond;
  std::uint64_t bandwidth_bps = 10'000'000'000;  ///< 10 Gb/s default
  /// Tail-drop bound: a packet that would wait longer than this in the
  /// transmit queue is dropped (0 = infinite queue). Models the finite
  /// buffers the NetFence/CSFQ experiments congest against.
  SimDuration max_queue_delay = 0;
  /// Deterministic fault schedule (drop/duplicate/corrupt/reorder/blackout);
  /// inactive by default. Its drop_rate is the link's random loss. See
  /// faults.hpp and docs/FAULTS.md.
  FaultPlan faults;
};

class Network {
 public:
  /// `seed`, mixed with each half-link's ordinal, seeds every link's
  /// FaultStream.
  explicit Network(std::uint64_t seed = 1) : seed_(seed) {}

  /// Attach a node; the network does not own it.
  NodeId add_node(Node& node);

  /// Connect two attached nodes; returns (face on a, face on b).
  std::pair<FaceId, FaceId> connect(Node& a, Node& b, LinkParams params = {});

  /// Transmit out of `face` of `from`. Packets on unconnected faces are
  /// counted as dropped.
  void send(const Node& from, FaceId face, PacketBytes packet);

  /// The neighbor face reachable through (node, face), if connected.
  [[nodiscard]] std::optional<std::pair<NodeId, FaceId>> peer_of(const Node& node,
                                                                 FaceId face) const;

  /// Faces allocated on `node` so far (control-plane link-state scans
  /// iterate [0, face_count) and probe link_params per face).
  [[nodiscard]] std::size_t face_count(NodeId node) const noexcept {
    return node < faces_.size() ? faces_[node].size() : 0;
  }

  /// Parameters of the half-link transmitting out of (node, face), or
  /// nullptr if unconnected/out of range. The control plane reads the
  /// FaultPlan here to derive link state (FaultPlan::in_blackout is a pure
  /// function of simulated time, so "is this link dark right now" needs no
  /// extra event plumbing).
  [[nodiscard]] const LinkParams* link_params(NodeId node, FaceId face) const {
    if (node >= faces_.size() || face >= faces_[node].size()) return nullptr;
    const HalfLink& h = faces_[node][face];
    return h.connected ? &h.params : nullptr;
  }

  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] SimTime now() const noexcept { return loop_.now(); }

  /// Run the simulation to quiescence (or deadline).
  std::size_t run(SimTime deadline = ~SimTime{0}) { return loop_.run(deadline); }

  /// The transport ledger (faults.hpp) plus two series outside its
  /// equation. `lost` counts FaultPlan::drop_rate drops; `dropped` counts
  /// tail drops at full transmit queues.
  struct Stats : TransportLedger {
    std::uint64_t dead_faced = 0;  ///< sent on an unconnected face
    std::uint64_t bytes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Every injected fault in order (bounded by kFaultTraceLimit entries;
  /// fault_events() keeps the true total). Two runs with equal seeds,
  /// topology, and traffic produce equal traces.
  static constexpr std::size_t kFaultTraceLimit = 1 << 16;
  [[nodiscard]] const std::vector<FaultEvent>& fault_trace() const noexcept {
    return fault_trace_;
  }
  [[nodiscard]] std::uint64_t fault_events() const noexcept { return fault_events_; }

  /// Render the transport ledger and per-fault-kind counters as
  /// `dip_net_*` series (catalogue in docs/OBSERVABILITY.md).
  void write_stats(telemetry::StatsWriter& w) const;

  /// Optional wiretap invoked on every delivered packet (tracing).
  using Tap = std::function<void(NodeId from, NodeId to, FaceId ingress,
                                 std::span<const std::uint8_t>, SimTime)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  struct HalfLink {
    NodeId peer_node = 0;
    FaceId peer_face = 0;
    LinkParams params;
    bool connected = false;
    SimTime busy_until = 0;  ///< serialization: in-order, back-to-back
    FaultStream faults;      ///< seeded from (network seed, half-link ordinal)
  };

  HalfLink* half(NodeId node, FaceId face);
  void record_fault(FaultKind kind, NodeId node, FaceId face,
                    std::uint64_t packet_index, std::uint64_t detail);

  EventLoop loop_;
  std::vector<Node*> nodes_;
  // faces_[node][face] -> half link.
  std::vector<std::vector<HalfLink>> faces_;
  std::uint64_t seed_;
  std::uint64_t next_link_ordinal_ = 0;
  std::vector<FaultEvent> fault_trace_;
  std::uint64_t fault_events_ = 0;
  std::array<std::uint64_t, 5> faults_by_kind_{};  ///< indexed by FaultKind
  Stats stats_;
  Tap tap_;
};

}  // namespace dip::netsim
