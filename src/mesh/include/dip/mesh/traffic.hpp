// Zipf flow-churn traffic for the mesh (the soak workload).
//
// A fixed-size flow table: each flow is (src router, dst router, flow id),
// destinations drawn from a Zipf(1.0) popularity distribution over the mesh
// (netsim::ZipfSampler — the same skew the caching work uses), sources
// uniform. churn() retires the oldest flows and admits fresh Zipf-sampled
// ones, so the working set drifts the way real traffic mixes do while the
// whole schedule stays a pure function of the seed.
//
// Packets are DIP-32 (F_32_match + F_source) addressed by the mesh address
// plan, with a 16-byte probe payload carrying the flow id and the send
// timestamp; on local delivery the generator computes end-to-end latency
// against the loop clock (exact under ManualClock, wall-clock under
// SteadyClock).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "dip/mesh/mesh_net.hpp"
#include "dip/netsim/topology.hpp"

namespace dip::mesh {

struct TrafficConfig {
  std::size_t flows = 64;       ///< concurrent flow-table size
  std::uint64_t seed = 1;
  std::size_t churn_flows = 4;  ///< flows replaced per churn() call
};

struct TrafficStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;     ///< probe payloads that came back intact
  std::uint64_t mismatched = 0;   ///< delivered locally but not a probe
  std::uint64_t flows_churned = 0;
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t latency_max_ns = 0;

  [[nodiscard]] double mean_latency_ns() const noexcept {
    return received ? static_cast<double>(latency_sum_ns) / static_cast<double>(received) : 0.0;
  }
};

class MeshTrafficGen {
 public:
  /// Installs itself as the mesh's delivery handler.
  MeshTrafficGen(MeshNet& net, TrafficConfig config);

  /// Inject `packets` probes, round-robin over the flow table. Returns the
  /// number injected.
  std::size_t tick(std::size_t packets);

  /// Replace the `churn_flows` oldest flows with fresh Zipf picks.
  void churn();

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }

  /// `dip_mesh_traffic_*` series.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  struct Flow {
    std::size_t src = 0;
    std::size_t dst = 0;
    std::uint32_t id = 0;
  };

  [[nodiscard]] Flow make_flow();
  void on_delivered(std::size_t node, std::span<const std::uint8_t> packet,
                    std::uint64_t now);

  MeshNet& net_;
  TrafficConfig config_;
  netsim::ZipfSampler zipf_;
  crypto::Xoshiro256 rng_;
  std::deque<Flow> flows_;  ///< oldest at front (churn order)
  std::uint32_t next_flow_id_ = 1;
  std::size_t cursor_ = 0;
  TrafficStats stats_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace dip::mesh
