// MeshCustodyFleet — the custody overlay over a scale-out UDP mesh.
//
// Every MeshRouter in a MeshNet becomes a custody-capable node: the fleet
//   * extends the module registry with CustodyOp/BundleFragOp (pass
//     make_registry() into MeshConfig.registry before building the mesh);
//   * installs one CustodyOverlay (overlay.hpp) on each router's runtime —
//     the same overlay dtn::CustodyRouterNode runs in netsim: commit, ACK
//     back out the ingress face, retry timers on the MeshEventLoop, and
//     store-full refusal that vetoes the forward;
//   * plays the hosts: fragments a bundle and injects it at the source
//     router (re-offering a fragment the source store refused), and at the
//     destination router's local face deduplicates, reassembles and ACKs
//     the delivering custodian.
//
// Custody hops ride the mesh's own wire path — every ACK and retransmission
// goes through the ledgered egress (impair → frame → send), so blackouts
// and failed links exercise exactly the path the ledger audits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dip/dtn/overlay.hpp"
#include "dip/mesh/mesh_net.hpp"

namespace dip::dtn {

class MeshCustodyFleet {
 public:
  struct Config {
    crypto::Block custody_key{};
    CustodyStore::Limits limits{};
    host::RetryPolicy retry{};
    std::size_t frag_payload = 256;  ///< payload bytes per fragment
  };

  /// The default module stack plus the custody modules — hand this to
  /// MeshConfig.registry before constructing the MeshNet.
  [[nodiscard]] static std::shared_ptr<core::OpRegistry> make_registry();

  /// Attaches to every router already in `mesh` (build the topology first)
  /// and installs itself as the mesh delivery handler.
  MeshCustodyFleet(mesh::MeshNet& mesh, Config config);
  explicit MeshCustodyFleet(mesh::MeshNet& mesh)
      : MeshCustodyFleet(mesh, Config{}) {}

  /// Fragment `payload` and inject it at router `src` addressed to router
  /// `dst` (mesh::addr_of identities). The source router is the initial
  /// custodian: its store holds every fragment until the next custodian
  /// ACKs. A fragment the source store refuses is re-offered on the
  /// `retry` backoff, like a host awaiting its first custodian's ACK; one
  /// still refused after retry.max_retries re-offers counts in
  /// send_failures(). Returns the bundle id.
  std::uint32_t send(std::size_t src, std::size_t dst,
                     std::span<const std::uint8_t> payload);

  // ---- receiver-side status ---------------------------------------------
  [[nodiscard]] bool bundle_complete(std::uint32_t bundle) const {
    return rx_complete_.count(bundle) != 0;
  }
  [[nodiscard]] std::size_t bundles_sent() const noexcept { return bundle_times_.size(); }
  [[nodiscard]] std::size_t bundles_completed() const noexcept { return rx_complete_.size(); }
  [[nodiscard]] std::uint64_t fragments_delivered() const noexcept { return fragments_delivered_; }
  [[nodiscard]] std::uint64_t duplicate_fragments() const noexcept { return duplicates_; }
  /// Custody ACKs sent by routers plus destination ACKs.
  [[nodiscard]] std::uint64_t acks_sent() const noexcept;
  /// Forwards the routers' overlays vetoed (refusals plus duplicates).
  [[nodiscard]] std::uint64_t custody_drops() const noexcept;
  /// Fragments the source store refused through every re-offer.
  [[nodiscard]] std::uint64_t send_failures() const noexcept { return send_failures_; }

  /// (send time, completion time) in loop-clock ns; completion 0 until the
  /// last fragment assembled. Recovery latency = completed - sent.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> bundle_times(
      std::uint32_t bundle) const;

  // ---- custody-store status ---------------------------------------------
  [[nodiscard]] const CustodyStore& store(std::size_t i) const {
    return overlays_.at(i)->store();
  }
  /// True when every store drained — each committed fragment was ACKed by
  /// the next custodian or the destination (the 100%-recovery audit).
  [[nodiscard]] bool stores_empty() const;
  [[nodiscard]] CustodyStoreStats aggregate_store_stats() const;
  /// Store high-water across the fleet, in bytes.
  [[nodiscard]] std::size_t store_bytes_high_water() const;

  /// Fleet-aggregate dip_dtn_* series plus each node's store series.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  struct RxBundle {
    std::uint16_t total = 0;
    std::set<std::uint16_t> got;
  };

  [[nodiscard]] std::uint32_t node_id(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(i + 1);  // MeshNet's id = index + 1
  }

  /// Inject one fragment at its source router; re-offer it later if the
  /// source store refused it.
  void offer(std::size_t src, std::uint64_t key, const mesh::PacketBytes& packet,
             std::uint32_t attempt);
  void on_delivery(std::size_t i, std::span<const std::uint8_t> packet,
                   std::uint64_t now);

  mesh::MeshNet& mesh_;
  Config config_;
  std::vector<std::unique_ptr<CustodyOverlay>> overlays_;
  std::map<std::uint32_t, RxBundle> rx_pending_;
  std::set<std::uint32_t> rx_complete_;
  std::set<std::uint64_t> rx_frags_;  ///< delivered fragment keys (dedup)
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> bundle_times_;
  std::uint32_t next_bundle_ = 1;
  std::uint64_t fragments_delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t delivery_acks_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace dip::dtn
