// MeshCustodyFleet — the custody overlay over a scale-out UDP mesh.
//
// Every MeshRouter in a MeshNet becomes a custody-capable node: the fleet
//   * extends the module registry with CustodyOp/BundleFragOp (pass
//     make_registry() into MeshConfig.registry before building the mesh);
//   * installs one CustodyOverlay (overlay.hpp) on each router's runtime —
//     the same overlay dtn::CustodyRouterNode runs in netsim: commit, ACK
//     back out the ingress face, retry timers on the MeshEventLoop, and
//     store-full refusal that vetoes the forward;
//   * hangs one host off each router's local face: the same BundleSender
//     and BundleReceiver (bundle.hpp) a netsim host runs, through a
//     host::HostPort that injects at the local face one loop round later
//     (so no inject re-enters a router's verdict path) and arms its timers
//     on the MeshEventLoop. A host keeps its router's node id and address,
//     so the source router takes custody from its host and ACKs it out the
//     local face, as a netsim router ACKs its host out the ingress face.
//
// Custody hops ride the mesh's own wire path — every ACK and retransmission
// between routers goes through the ledgered egress (impair → frame → send),
// so blackouts and failed links exercise exactly the path the ledger audits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dip/dtn/bundle.hpp"
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
  ~MeshCustodyFleet();

  MeshCustodyFleet(const MeshCustodyFleet&) = delete;
  MeshCustodyFleet& operator=(const MeshCustodyFleet&) = delete;

  /// Send `payload` from router `src`'s host to router `dst`'s host
  /// (indices). The source router is the first custodian: the host's
  /// BundleSender retries a fragment its store refuses on the `retry`
  /// backoff until the router ACKs; one still refused after
  /// retry.max_retries retries counts in send_failures(). Returns the
  /// bundle id.
  std::uint32_t send(std::size_t src, std::size_t dst,
                     std::span<const std::uint8_t> payload);

  // ---- receiver-side status ---------------------------------------------
  /// True once the bundle assembled at any host.
  [[nodiscard]] bool bundle_complete(std::uint32_t bundle) const;
  [[nodiscard]] std::size_t bundles_sent() const noexcept { return bundle_times_.size(); }
  [[nodiscard]] std::size_t bundles_completed() const;
  /// Fragments the destination hosts took in: first copies, not duplicates
  /// or rejected ones.
  [[nodiscard]] std::uint64_t fragments_delivered() const;
  [[nodiscard]] std::uint64_t duplicate_fragments() const;
  /// Custody ACKs sent by routers plus destination ACKs.
  [[nodiscard]] std::uint64_t acks_sent() const;
  /// Forwards the routers' overlays vetoed (refusals plus duplicates).
  [[nodiscard]] std::uint64_t custody_drops() const;
  /// Fragments the source store refused through every retry.
  [[nodiscard]] std::uint64_t send_failures() const;

  /// (send time, completion time) in loop-clock ns of a bundle send()
  /// launched; completion 0 until the last fragment assembled. Recovery
  /// latency = completed - sent.
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
  /// One host on router i's local face.
  struct Host;

  [[nodiscard]] std::uint32_t node_id(std::size_t i) const noexcept {
    return static_cast<std::uint32_t>(i + 1);  // MeshNet's id = index + 1
  }

  mesh::MeshNet& mesh_;
  Config config_;
  std::vector<std::unique_ptr<CustodyOverlay>> overlays_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> bundle_times_;
};

}  // namespace dip::dtn
