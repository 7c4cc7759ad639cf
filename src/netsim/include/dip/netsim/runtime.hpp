// NodeRuntime — the one DIP router runtime every substrate drives.
//
// A core::Router plus everything a router node does with its verdicts:
// forward and replicate, the drop-reason ledger, the §2.4 FN-unsupported
// notification sent back out the ingress face, the footnote-2 content-store
// answer, and the burst buckets that feed Router::process_batch. It knows
// nothing about links or sockets; a substrate adapts it through NodePort
// (send bytes on a face, read the clock):
//
//   netsim::DipRouterNode  ── NodePort ──► Network::send (simulated links)
//   mesh::MeshRouter       ── NodePort ──► impair → frame → UDP socket
//
// Overlays hang off the runtime through NodeOverlay, which sees every packet
// before the router (and may consume it) and every forward verdict after the
// FN rewrites (and may veto it). The DTN custody overlay (dtn/overlay.hpp)
// is the one user; it serves both substrates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::netsim {

using FaceId = std::uint32_t;
using PacketBytes = std::vector<std::uint8_t>;

/// The transport a NodeRuntime drives.
class NodePort {
 public:
  /// Transmit a copy of `packet` out `face`.
  virtual void send(FaceId face, std::span<const std::uint8_t> packet) = 0;
  /// Transmit `packet` out `face`, handing over its buffer. Ports that copy
  /// on every send anyway keep this default.
  virtual void send(FaceId face, PacketBytes&& packet) {
    send(face, std::span<const std::uint8_t>(packet));
  }
  [[nodiscard]] virtual SimTime now() const = 0;

 protected:
  ~NodePort() = default;
};

/// Hook for overlays that take part in forwarding (dtn::CustodyOverlay).
class NodeOverlay {
 public:
  /// Before the router runs. True consumes the packet: it is neither
  /// processed nor counted by the runtime.
  virtual bool consume(FaceId ingress, std::span<const std::uint8_t> packet) = 0;
  /// After a forward verdict that is not a cache answer, with the FN
  /// rewrites applied. False vetoes the forward.
  virtual bool admit(FaceId ingress, std::span<const std::uint8_t> packet,
                     const core::ProcessResult& result) = 0;

 protected:
  ~NodeOverlay() = default;
};

class NodeRuntime {
 public:
  /// `port` must outlive the runtime.
  NodeRuntime(NodePort& port, core::RouterEnv env,
              std::shared_ptr<const core::OpRegistry> registry);
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] core::Router& router() noexcept { return router_; }
  [[nodiscard]] const core::Router& router() const noexcept { return router_; }
  [[nodiscard]] core::RouterEnv& env() noexcept { return router_.env(); }
  [[nodiscard]] const core::RouterEnv& env() const noexcept { return router_.env(); }
  [[nodiscard]] NodePort& port() noexcept { return port_; }

  /// Install (or clear, with nullptr) the overlay; not owned.
  void set_overlay(NodeOverlay* overlay) noexcept { overlay_ = overlay; }

  /// One packet through the scalar path. `owned`, when the caller has one,
  /// is the buffer behind `packet`: the last egress takes it instead of a
  /// copy.
  void process(FaceId ingress, std::span<std::uint8_t> packet, SimTime now,
               PacketBytes* owned = nullptr);

  /// Copy `packet` into `ingress`'s burst bucket (unless the overlay
  /// consumes it); flush() runs every bucket through process_batch.
  /// Buckets reuse their buffers from burst to burst (see Bucket).
  void enqueue(FaceId ingress, std::span<const std::uint8_t> packet);
  void flush(SimTime now);

  /// Record a drop in the ledger (verdicts, and overlays' own drops).
  void count_drop(core::DropReason reason) noexcept {
    ++drop_counts_[static_cast<std::size_t>(reason) % drop_counts_.size()];
  }

  /// Per-drop-reason verdict counters (drops and errors alike).
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return drop_counts_[static_cast<std::size_t>(reason) % drop_counts_.size()];
  }

  /// Router counters and, when RouterEnv::stats is installed, the latency
  /// histograms, labelled node="<node_id>".
  void write_router_stats(telemetry::StatsWriter& w) const;
  /// The drop ledger as `series`{node, reason}, non-zero reasons only.
  void write_drops(telemetry::StatsWriter& w, std::string_view series) const;

 private:
  void apply_verdict(FaceId ingress, std::span<std::uint8_t> packet, PacketBytes* owned,
                     const core::ProcessResult& result);
  void emit_error(std::span<const std::uint8_t> original, core::OpKey offending,
                  FaceId ingress);
  void respond_from_cache(std::span<const std::uint8_t> interest, FaceId ingress);

  NodePort& port_;
  std::shared_ptr<const core::OpRegistry> registry_;
  core::Router router_;
  NodeOverlay* overlay_ = nullptr;
  std::array<std::uint64_t, 16> drop_counts_{};

  // Ingress burst buckets: per-face packet copies collected during a drain,
  // then run through process_batch. A bucket keeps its buffers across
  // flushes and copies each packet into the next free one (`assign`), so a
  // steady stream allocates nothing here; a port that takes the last egress
  // buffer (netsim's) leaves an empty one behind. Bound: a flush that runs
  // D packets in all trims every bucket to at most 2·D buffers, so between
  // flushes no face keeps more than twice the last drain's packet count,
  // each buffer no larger than the largest packet it held. A flood's
  // buffers go at the next drain that is not a flood; a flush with nothing
  // to run changes nothing.
  struct Bucket {
    FaceId face = 0;
    std::vector<PacketBytes> packets;
    std::size_t count = 0;  ///< packets of the open burst: packets[0, count)
  };
  std::vector<Bucket> buckets_;
  std::vector<core::PacketRef> burst_refs_;
  std::vector<core::ProcessResult> burst_results_;
};

}  // namespace dip::netsim
