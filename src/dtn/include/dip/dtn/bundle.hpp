// Host-side bundle transfer: BundleSender / BundleReceiver.
//
// The host half of docs/DTN.md, one implementation for every substrate:
// both endpoints send (and the sender schedules) through a host::HostPort —
// a netsim HostNode face, or a mesh router's local face inside
// dtn::MeshCustodyFleet. A bundle is an application payload cut into
// fragments; each fragment travels as one dip32+custody packet
// (make_dip32_custody_header) whose payload is the fragment bytes. The
// sender is the bundle's *initial custodian*: every fragment is driven by
// the sender's host::ReliableSender, keyed by frag_key, until the first
// custody-capable router ACKs — from then on recovery is the custodians'
// job, hop by hop, and the sender forgets the fragment. The receiver
// verifies the chain MAC, ACKs the last custodian (completing the final
// custody transfer), deduplicates, and reassembles.
//
// Reassembly policy mirrors the router's ValidationMode split:
//   * strict  — a fragment whose `total` disagrees with the bundle's
//     established geometry poisons the whole bundle (it can never assemble
//     coherently; fail loudly);
//   * lenient — the conflicting fragment alone is quarantined (counted,
//     ignored, NOT ACKed) and the bundle keeps assembling from well-formed
//     fragments — the custodian retries, and a clean copy completes it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "dip/dtn/custody.hpp"
#include "dip/host/retry.hpp"

namespace dip::dtn {

class BundleSender {
 public:
  struct Config {
    /// Source address; the receiver's final custody ACK is addressed to
    /// mesh::addr_of(node_id), so pick self = mesh::addr_of(node_id) (and
    /// route mesh::prefix_of(node_id) back to this host) for end-to-end ACKs.
    fib::Ipv4Addr self{};
    /// Seeds the custody chain as first custodian, and the high half of
    /// every bundle id: one of the address plan's node ids, 1..65,535.
    std::uint32_t node_id = 0;
    crypto::Block custody_key{};
    crypto::MacKind mac = crypto::MacKind::kEm2;
    std::size_t frag_payload = 512;  ///< payload bytes per fragment
    std::uint8_t hop_limit = 64;
    host::RetryPolicy retry{};
  };

  /// `port` must outlive the sender. Hook the host's receiver to on_packet
  /// (directly or via a demux that also feeds other consumers).
  BundleSender(host::HostPort& port, Config config)
      : config_(config), retry_(port, config.retry) {}
  BundleSender(const BundleSender&) = delete;
  BundleSender& operator=(const BundleSender&) = delete;

  /// Fragment `payload` toward `dst` and launch every fragment under retry.
  /// Returns the bundle id: node_id in the high 16 bits and the sender's
  /// bundle sequence in the low 16, so senders with distinct node ids (the
  /// hosts of one mesh) never mint the same id, and the custody stores'
  /// frag_key stays unique. A sender's 65,537th bundle reuses its first id.
  std::uint32_t send(const fib::Ipv4Addr& dst, std::span<const std::uint8_t> payload);

  /// Feed an incoming packet; returns true when it was a custody ACK
  /// addressed to us (consumed), false otherwise.
  bool on_packet(std::span<const std::uint8_t> packet);

  /// Fragments still awaiting their first custody transfer.
  [[nodiscard]] std::size_t in_flight() const noexcept { return retry_.in_flight(); }
  /// Fragments the network has taken custody of.
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  /// Fragments whose retry budget ran out before any custody ACK.
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retry_.retransmissions();
  }

 private:
  [[nodiscard]] std::vector<std::uint8_t> build_packet(
      const fib::Ipv4Addr& dst, const FragInfo& frag,
      std::span<const std::uint8_t> payload) const;

  Config config_;
  host::ReliableSender retry_;  ///< keyed by frag_key
  std::uint16_t next_sequence_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t failures_ = 0;
};

class BundleReceiver {
 public:
  struct Config {
    fib::Ipv4Addr self{};
    crypto::Block custody_key{};
    crypto::MacKind mac = crypto::MacKind::kEm2;
    bool strict = true;  ///< geometry-conflict policy (header comment)
  };

  /// Called once per completed bundle with the reassembled payload.
  using BundleHandler =
      std::function<void(std::uint32_t bundle_id, std::vector<std::uint8_t> payload)>;

  /// `port` must outlive the receiver; ACKs leave through it.
  BundleReceiver(host::HostPort& port, Config config, BundleHandler handler)
      : port_(port), config_(config), handler_(std::move(handler)) {}

  /// Feed an incoming packet; returns true when it was a custody-tagged
  /// fragment addressed to us (consumed — ACKed/deduped/assembled).
  bool on_packet(std::span<const std::uint8_t> packet);

  [[nodiscard]] std::uint64_t bundles_completed() const noexcept { return completed_.size(); }
  [[nodiscard]] bool completed(std::uint32_t bundle) const { return completed_.contains(bundle); }
  /// Every custody fragment addressed to us: rejected, duplicate or new.
  [[nodiscard]] std::uint64_t fragments_received() const noexcept { return fragments_; }
  [[nodiscard]] std::uint64_t duplicate_fragments() const noexcept { return duplicates_; }
  /// Bad MAC, malformed geometry, or (lenient) conflicting fragments.
  [[nodiscard]] std::uint64_t rejected_fragments() const noexcept { return rejected_; }
  /// Strict mode: bundles abandoned on a geometry conflict.
  [[nodiscard]] std::uint64_t poisoned_bundles() const noexcept { return poisoned_; }
  /// Custody ACKs sent: one per new or duplicate fragment, none for a
  /// rejected one.
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_; }

 private:
  struct Pending {
    std::uint16_t total = 0;
    std::map<std::uint16_t, std::vector<std::uint8_t>> frags;
    bool poisoned = false;
  };

  void send_ack(const CustodyTag& tag, const FragInfo& frag);

  host::HostPort& port_;
  Config config_;
  BundleHandler handler_;
  std::map<std::uint32_t, Pending> pending_;
  std::set<std::uint32_t> completed_;
  std::uint64_t fragments_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t poisoned_ = 0;
  std::uint64_t acks_ = 0;
};

}  // namespace dip::dtn
