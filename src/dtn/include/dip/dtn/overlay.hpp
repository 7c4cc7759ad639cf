// CustodyOverlay — custody transfer as a NodeRuntime overlay.
//
// Written once, for every substrate: dtn::CustodyRouterNode hangs one off a
// netsim router, dtn::MeshCustodyFleet one off each MeshRouter. Through the
// runtime's NodeOverlay hook it
//
//   * consumes custody ACKs addressed to this node: a MAC-valid ACK releases
//     the store entry it names (the retry timer then finds it gone); a
//     forged one is counted as an auth-failed drop;
//   * admits forwards: when the F_custody op stamped this node as custodian,
//     the post-rewrite bytes are committed to the bounded CustodyStore, the
//     previous custodian is ACKed back out the ingress face (the §2.4
//     reverse-path seam, no FIB entry needed) and a generation-checked retry
//     timer is armed;
//   * vetoes the forward when the store refuses (caps full of live custody:
//     no ACK, so the previous custodian keeps the bundle and retries) and
//     when the fragment is a duplicate (re-ACKed, never forwarded twice);
//   * replays stored bytes out the stored egress through the node's port on
//     each retry, paced by RetxScheduler so recovery traffic yields to first
//     transmissions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "dip/dtn/custody.hpp"
#include "dip/dtn/retx_sched.hpp"
#include "dip/dtn/store.hpp"
#include "dip/host/retry.hpp"
#include "dip/netsim/runtime.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::dtn {

/// The custody plane of a packet: its F_custody tag (not MAC-checked) and
/// F_frag geometry (default when absent).
struct CustodyView {
  core::DipHeader header;
  CustodyTag tag;
  FragInfo frag;
  std::span<const std::uint8_t> tag_field;  ///< into header.locations

  /// nullopt unless the packet parses and carries a whole custody field.
  [[nodiscard]] static std::optional<CustodyView> parse(std::span<const std::uint8_t> packet);
  /// True when the packet's dip32 destination is `addr`.
  [[nodiscard]] bool addressed_to(const fib::Ipv4Addr& addr) const;
};

class CustodyOverlay final : public netsim::NodeOverlay {
 public:
  struct Config {
    CustodyStore::Limits limits{};
    host::RetryPolicy retry{};  ///< custody retransmission schedule
  };
  /// Runs `fn` after `delay` on the substrate's event loop.
  using Scheduler = std::function<void(SimDuration delay, std::function<void()> fn)>;

  /// Installs itself as `runtime`'s overlay and its store into the
  /// runtime's RouterEnv::custody_store. The runtime's env carries the
  /// custody key, MAC kind and accept_custody.
  CustodyOverlay(netsim::NodeRuntime& runtime, const Config& config, Scheduler schedule);
  ~CustodyOverlay() { runtime_.set_overlay(nullptr); }

  CustodyOverlay(const CustodyOverlay&) = delete;
  CustodyOverlay& operator=(const CustodyOverlay&) = delete;

  [[nodiscard]] const CustodyStore& store() const noexcept { return *store_; }
  /// This node's custody address: the mesh address plan's
  /// mesh::addr_of(node_id), so custody ACKs route in either harness once
  /// mesh::prefix_of(node_id) is in the FIB.
  [[nodiscard]] fib::Ipv4Addr address() const noexcept;
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  /// Forwards vetoed: store refusals plus duplicate copies.
  [[nodiscard]] std::uint64_t custody_drops() const noexcept { return custody_drops_; }

  bool consume(netsim::FaceId ingress, std::span<const std::uint8_t> packet) override;
  bool admit(netsim::FaceId ingress, std::span<const std::uint8_t> packet,
             const core::ProcessResult& result) override;

  /// The store's `dip_dtn_*` series plus dip_dtn_acks_total and
  /// dip_dtn_custody_drops_total, node-labelled.
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  void arm_retry(std::uint64_t key);
  void on_retry(std::uint64_t key, std::uint32_t expected_attempts);

  netsim::NodeRuntime& runtime_;
  host::RetryPolicy retry_;
  Scheduler schedule_;
  std::shared_ptr<CustodyStore> store_;
  RetxScheduler retx_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t custody_drops_ = 0;
};

}  // namespace dip::dtn
