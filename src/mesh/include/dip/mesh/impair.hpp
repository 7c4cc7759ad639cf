// LinkImpairer — netem for the UDP mesh over netsim's FaultPlan.
//
// The mesh sends real datagrams, so faults are injected at the socket send
// path instead of inside a simulated link. The decisions come from the same
// netsim::FaultStream a simulated half-link draws from (faults.hpp): one
// seed mix, one draw order. Two runs with the same seed, topology, and
// traffic make identical per-packet decisions regardless of wall-clock
// jitter; only reorder *placement* (an extra hold-back delay served by loop
// timers) is timing-dependent.
//
// Ledger semantics match netsim::Network (docs/FAULTS.md): drop and
// blackout consume the packet before the wire; duplicate sends a second
// copy back to back; corrupt flips bytes but still delivers (informational
// bucket); reorder delays but still delivers.
#pragma once

#include <cstdint>
#include <span>

#include "dip/netsim/faults.hpp"

namespace dip::mesh {

/// What the impairer decided for one packet.
using ImpairDecision = netsim::FaultDecision;

/// Per-half-link fault injector for one mesh face. Thread-confined along
/// with its owning router.
class LinkImpairer {
 public:
  LinkImpairer() = default;
  LinkImpairer(const netsim::FaultPlan& plan, std::uint64_t fault_seed,
               std::uint32_t ordinal) noexcept
      : stream_(plan, fault_seed, ordinal) {}

  [[nodiscard]] bool active() const noexcept { return stream_.plan().active(); }
  [[nodiscard]] const netsim::FaultPlan& plan() const noexcept { return stream_.plan(); }
  /// Packets decided so far on this half-link (the FaultEvent index).
  [[nodiscard]] std::uint64_t packet_index() const noexcept {
    return stream_.packet_index();
  }

  /// Decide the fate of the next packet on this half-link; `packet` is
  /// mutated in place when the corrupt draw hits (the frame checksum covers
  /// only the header, so router-level validation sees the flips). Defined
  /// out of line: perfbench times the impairer by wrapping this symbol.
  ImpairDecision next(std::uint64_t now_ns, std::span<std::uint8_t> packet);

 private:
  netsim::FaultStream stream_;
};

}  // namespace dip::mesh
