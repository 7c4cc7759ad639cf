// FaultPlan — deterministic per-link fault injection for the simulator.
//
// Disruption tolerance is a network-layer property (Neufeld's DIP work and
// every DTN paper since), so the simulator must be able to subject any
// topology to loss, duplication, corruption, reordering, and burst
// blackouts — and do it *reproducibly*: the whole schedule derives from a
// single uint64 seed, so a failing chaos run replays bit for bit.
//
// Determinism contract (FaultStream below, the one implementation behind
// both netsim::Network and the UDP mesh's LinkImpairer):
//   * each half-link owns a private PRNG seeded from
//     mix(fault_seed, link_ordinal) when the link is created; fault
//     decisions consume only that stream, in a fixed order per packet, so
//     one link's faults never perturb another's;
//   * blackouts are pure functions of simulated time (no PRNG), giving
//     schedulable outage windows;
//   * every injected fault is appended to the Network's fault trace —
//     two runs with the same seed, topology, and traffic produce equal
//     traces (chaos_test pins this).
//
// The schema, accounting rules, and drop-reason taxonomy are documented in
// docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "dip/bytes/time.hpp"
#include "dip/crypto/random.hpp"

namespace dip::netsim {

/// What a fault did to a packet (the fault-trace vocabulary).
enum class FaultKind : std::uint8_t {
  kDrop,       ///< random loss (FaultPlan::drop_rate)
  kDuplicate,  ///< a second copy was injected behind the original
  kCorrupt,    ///< 1..corrupt_max_bytes random bytes were flipped
  kReorder,    ///< held back by a random extra delay inside reorder_window
  kBlackout,   ///< transmitted inside a scheduled outage window
};

[[nodiscard]] std::string_view to_string(FaultKind k) noexcept;

/// Per-link fault schedule. Default-constructed plans are inactive and the
/// send path pays a single branch for them.
struct FaultPlan {
  /// Independent per-packet loss probability (drawn from the link PRNG;
  /// separate from LinkParams::loss_rate, which predates the fault layer
  /// and draws from the network-wide PRNG).
  double drop_rate = 0.0;
  /// Probability a packet is delivered twice (the copy rides back to back
  /// behind the original and skips the queue check it already passed).
  double duplicate_rate = 0.0;
  /// Probability the delivered bytes are corrupted.
  double corrupt_rate = 0.0;
  /// A corrupted packet gets 1..corrupt_max_bytes random byte flips.
  std::uint32_t corrupt_max_bytes = 4;
  /// Probability a packet is held back by an extra random delay.
  double reorder_rate = 0.0;
  /// Maximum extra delay for a reordered packet (uniform in [1, window]).
  SimDuration reorder_window = 50 * kMicrosecond;
  /// Burst blackout schedule: every `blackout_period` ns the link goes dark
  /// for `blackout_duration` ns ([k*period, k*period + duration) windows,
  /// simulated time). 0 for either disables blackouts.
  SimDuration blackout_period = 0;
  SimDuration blackout_duration = 0;

  [[nodiscard]] bool active() const noexcept {
    return drop_rate > 0 || duplicate_rate > 0 || corrupt_rate > 0 ||
           reorder_rate > 0 || (blackout_period > 0 && blackout_duration > 0);
  }

  [[nodiscard]] bool in_blackout(SimTime now) const noexcept {
    return blackout_period > 0 && blackout_duration > 0 &&
           now % blackout_period < blackout_duration;
  }
};

/// One injected fault, as recorded in the Network's fault trace.
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  std::uint32_t node = 0;              ///< transmitting node
  std::uint32_t face = 0;              ///< transmitting face
  std::uint64_t link_packet_index = 0; ///< nth packet sent on that half-link
  SimTime at = 0;                      ///< send time
  /// Kind-specific detail: flipped byte count (kCorrupt) or extra delay in
  /// ns (kReorder); 0 otherwise.
  std::uint64_t detail = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// What the fault stream decided for one packet. At most one of
/// `blackout`/`drop` is set (the packet then never reaches the peer); the
/// rest may combine.
struct FaultDecision {
  bool blackout = false;
  bool drop = false;
  bool duplicate = false;
  std::uint32_t corrupt_bytes = 0;   ///< flipped byte count (0 = untouched)
  std::uint64_t extra_delay_ns = 0;  ///< reorder hold-back (0 = send now)
};

/// One half-link's fault schedule: the plan plus its private PRNG stream.
/// Per packet the draws run blackout (a pure function of time, no draw) →
/// drop → duplicate → corrupt → reorder; a draw is skipped only when its
/// rate is zero, so adding a knob never reshuffles the draws before it.
class FaultStream {
 public:
  FaultStream() = default;
  /// `ordinal` is the half-link's creation index: mixed into `seed` so
  /// sibling links draw unrelated streams.
  FaultStream(const FaultPlan& plan, std::uint64_t seed, std::uint64_t ordinal) noexcept;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Packets decided so far (the next one's FaultEvent::link_packet_index).
  [[nodiscard]] std::uint64_t packet_index() const noexcept { return packets_; }

  /// Decide the fate of the next packet sent at `now`. Corruption flips
  /// bytes of `packet` in place (before the wire, like a bad line).
  FaultDecision next(SimTime now, std::span<std::uint8_t> packet);

 private:
  FaultPlan plan_{};
  crypto::Xoshiro256 rng_{0};
  std::uint64_t packets_ = 0;
};

/// Transport conservation ledger, shared by netsim::Network and the mesh.
/// Every transmitted packet (plus every injected duplicate) ends in exactly
/// one terminal bucket:
///   transmitted + duplicated == delivered + lost + blackholed + dropped
/// `corrupted` is informational: it counts *delivered* packets whose bytes
/// were mutated (a corrupted-then-dropped packet counts once, as dropped).
struct TransportLedger {
  std::uint64_t transmitted = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected by the fault plan
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;        ///< random loss (FaultPlan::drop_rate et al.)
  std::uint64_t blackholed = 0;  ///< sent into a blackout window or a dead link
  std::uint64_t dropped = 0;     ///< tail drop at a full transmit queue
  std::uint64_t corrupted = 0;   ///< informational: delivered with flipped bytes

  TransportLedger& operator+=(const TransportLedger& o) noexcept;
  /// transmitted + duplicated - delivered - lost - blackholed - dropped:
  /// zero once nothing is in flight.
  [[nodiscard]] std::int64_t imbalance() const noexcept;
};

}  // namespace dip::netsim
