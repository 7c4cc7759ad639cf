// RetxScheduler — DPS-priced pacing for custody retransmissions.
//
// The DTN retry path is exactly where the dormant src/qos machinery earns
// its keep: a custodian that wakes up after a blackout should NOT blast its
// whole store into the link first-transmission traffic is using. The
// scheduler reuses the CSFQ edge primitives (qos::EdgeLabeler) to measure
// the node's first-transmission rate as one "flow", then paces
// retransmissions at a fixed *share* of that rate — custody drains at
// lower priority, exactly the DPS labeling discipline applied to the
// recovery band instead of a wire field. An idle link (primary rate decays
// to ~0) falls back to the max-interval floor, so recovery always makes
// progress and the 100%-recovery contract is a question of time, not
// starvation.
#pragma once

#include <cstdint>

#include "dip/bytes/time.hpp"
#include "dip/qos/dps.hpp"

namespace dip::dtn {

class RetxScheduler {
 public:
  /// Fraction of the observed first-transmission rate granted to the
  /// retransmission band.
  static constexpr double kShare = 0.25;
  /// Pacing clamp: a retransmission is never delayed by less/more than
  /// this, whatever the rates say.
  static constexpr SimDuration kMinGap = 1 * kMillisecond;
  static constexpr SimDuration kMaxGap = 50 * kMillisecond;

  /// Record a first-transmission of `bytes` (the high-priority band).
  void on_primary(std::size_t bytes, SimTime now) {
    primary_rate_ = labeler_.label(kPrimaryFlow, bytes, now);
  }

  /// Extra delay to impose before the next retransmission of `bytes` may
  /// leave: bytes / (kShare * primary_rate), clamped to [kMinGap, kMaxGap].
  /// Heavier foreground traffic → longer gaps → lower effective priority.
  [[nodiscard]] SimDuration gap_for(std::size_t bytes) const noexcept {
    const double budget = kShare * static_cast<double>(primary_rate_);  // bytes/sec
    if (budget <= 0) return kMaxGap;
    const double gap_ns = static_cast<double>(bytes) *
                          static_cast<double>(kSecond) / budget;
    if (gap_ns >= static_cast<double>(kMaxGap)) return kMaxGap;
    const auto gap = static_cast<SimDuration>(gap_ns);
    return gap < kMinGap ? kMinGap : gap;
  }

  [[nodiscard]] std::uint32_t primary_rate() const noexcept { return primary_rate_; }

 private:
  static constexpr std::uint32_t kPrimaryFlow = 1;

  qos::EdgeLabeler labeler_;  ///< default averaging constant
  std::uint32_t primary_rate_ = 0;
};

}  // namespace dip::dtn
