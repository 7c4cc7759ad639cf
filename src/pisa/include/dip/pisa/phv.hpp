// PHV — Packet Header Vector, the per-packet register file of a PISA switch.
//
// Parsed header fields live in fixed-width containers; match-action stages
// read and write containers, never raw packet bytes. Mirrors the §4.1
// constraint that "field slices are restricted to not using variables":
// every container is bound to a *preset* slice at parse time.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>

#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

/// Index of a 32-bit PHV container.
using Container = std::uint8_t;

/// The container pool is the switch model's (tna::kPhvContainers).
class Phv {
 public:
  [[nodiscard]] bool valid(Container c) const noexcept { return valid_[c]; }

  [[nodiscard]] std::uint32_t get(Container c) const noexcept { return regs_[c]; }

  void set(Container c, std::uint32_t v) noexcept {
    regs_[c] = v;
    valid_[c] = true;
  }

  void invalidate(Container c) noexcept { valid_[c] = false; }

  void clear() noexcept {
    valid_.reset();
    regs_.fill(0);
  }

  /// Number of valid containers (parser footprint metric).
  [[nodiscard]] std::size_t valid_count() const noexcept { return valid_.count(); }

 private:
  std::array<std::uint32_t, tna::kPhvContainers> regs_{};
  std::bitset<tna::kPhvContainers> valid_;
};

/// Well-known container assignments used by the DIP switch program.
namespace phv_layout {
inline constexpr Container kNextHeader = 0;
inline constexpr Container kFnNum = 1;
inline constexpr Container kHopLimit = 2;
inline constexpr Container kPacketParam = 3;
inline constexpr Container kEgressPort = 4;   ///< set by match stages
inline constexpr Container kDropFlag = 5;     ///< nonzero = discard
inline constexpr Container kFnBase = 8;       ///< FN i triple in 8+2i, 8+2i+1
inline constexpr Container kLocBase = 40;     ///< first locations containers
}  // namespace phv_layout

}  // namespace dip::pisa
