// Stateful register arrays — PISA's stateful ALUs.
//
// Real Tofino pipelines keep per-stage register arrays that a stateful ALU
// reads-modifies-writes in one packet time; that is how switches implement
// counters, Bloom filters, and (approximately) NDN PIT state without a
// control-plane round trip. This models the one RMW the NDN switch uses:
// an indexed array of 32-bit cells whose stateful ALU swaps a cell for a
// new value, charged one ALU op in the switch model (tna_model.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

class RegisterArray {
 public:
  explicit RegisterArray(std::size_t cells) : cells_(cells, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  /// One packet-time RMW: cell = value, returning the old cell.
  /// Out-of-range indices wrap (hardware masks the index to the array
  /// size; we emulate with modulo).
  std::uint32_t exchange(std::size_t index, std::uint32_t value, Cycles& cycles) {
    cycles += tna::kAluCycles;  // stateful ALU: one op per packet per array
    std::uint32_t& cell = cells_[index % cells_.size()];
    const std::uint32_t old = cell;
    cell = value;
    return old;
  }

  /// Control-plane access (tests, resets).
  [[nodiscard]] std::uint32_t peek(std::size_t index) const {
    return cells_[index % cells_.size()];
  }
  void clear() { std::fill(cells_.begin(), cells_.end(), 0); }

 private:
  std::vector<std::uint32_t> cells_;
};

}  // namespace dip::pisa
