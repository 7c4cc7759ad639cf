// Stateful register arrays — PISA's stateful ALUs.
//
// Real Tofino pipelines keep per-stage register arrays that a stateful ALU
// reads-modifies-writes in one packet time; that is how switches implement
// counters, Bloom filters, and (approximately) NDN PIT state without a
// control-plane round trip. This models the primitive: an indexed array of
// 32-bit cells with the small set of one-shot RMW operations hardware
// offers, charged one ALU op each in the switch model (tna_model.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

enum class RegisterOp : std::uint8_t {
  kRead,        ///< result = cell
  kWrite,       ///< cell = operand; result = old cell
  kAdd,         ///< cell += operand; result = new cell
  kReadAndSet,  ///< result = cell; cell = operand   (test-and-set flavor)
  kClearOnMatch ///< if cell == operand { cell = 0; result = 1 } else result = 0
};

class RegisterArray {
 public:
  explicit RegisterArray(std::size_t cells) : cells_(cells, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  /// One packet-time RMW. Out-of-range indices wrap (hardware masks the
  /// index to the array size; we emulate with modulo).
  std::uint32_t execute(RegisterOp op, std::size_t index, std::uint32_t operand,
                        Cycles& cycles) {
    cycles += tna::kAluCycles;  // stateful ALU: one op per packet per array
    std::uint32_t& cell = cells_[index % cells_.size()];
    switch (op) {
      case RegisterOp::kRead:
        return cell;
      case RegisterOp::kWrite: {
        const std::uint32_t old = cell;
        cell = operand;
        return old;
      }
      case RegisterOp::kAdd:
        cell += operand;
        return cell;
      case RegisterOp::kReadAndSet: {
        const std::uint32_t old = cell;
        cell = operand;
        return old;
      }
      case RegisterOp::kClearOnMatch:
        if (cell == operand) {
          cell = 0;
          return 1;
        }
        return 0;
    }
    return 0;
  }

  /// Control-plane access (tests, resets).
  [[nodiscard]] std::uint32_t peek(std::size_t index) const {
    return cells_[index % cells_.size()];
  }
  void poke(std::size_t index, std::uint32_t value) {
    cells_[index % cells_.size()] = value;
  }
  void clear() { std::fill(cells_.begin(), cells_.end(), 0); }

 private:
  std::vector<std::uint32_t> cells_;
};

}  // namespace dip::pisa
