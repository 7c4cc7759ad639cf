// Programmable parser: a state machine extracting header fields into the PHV.
//
// Each state extracts preset byte slices (no variable offsets — the §4.1
// Tofino restriction), optionally selects a container to branch on, advances
// the cursor, and transitions. Terminals are kAccept and kReject. A parse
// visits at most the switch model's tna::kParserStates states (the loop
// guard) and costs tna::kParserStateCycles per state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/pisa/phv.hpp"
#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

/// Extract `width` bytes (1..4, big-endian) at `offset` from the state's
/// cursor into container `dst`.
struct ExtractOp {
  std::uint16_t offset = 0;
  std::uint8_t width = 4;
  Container dst = 0;
};

struct Transition {
  std::uint32_t value;   ///< match on the selected container's value
  std::int16_t next;     ///< state index, or kAccept/kReject
};

struct ParserState {
  static constexpr std::int16_t kAccept = -1;
  static constexpr std::int16_t kReject = -2;

  std::vector<ExtractOp> extracts;
  std::uint16_t advance = 0;       ///< bytes consumed after extraction
  bool has_select = false;
  Container select = 0;            ///< container to branch on
  std::vector<Transition> transitions;
  std::int16_t default_next = kAccept;
};

struct ParseOutcome {
  Phv phv;
  std::size_t consumed = 0;  ///< header bytes consumed
  Cycles cycles = 0;
  std::size_t states_visited = 0;
};

class Parser {
 public:
  /// Append a state; returns its index.
  std::int16_t add_state(ParserState state) {
    states_.push_back(std::move(state));
    return static_cast<std::int16_t>(states_.size() - 1);
  }

  [[nodiscard]] std::size_t state_count() const noexcept { return states_.size(); }

  /// Run the machine from state 0 over `packet`.
  [[nodiscard]] bytes::Result<ParseOutcome> parse(
      std::span<const std::uint8_t> packet) const;

 private:
  std::vector<ParserState> states_;
};

}  // namespace dip::pisa
