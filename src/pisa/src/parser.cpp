#include "dip/pisa/parser.hpp"

namespace dip::pisa {

bytes::Result<ParseOutcome> Parser::parse(std::span<const std::uint8_t> packet) const {
  if (states_.empty()) return bytes::Err(bytes::Error::kState);

  ParseOutcome out;
  std::size_t cursor = 0;
  std::int16_t state_index = 0;

  while (true) {
    if (out.states_visited >= tna::kParserStates) {
      return bytes::Err(bytes::Error::kOverflow);  // parser loop guard
    }
    const ParserState& state = states_[static_cast<std::size_t>(state_index)];
    ++out.states_visited;
    out.cycles += tna::kParserStateCycles;

    for (const ExtractOp& op : state.extracts) {
      const std::size_t at = cursor + op.offset;
      if (op.width == 0 || op.width > 4 || at + op.width > packet.size()) {
        return bytes::Err(bytes::Error::kTruncated);
      }
      std::uint32_t v = 0;
      for (std::uint8_t i = 0; i < op.width; ++i) v = (v << 8) | packet[at + i];
      out.phv.set(op.dst, v);
    }

    if (cursor + state.advance > packet.size()) {
      return bytes::Err(bytes::Error::kTruncated);
    }
    cursor += state.advance;

    std::int16_t next = state.default_next;
    if (state.has_select) {
      const std::uint32_t key = out.phv.get(state.select);
      for (const Transition& t : state.transitions) {
        if (t.value == key) {
          next = t.next;
          break;
        }
      }
    }

    if (next == ParserState::kAccept) {
      out.consumed = cursor;
      return out;
    }
    if (next == ParserState::kReject ||
        static_cast<std::size_t>(next) >= states_.size()) {
      return bytes::Err(bytes::Error::kMalformed);
    }
    state_index = next;
  }
}

}  // namespace dip::pisa
