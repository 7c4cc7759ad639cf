#include "dip/pisa/dip_program.hpp"

#include <algorithm>

namespace dip::pisa {

using core::FnTriple;
using core::OpKey;

FnSwitchProfile fn_switch_profile(const FnTriple& fn, bool aes_mac) noexcept {
  FnSwitchProfile p;
  const std::uint32_t field_bytes =
      static_cast<std::uint32_t>(fn.range().byte_length());

  switch (fn.key()) {
    case OpKey::kMatch32:
      p.lpm_lookups = 1;
      p.alu_ops = 1;  // set egress
      break;
    case OpKey::kMatch128:
      // 128-bit keys span four 32-bit containers: chained LPM lookups.
      p.lpm_lookups = 2;
      p.alu_ops = 1;
      break;
    case OpKey::kSource:
      break;  // carried, not acted upon
    case OpKey::kFib:
      p.lpm_lookups = 1;    // content-name LPM
      p.exact_lookups = 1;  // content-store probe (footnote 2, may be absent)
      p.alu_ops = 1;
      break;
    case OpKey::kPit:
      p.exact_lookups = 1;  // PIT is exact-match on the name code
      p.alu_ops = 2;        // consume entry + set egress set
      break;
    case OpKey::kParm:
      p.exact_lookups = 1;  // session table
      p.crypto_rounds = 1;  // one PRF call derives the dynamic key
      p.alu_ops = 1;
      break;
    case OpKey::kMac: {
      // CMAC blocks over the covered field.
      const std::uint32_t blocks = std::max(1u, (field_bytes + 15) / 16);
      if (aes_mac) {
        p.crypto_rounds = blocks * 10;  // 10 AES rounds per block
        p.resubmits = 1;                // "the AES needs to resubmit the packet"
      } else {
        p.crypto_rounds = blocks * 2;   // 2EM: two public permutations per block
      }
      p.alu_ops = 2;  // whitening XORs
      break;
    }
    case OpKey::kMark:
      p.alu_ops = 2;  // PVF chaining update
      break;
    case OpKey::kVer:
      break;  // host-tagged; the switch skips it
    case OpKey::kDag:
      p.ternary_lookups = 2;  // DAG node walk w/ fallback
      p.alu_ops = 2;
      break;
    case OpKey::kIntent:
      p.exact_lookups = 1;
      p.alu_ops = 1;
      break;
    case OpKey::kPass:
      p.exact_lookups = 1;
      p.crypto_rounds = 2;  // label verification MAC
      break;
    case OpKey::kTelemetry:
      p.alu_ops = 3;  // append metadata
      break;
    case OpKey::kCc:
      p.exact_lookups = 1;  // per-flow policy table
      p.crypto_rounds = 2;  // verify + re-stamp the MAC-protected CC tag
      p.alu_ops = 1;
      break;
    case OpKey::kDps:
      p.exact_lookups = 1;  // CSFQ bucket
      p.alu_ops = 3;        // stateful rate-estimator read-modify-write
      break;
    case OpKey::kHvf:
      p.exact_lookups = 1;  // per-hop session key
      p.crypto_rounds = 2;  // EPIC verify-and-update pair
      p.alu_ops = 2;
      break;
    case OpKey::kCustody:
      p.exact_lookups = 1;  // custody-store admission probe
      p.crypto_rounds = 2;  // verify + re-stamp the chain MAC (2EM pair)
      p.alu_ops = 2;        // flags/custodian rewrite
      break;
    case OpKey::kBundleFrag:
      p.alu_ops = 1;  // bounds-check index < total; reassembly is host-side
      break;
  }
  return p;
}

SwitchCostBreakdown estimate_protocol_cycles(std::span<const FnTriple> fns,
                                             std::size_t locations_bytes, bool aes_mac) {
  SwitchCostBreakdown out;
  out.transit = tna::kTransitCycles;

  // Parsing: one state for the basic header, one per FN triple (the
  // unrolled ladder), one per 4 location bytes (32-bit containers).
  const std::size_t parse_states = 1 + fns.size() + (locations_bytes + 3) / 4;
  out.parse = parse_states * tna::kParserStateCycles;

  // FN modules run in sequence: the ladder is a chain of dependent
  // predicates, so their costs add.
  for (const FnTriple& fn : fns) {
    if (fn.host_tagged()) continue;  // switch skips host operations
    const FnSwitchProfile p = fn_switch_profile(fn, aes_mac);
    out.match += p.exact_lookups * tna::kExactCycles + p.lpm_lookups * tna::kLpmCycles +
                 p.ternary_lookups * tna::kTernaryCycles + p.alu_ops * tna::kAluCycles;
    out.crypto += p.crypto_rounds * tna::kCryptoRoundCycles;
    out.resubmissions += p.resubmits;
  }

  // Each resubmission re-runs the pipeline transit.
  out.transit += out.resubmissions * tna::kTransitCycles;
  return out;
}

Parser build_dip_parser(std::size_t fn_count, std::size_t locations_bytes) {
  fn_count = std::min<std::size_t>(fn_count, 4);
  locations_bytes = std::min<std::size_t>(locations_bytes, 32);
  const std::size_t loc_states = (locations_bytes + 3) / 4;
  // State layout: 0 = basic header, 1..fn_count = FN triples, then location
  // states. first_loc is the index of the first location state.
  const auto first_loc = static_cast<std::int16_t>(1 + fn_count);
  const std::int16_t after_fns =
      loc_states == 0 ? ParserState::kAccept : first_loc;

  Parser parser;

  ParserState basic;
  basic.extracts = {
      {0, 1, phv_layout::kNextHeader},
      {1, 1, phv_layout::kFnNum},
      {2, 1, phv_layout::kHopLimit},
      {3, 2, phv_layout::kPacketParam},
  };
  basic.advance = 6;
  if (fn_count == 0) {
    basic.default_next = after_fns;
  } else {
    // Constraint 1: branch on FN_Num with a static ladder. Every value in
    // 1..fn_count enters the FN chain; 0 skips it; larger values are
    // rejected (the ladder is too short — exactly the Tofino behaviour).
    basic.has_select = true;
    basic.select = phv_layout::kFnNum;
    for (std::size_t n = 1; n <= fn_count; ++n) {
      basic.transitions.push_back({static_cast<std::uint32_t>(n), 1});
    }
    basic.transitions.push_back({0u, after_fns});
    basic.default_next = ParserState::kReject;
  }
  parser.add_state(std::move(basic));

  for (std::size_t i = 0; i < fn_count; ++i) {
    ParserState fn_state;
    const auto base = static_cast<Container>(phv_layout::kFnBase + 2 * i);
    fn_state.extracts = {
        {0, 4, base},                              // loc:16 | len:16
        {4, 2, static_cast<Container>(base + 1)},  // tag|key
    };
    fn_state.advance = 6;
    // The static ladder conservatively parses all fn_count triples.
    fn_state.default_next =
        (i + 1 < fn_count) ? static_cast<std::int16_t>(2 + i) : after_fns;
    parser.add_state(std::move(fn_state));
  }

  for (std::size_t i = 0; i < loc_states; ++i) {
    ParserState loc_state;
    const auto width =
        static_cast<std::uint8_t>(std::min<std::size_t>(4, locations_bytes - 4 * i));
    loc_state.extracts = {{0, width, static_cast<Container>(phv_layout::kLocBase + i)}};
    loc_state.advance = width;
    loc_state.default_next = (i + 1 < loc_states)
                                 ? static_cast<std::int16_t>(first_loc + 1 + i)
                                 : ParserState::kAccept;
    parser.add_state(std::move(loc_state));
  }
  return parser;
}

}  // namespace dip::pisa
