// The DIP switch program: per-FN switch profiles, the analytical cost, and
// the packet parser.
//
// §4.1 documents three compromises the paper made to fit DIP onto a real
// Tofino; the switch model (tna_model.hpp) states their budgets and the
// stage-budget compiler (compiler.hpp) checks them:
//
//  1. no loops        — FN dispatch is an if-else ladder bounded by
//                       tna::kMaxUnrolledFns;
//  2. preset slices   — field slices cannot use variables; target fields
//                       must be byte-aligned and drawn from preset widths;
//  3. pre-written ops — the operation-key -> module binding is static
//                       (fn_switch_profile is that static table).
//
// estimate_protocol_cycles() is the analytical counterpart of Figure 2: it
// prices a full FN program in the switch model's cycles.
#pragma once

#include <span>

#include "dip/core/fn.hpp"
#include "dip/pisa/parser.hpp"
#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

/// Per-FN switch execution profile (static, mirrors the pre-written modules).
struct FnSwitchProfile {
  std::uint32_t exact_lookups = 0;
  std::uint32_t lpm_lookups = 0;
  std::uint32_t ternary_lookups = 0;
  std::uint32_t alu_ops = 0;
  std::uint32_t crypto_rounds = 0;  ///< public-permutation invocations
  std::uint32_t resubmits = 0;      ///< extra full pipeline passes
};

/// The profile of one FN as deployed in the prototype. For F_MAC the profile
/// depends on the covered field length (CMAC blocks) and the MAC primitive:
/// 2EM = 2 rounds/block, no resubmit; AES = 10 rounds/block + 1 resubmit.
[[nodiscard]] FnSwitchProfile fn_switch_profile(const core::FnTriple& fn,
                                                bool aes_mac = false) noexcept;

struct SwitchCostBreakdown {
  Cycles parse = 0;
  Cycles match = 0;
  Cycles crypto = 0;
  Cycles transit = 0;
  std::uint32_t resubmissions = 0;

  [[nodiscard]] Cycles total() const noexcept { return parse + match + crypto + transit; }
};

/// Price a whole FN program: the router-side FN modules' costs add (the
/// switch runs them in sequence).
[[nodiscard]] SwitchCostBreakdown estimate_protocol_cycles(
    std::span<const core::FnTriple> fns, std::size_t locations_bytes,
    bool aes_mac = false);

/// Build a PISA parser that walks a real DIP packet: basic header, then one
/// state per FN triple (unrolled — constraint 1), then the locations block
/// into kLocBase containers. Supports up to 4 FNs and 32 location bytes.
[[nodiscard]] Parser build_dip_parser(std::size_t fn_count, std::size_t locations_bytes);

}  // namespace dip::pisa
