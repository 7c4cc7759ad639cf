// PISA stage-budget compiler: map an FN composition onto the switch model.
//
// The software router accepts any FN composition; real PISA hardware does
// not. compile() answers "would this composition deploy?" by placing every
// router-side FN's micro-operations (dispatch gateways, match tables, ALU
// slots, crypto rounds) into stages under the per-stage budgets of the
// fixed switch model (tna_model.hpp), auto-splitting across recirculation
// passes when a pass runs out of stages, ladder slots, or parser states.
//
// Verdicts:
//   kFit     — single pass, no resubmission: deploys as-is.
//   kDegrade — deploys, but needs recirculation passes and/or packet
//              resubmission (the AES-MAC case of §4.1); the recirculation
//              cost is charged into the cycle estimate.
//   kUnfit   — violates a structural constraint (non-byte-aligned slice,
//              field outside the locations block, unknown operation key,
//              PHV/parser exhaustion, a single FN larger than one pass, or
//              more passes than the recirculation budget).
//
// Placement is greedy and strictly sequential across FNs (an FN ladder is a
// chain of dependent predicates), which makes it deterministic and
// prefix-stable: compiling a composition never changes how its prefix was
// placed. The property suite in tests/pisa_test.cpp leans on both.
//
// Demands are derived from core::fn_table() + fn_switch_profile(), the same
// dense module table the router binds against, so the software and hardware
// views of "what FNs exist and what they cost" cannot drift.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dip/core/fn.hpp"
#include "dip/pisa/dip_program.hpp"
#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

enum class FitVerdict : std::uint8_t {
  kFit = 0,
  kDegrade = 1,
  kUnfit = 2,
};

[[nodiscard]] std::string_view to_string(FitVerdict verdict) noexcept;

/// What one placed micro-operation is, for the report.
enum class StageUnit : std::uint8_t {
  kGateway,  ///< extra FN-dispatch predicate stage (4-byte condition split)
  kExact,    ///< exact-match table (SRAM)
  kLpm,      ///< LPM table (TCAM)
  kTernary,  ///< ternary table (TCAM)
  kCrypto,   ///< batch of permutation rounds
  kAction,   ///< ALU-only stage (no table)
};

[[nodiscard]] std::string_view to_string(StageUnit unit) noexcept;

/// One micro-operation committed to a stage.
struct PlacedUnit {
  std::size_t fn_index = 0;  ///< index into the compiled composition
  core::OpKey key = core::OpKey::kMatch32;
  StageUnit unit = StageUnit::kAction;
  std::uint32_t key_bits = 0;      ///< match key width (tables/gateways)
  std::uint64_t sram_bits = 0;
  std::uint64_t tcam_bits = 0;
  std::uint32_t alu_ops = 0;
  std::uint32_t crypto_rounds = 0;
};

/// Budget consumption of one stage within one pass.
struct StagePlan {
  std::vector<PlacedUnit> units;
  std::uint64_t sram_bits = 0;
  std::uint64_t tcam_bits = 0;
  std::size_t logical_tables = 0;
  std::size_t action_slots = 0;
  std::size_t crypto_slots = 0;
};

/// One pipeline pass (pass 0 is the initial traversal; the rest are
/// recirculations). `fns` is the sub-composition this pass executes —
/// host-tagged FNs ride along (they occupy a ladder slot but no stage).
struct PassPlan {
  std::vector<core::FnTriple> fns;
  std::vector<StagePlan> stages;
  std::size_t parser_states = 0;
};

struct PlacementReport {
  FitVerdict verdict = FitVerdict::kUnfit;
  std::string reason;
  std::vector<PassPlan> passes;
  std::size_t stages_used = 0;      ///< max stages over passes
  std::size_t parser_states = 0;    ///< max parser states over passes
  std::size_t phv_containers = 0;   ///< whole-composition PHV pressure
  std::uint64_t sram_bits = 0;      ///< total across all stages/passes
  std::uint64_t tcam_bits = 0;
  std::uint32_t resubmissions = 0;  ///< AES-style same-pass resubmits
  Cycles cycles = 0;                ///< incl. recirculation cost

  [[nodiscard]] bool fits() const noexcept { return verdict != FitVerdict::kUnfit; }
};

struct CompileOptions {
  bool aes_mac = false;  ///< F_MAC uses AES (10 rounds/block + resubmit)
};

/// Place `fns` (with a locations block of `locations_bytes`) onto the switch
/// model. Never throws; structural violations come back as kUnfit with a
/// reason string.
[[nodiscard]] PlacementReport compile(std::span<const core::FnTriple> fns,
                                      std::size_t locations_bytes,
                                      const CompileOptions& opts = {});

/// Render the deterministic text cost report ("pisa fit report v1") — this
/// exact text is what the tests/vectors/pisa_*.txt goldens pin.
[[nodiscard]] std::string format_report(std::string_view name,
                                        std::span<const core::FnTriple> fns,
                                        std::size_t locations_bytes,
                                        const PlacementReport& report);

}  // namespace dip::pisa
