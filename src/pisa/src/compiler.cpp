#include "dip/pisa/compiler.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

namespace dip::pisa {

using core::FnTriple;
using core::OpKey;

std::string_view to_string(FitVerdict verdict) noexcept {
  switch (verdict) {
    case FitVerdict::kFit: return "fit";
    case FitVerdict::kDegrade: return "degrade";
    case FitVerdict::kUnfit: return "unfit";
  }
  return "unfit";
}

std::string_view to_string(StageUnit unit) noexcept {
  switch (unit) {
    case StageUnit::kGateway: return "gateway";
    case StageUnit::kExact: return "exact";
    case StageUnit::kLpm: return "lpm";
    case StageUnit::kTernary: return "ternary";
    case StageUnit::kCrypto: return "crypto";
    case StageUnit::kAction: return "action";
  }
  return "action";
}

namespace {

/// One micro-operation demand before placement. `parallel_ok` marks demands
/// that may share a stage with this FN's previous demand (independent
/// lookups of one module); everything else chains into a later stage.
struct Demand {
  StageUnit unit = StageUnit::kAction;
  bool parallel_ok = false;
  std::uint32_t key_bits = 0;
  std::uint64_t sram_bits = 0;
  std::uint64_t tcam_bits = 0;
  std::uint32_t alu_ops = 0;
  std::uint32_t crypto_rounds = 0;
};

[[nodiscard]] bool is_table(StageUnit unit) noexcept {
  return unit == StageUnit::kGateway || unit == StageUnit::kExact ||
         unit == StageUnit::kLpm || unit == StageUnit::kTernary;
}

/// Match-key width for one lookup of this FN. 128-bit matching splits into
/// 64-bit halves (two chained LPM stages); everything else matches on a
/// 32-bit container slice of the field.
[[nodiscard]] std::uint32_t lookup_key_bits(const FnTriple& fn) noexcept {
  if (fn.key() == OpKey::kMatch128) return 64;
  return std::clamp<std::uint32_t>(fn.field_len, 8, 32);
}

/// Translate one router-side FN into its stage demands.
[[nodiscard]] std::vector<Demand> build_demands(const FnTriple& fn,
                                                const CompileOptions& opts) {
  const FnSwitchProfile p = fn_switch_profile(fn, opts.aes_mac);
  const bool has_work = p.exact_lookups + p.lpm_lookups + p.ternary_lookups +
                            p.alu_ops + p.crypto_rounds >
                        0;
  std::vector<Demand> demands;
  if (!has_work) return demands;  // carried, not acted upon (F_source)

  // FN dispatch predicates over the 6-byte triple: the parser/gateway may
  // look at tna::kConditionBytes per condition, so the triple costs
  // ceil(6 / limit) conditions. The first rides in the FN's first work
  // stage; each extra becomes its own gateway stage (§4.1, the "more than
  // 4 bytes on the same if statement" compromise).
  constexpr std::size_t kConditions =
      (FnTriple::kWireSize + tna::kConditionBytes - 1) / tna::kConditionBytes;
  for (std::size_t i = 1; i < kConditions; ++i) {
    Demand gw;
    gw.unit = StageUnit::kGateway;
    gw.key_bits = static_cast<std::uint32_t>(8 * tna::kConditionBytes);
    // One ladder row per unrollable FN slot.
    gw.sram_bits = static_cast<std::uint64_t>(gw.key_bits) * tna::kMaxUnrolledFns;
    demands.push_back(gw);
  }

  const std::uint32_t key_bits = lookup_key_bits(fn);
  const auto sram_table =
      static_cast<std::uint64_t>(key_bits) * tna::kSramEntriesPerTable;
  // TCAM stores value+mask per entry.
  const auto tcam_table = 2ull * key_bits * tna::kTcamEntriesPerTable;

  // kMatch128's two LPM lookups are chained halves of one key; all other
  // multi-lookup modules probe independent tables and may share a stage.
  const bool chained_lookups = fn.key() == OpKey::kMatch128;
  bool first_lookup = true;
  auto add_lookup = [&](StageUnit unit, std::uint64_t sram, std::uint64_t tcam) {
    Demand d;
    d.unit = unit;
    d.parallel_ok = !first_lookup && !chained_lookups;
    d.key_bits = key_bits;
    d.sram_bits = sram;
    d.tcam_bits = tcam;
    demands.push_back(d);
    first_lookup = false;
  };
  for (std::uint32_t i = 0; i < p.exact_lookups; ++i) add_lookup(StageUnit::kExact, sram_table, 0);
  for (std::uint32_t i = 0; i < p.lpm_lookups; ++i) add_lookup(StageUnit::kLpm, 0, tcam_table);
  for (std::uint32_t i = 0; i < p.ternary_lookups; ++i) add_lookup(StageUnit::kTernary, 0, tcam_table);

  // Crypto rounds batch into stages of tna::kCryptoSlotsPerStage rounds
  // each, strictly chained (each round permutes the previous state).
  std::uint32_t rounds_left = p.crypto_rounds;
  constexpr auto slot_cap = static_cast<std::uint32_t>(tna::kCryptoSlotsPerStage);
  while (rounds_left > 0) {
    Demand d;
    d.unit = StageUnit::kCrypto;
    d.crypto_rounds = std::min(rounds_left, slot_cap);
    rounds_left -= d.crypto_rounds;
    demands.push_back(d);
  }

  // ALU ops execute in the FN's last work stage, spilling forward into
  // action-only stages if they exceed the per-stage VLIW slots.
  std::uint32_t alu_left = p.alu_ops;
  constexpr auto alu_cap = static_cast<std::uint32_t>(tna::kActionSlotsPerStage);
  if (alu_left > 0 && !demands.empty() && !is_table(demands.back().unit)) {
    // crypto stage hosts the epilogue ALU ops (whitening XORs etc.)
    const std::uint32_t take = std::min(alu_left, alu_cap);
    demands.back().alu_ops += take;
    alu_left -= take;
  } else if (alu_left > 0 && !demands.empty() && is_table(demands.back().unit) &&
             demands.back().unit != StageUnit::kGateway) {
    const std::uint32_t take = std::min(alu_left, alu_cap);
    demands.back().alu_ops += take;
    alu_left -= take;
  }
  while (alu_left > 0) {
    Demand d;
    d.unit = StageUnit::kAction;
    d.alu_ops = std::min(alu_left, alu_cap);
    alu_left -= d.alu_ops;
    demands.push_back(d);
  }
  return demands;
}

[[nodiscard]] bool demand_fits(const StagePlan& stage, const Demand& d) {
  if (is_table(d.unit) && stage.logical_tables + 1 > tna::kTablesPerStage) return false;
  if (stage.sram_bits + d.sram_bits > tna::kSramBitsPerStage) return false;
  if (stage.tcam_bits + d.tcam_bits > tna::kTcamBitsPerStage) return false;
  if (stage.action_slots + d.alu_ops > tna::kActionSlotsPerStage) return false;
  if (stage.crypto_slots + d.crypto_rounds > tna::kCryptoSlotsPerStage) return false;
  return true;
}

void commit(StagePlan& stage, const Demand& d, std::size_t fn_index, OpKey key) {
  PlacedUnit unit;
  unit.fn_index = fn_index;
  unit.key = key;
  unit.unit = d.unit;
  unit.key_bits = d.key_bits;
  unit.sram_bits = d.sram_bits;
  unit.tcam_bits = d.tcam_bits;
  unit.alu_ops = d.alu_ops;
  unit.crypto_rounds = d.crypto_rounds;
  stage.units.push_back(unit);
  stage.sram_bits += d.sram_bits;
  stage.tcam_bits += d.tcam_bits;
  if (is_table(d.unit)) ++stage.logical_tables;
  stage.action_slots += d.alu_ops;
  stage.crypto_slots += d.crypto_rounds;
}

/// Place one FN's demands into `pass`, strictly after every stage already
/// used (FNs chain: the ladder decides FN i+1 from FN i's outcome). Returns
/// false (pass untouched) when the FN would run past the last stage.
[[nodiscard]] bool place_fn(PassPlan& pass, std::size_t fn_index, OpKey key,
                            const std::vector<Demand>& demands) {
  std::vector<StagePlan> stages = pass.stages;  // simulate, commit on success
  std::ptrdiff_t prev = static_cast<std::ptrdiff_t>(stages.size()) - 1;
  bool first = true;
  for (const Demand& d : demands) {
    std::size_t target;
    if (!first && d.parallel_ok && prev >= 0 &&
        demand_fits(stages[static_cast<std::size_t>(prev)], d)) {
      target = static_cast<std::size_t>(prev);
    } else {
      target = static_cast<std::size_t>(prev + 1);
      if (target >= tna::kStages) return false;
      if (target >= stages.size()) stages.emplace_back();
    }
    commit(stages[target], d, fn_index, key);
    prev = static_cast<std::ptrdiff_t>(target);
    first = false;
  }
  pass.stages = std::move(stages);
  return true;
}

[[nodiscard]] PlacementReport unfit(std::string reason) {
  PlacementReport r;
  r.verdict = FitVerdict::kUnfit;
  r.reason = std::move(reason);
  return r;
}

}  // namespace

PlacementReport compile(std::span<const FnTriple> fns, std::size_t locations_bytes,
                        const CompileOptions& opts) {
  const std::size_t loc_states = (locations_bytes + 3) / 4;

  // --- structural checks (kUnfit regardless of placement) ---------------
  if (locations_bytes > tna::kMaxLocationsBytes) {
    return unfit("locations block exceeds the preset-slice budget");
  }
  std::size_t crypto_fns = 0;
  for (const FnTriple& fn : fns) {
    if (!core::fn_info(fn.key())) {
      return unfit("unknown operation key (not in the module table)");
    }
    if (!fn.range().byte_aligned()) {
      return unfit("non-byte-aligned field slice (preset-slice rule)");
    }
    if (!bytes::fits(fn.range(), locations_bytes)) {
      return unfit("field outside the locations block");
    }
    if (!fn.host_tagged() && fn_switch_profile(fn, opts.aes_mac).crypto_rounds > 0) {
      ++crypto_fns;
    }
  }

  // Whole-composition PHV pressure: the 6 fixed metadata containers, two
  // per FN triple, one per 4 location bytes, plus two scratch containers
  // per crypto-using FN (chaining state). Containers persist across
  // recirculation passes, so this is global, not per pass.
  PlacementReport r;
  r.phv_containers = 6 + 2 * fns.size() + loc_states + 2 * crypto_fns;
  if (r.phv_containers > tna::kPhvContainers) {
    return unfit("PHV container pool exhausted");
  }

  // Parser floor: every pass re-parses the basic header, its FN ladder
  // slice, and the whole locations block. If even a one-FN pass exceeds
  // the parser budget, no amount of recirculation helps.
  const std::size_t min_fns_state = fns.empty() ? 0 : 1;
  if (1 + min_fns_state + loc_states > tna::kParserStates) {
    return unfit("parser state budget exceeded");
  }

  // --- greedy placement with recirculation auto-split -------------------
  r.passes.emplace_back();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const FnTriple& fn = fns[i];
    PassPlan* pass = &r.passes.back();

    auto pass_admits_fn = [&](const PassPlan& p) {
      if (p.fns.size() + 1 > tna::kMaxUnrolledFns) return false;  // ladder
      return 1 + (p.fns.size() + 1) + loc_states <= tna::kParserStates;
    };
    if (!pass_admits_fn(*pass)) {
      r.passes.emplace_back();
      pass = &r.passes.back();
    }

    if (fn.host_tagged()) {
      // Rides the ladder (a parse state + skip row) but uses no stages.
      pass->fns.push_back(fn);
      continue;
    }

    const std::vector<Demand> demands = build_demands(fn, opts);
    if (!place_fn(*pass, i, fn.key(), demands)) {
      // Out of stages: recirculate and restart this FN in a fresh pass.
      r.passes.emplace_back();
      pass = &r.passes.back();
      if (!place_fn(*pass, i, fn.key(), demands)) {
        return unfit("single FN exceeds one pipeline pass");
      }
    }
    pass->fns.push_back(fn);
  }
  if (r.passes.size() > tna::kMaxPasses) {
    return unfit("recirculation budget exceeded");
  }

  // --- account ----------------------------------------------------------
  std::uint32_t resubmissions = 0;
  Cycles cycles = 0;
  for (PassPlan& pass : r.passes) {
    pass.parser_states = 1 + pass.fns.size() + loc_states;
    r.parser_states = std::max(r.parser_states, pass.parser_states);
    r.stages_used = std::max(r.stages_used, pass.stages.size());
    for (const StagePlan& stage : pass.stages) {
      r.sram_bits += stage.sram_bits;
      r.tcam_bits += stage.tcam_bits;
    }
    const SwitchCostBreakdown pass_cost =
        estimate_protocol_cycles(pass.fns, locations_bytes, opts.aes_mac);
    cycles += pass_cost.total();
    resubmissions += pass_cost.resubmissions;
  }
  // Each recirculation pass is a full re-injection on top of its transit.
  cycles += (r.passes.size() - 1) * tna::kTransitCycles;
  r.resubmissions = resubmissions;
  r.cycles = cycles;

  if (r.passes.size() == 1 && resubmissions == 0) {
    r.verdict = FitVerdict::kFit;
    r.reason = "single pass";
  } else {
    r.verdict = FitVerdict::kDegrade;
    std::string reason;
    if (r.passes.size() > 1) {
      reason = std::to_string(r.passes.size() - 1) + " recirculation pass" +
               (r.passes.size() > 2 ? "es" : "");
    }
    if (resubmissions > 0) {
      if (!reason.empty()) reason += " + ";
      reason += std::to_string(resubmissions) + " resubmission" +
                (resubmissions > 1 ? "s" : "");
    }
    r.reason = std::move(reason);
  }
  return r;
}

std::string format_report(std::string_view name, std::span<const FnTriple> fns,
                          std::size_t locations_bytes, const PlacementReport& report) {
  std::ostringstream out;
  out << "# pisa fit report v1 (DIP_REGEN_VECTORS=1 ./pisa_test regenerates)\n";
  out << "composition: " << name << "\n";
  out << "model: stages=" << tna::kStages << " passes=" << tna::kMaxPasses
      << " sram/stage=" << tna::kSramBitsPerStage << "b"
      << " tcam/stage=" << tna::kTcamBitsPerStage << "b"
      << " tables/stage=" << tna::kTablesPerStage
      << " alu/stage=" << tna::kActionSlotsPerStage
      << " crypto/stage=" << tna::kCryptoSlotsPerStage
      << " phv=" << tna::kPhvContainers << " parser=" << tna::kParserStates
      << " cond=" << tna::kConditionBytes << "B"
      << " ladder=" << tna::kMaxUnrolledFns << "\n";
  out << "fns: " << fns.size() << " =";
  for (const FnTriple& fn : fns) {
    out << " " << core::op_key_name(fn.key()) << (fn.host_tagged() ? "*" : "");
  }
  out << "\n";
  out << "locations_bytes: " << locations_bytes << "\n";
  out << "verdict: " << to_string(report.verdict) << "\n";
  out << "reason: " << report.reason << "\n";
  if (!report.fits()) return std::move(out).str();

  out << "passes: " << report.passes.size() << "/" << tna::kMaxPasses << "\n";
  out << "stages_used: " << report.stages_used << "/" << tna::kStages << "\n";
  out << "parser_states: " << report.parser_states << "/" << tna::kParserStates << "\n";
  out << "phv_containers: " << report.phv_containers << "/" << tna::kPhvContainers
      << "\n";
  out << "sram_bits: " << report.sram_bits << "\n";
  out << "tcam_bits: " << report.tcam_bits << "\n";
  out << "resubmissions: " << report.resubmissions << "\n";
  out << "cycles: " << report.cycles << "\n";
  for (std::size_t p = 0; p < report.passes.size(); ++p) {
    const PassPlan& pass = report.passes[p];
    out << "pass " << (p + 1) << ": fns=" << pass.fns.size()
        << " stages=" << pass.stages.size() << " parser_states=" << pass.parser_states
        << "\n";
    for (std::size_t s = 0; s < pass.stages.size(); ++s) {
      const StagePlan& stage = pass.stages[s];
      for (const PlacedUnit& unit : stage.units) {
        out << "  stage " << (s + 1) << ": " << core::op_key_name(unit.key) << "#"
            << unit.fn_index << " " << to_string(unit.unit);
        if (unit.key_bits > 0) out << " key=" << unit.key_bits << "b";
        if (unit.sram_bits > 0) out << " sram=" << unit.sram_bits << "b";
        if (unit.tcam_bits > 0) out << " tcam=" << unit.tcam_bits << "b";
        if (unit.alu_ops > 0) out << " alu=" << unit.alu_ops;
        if (unit.crypto_rounds > 0) out << " rounds=" << unit.crypto_rounds;
        out << "\n";
      }
    }
  }
  return std::move(out).str();
}

}  // namespace dip::pisa
