// Pipeline: ordered stages of parallel match-action tables.
//
// Within a stage, tables run concurrently (stage cost = max of its tables);
// stages run in sequence, at most the switch model's tna::kStages of them. A
// bounded resubmit count models the Tofino behaviour the paper leaned on:
// AES-style MACs need the packet re-injected, 2EM does not (§4.1). The
// bound is the switch model's: tna::kMaxPasses transits in all.
#pragma once

#include <cstdint>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/pisa/table.hpp"
#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

struct Stage {
  std::vector<MatchTable> tables;
};

struct PipelineRun {
  Cycles cycles = 0;
  std::uint32_t resubmissions = 0;
  bool dropped = false;
};

class Pipeline {
 public:
  /// Append a stage; fails (returns false) past the hardware stage budget.
  bool add_stage(Stage stage) {
    if (stages_.size() >= tna::kStages) return false;
    stages_.push_back(std::move(stage));
    return true;
  }

  [[nodiscard]] std::size_t stage_count() const noexcept { return stages_.size(); }

  /// Control-plane access to a stage (table entry installation at runtime —
  /// the switch analogue of FIB updates). nullptr if out of range.
  [[nodiscard]] Stage* mutable_stage(std::size_t index) noexcept {
    return index < stages_.size() ? &stages_[index] : nullptr;
  }

  /// One pass over all stages (no resubmission).
  [[nodiscard]] PipelineRun run(Phv& phv) const;

  /// Run with `resubmits` extra passes (models AES-style MAC execution).
  /// Fails with kOverflow unless 1 + `resubmits` fits tna::kMaxPasses.
  [[nodiscard]] bytes::Result<PipelineRun> run_with_resubmits(
      Phv& phv, std::uint32_t resubmits) const;

 private:
  std::vector<Stage> stages_;
};

}  // namespace dip::pisa
