#include "dip/pisa/pipeline.hpp"

#include <algorithm>

namespace dip::pisa {

PipelineRun Pipeline::run(Phv& phv) const {
  PipelineRun out;
  out.cycles = tna::kTransitCycles;

  for (const Stage& stage : stages_) {
    // Tables within a stage are concurrent: lookups cost the max, actions
    // execute sequentially on distinct containers (hardware guarantees
    // non-conflicting writes; we simply apply in order).
    Cycles stage_lookup = 0;
    Cycles stage_action = 0;
    for (const MatchTable& table : stage.tables) {
      stage_lookup = std::max(stage_lookup, table.lookup_cost());
      const Action action = table.lookup(phv);
      stage_action = std::max(stage_action, apply_action(action, phv));
    }
    out.cycles += stage_lookup + stage_action;
    if (phv.get(phv_layout::kDropFlag) != 0) {
      out.dropped = true;
      break;
    }
  }
  return out;
}

bytes::Result<PipelineRun> Pipeline::run_with_resubmits(Phv& phv,
                                                        std::uint32_t resubmits) const {
  if (resubmits >= tna::kMaxPasses) return bytes::Err(bytes::Error::kOverflow);

  PipelineRun total = run(phv);
  for (std::uint32_t i = 0; i < resubmits && !total.dropped; ++i) {
    const PipelineRun pass = run(phv);
    total.cycles += pass.cycles;
    total.dropped = pass.dropped;
    ++total.resubmissions;
  }
  return total;
}

}  // namespace dip::pisa
