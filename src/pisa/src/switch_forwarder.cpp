#include "dip/pisa/switch_forwarder.hpp"

#include "dip/pisa/dip_program.hpp"

namespace dip::pisa {

namespace {
// The DIP-32 composition: 2 FNs, 8 location bytes (dst | src).
constexpr std::size_t kFnCount = 2;
constexpr std::size_t kLocBytes = 8;
// Sentinel for "no route": real hardware uses an invalid-port constant.
constexpr std::uint32_t kNoEgress = 0xffffffffu;
}  // namespace

SwitchForwarder::SwitchForwarder() : parser_(build_dip_parser(kFnCount, kLocBytes)) {
  // Stage 0: LPM on the destination container; default = mark no-route.
  Stage stage;
  MatchTable lpm(MatchKind::kLpm, phv_layout::kLocBase);
  lpm.set_default_action({ActionKind::kSetContainer, phv_layout::kEgressPort, 0,
                          kNoEgress});
  stage.tables.push_back(std::move(lpm));
  (void)pipeline_.add_stage(std::move(stage));

  // Stage 1: drop when no route was found (ternary on the egress port).
  Stage drop_stage;
  MatchTable droptab(MatchKind::kTernary, phv_layout::kEgressPort);
  droptab.add_entry({kNoEgress, 0xffffffffu, 1, {ActionKind::kDrop, 0, 0, 0}});
  drop_stage.tables.push_back(std::move(droptab));
  (void)pipeline_.add_stage(std::move(drop_stage));
}

void SwitchForwarder::add_route(const fib::Ipv4Prefix& prefix, fib::NextHop next_hop) {
  fib::Ipv4Prefix normalized = prefix;
  normalized.normalize();
  Stage* stage = pipeline_.mutable_stage(0);
  stage->tables[0].add_entry({fib::ipv4_to_u32(normalized.addr), normalized.length, 0,
                              {ActionKind::kSetContainer, phv_layout::kEgressPort, 0,
                               next_hop}});
  ++routes_;
}

bytes::Result<SwitchForwarder::Outcome> SwitchForwarder::forward(
    std::span<const std::uint8_t> packet) const {
  const auto parsed = parser_.parse(packet);
  if (!parsed) return bytes::Err(parsed.error());

  Phv phv = parsed->phv;
  const PipelineRun run = pipeline_.run(phv);

  Outcome out;
  out.cycles = parsed->cycles + run.cycles;
  if (!run.dropped && phv.get(phv_layout::kEgressPort) != kNoEgress) {
    out.egress = phv.get(phv_layout::kEgressPort);
  }
  return out;
}

}  // namespace dip::pisa
