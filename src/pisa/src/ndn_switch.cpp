#include "dip/pisa/ndn_switch.hpp"

#include "dip/core/fn.hpp"
#include "dip/pisa/dip_program.hpp"

namespace dip::pisa {

namespace {
constexpr std::uint32_t kNoEgress = 0xffffffffu;

/// Cheap hardware-style hash (one multiply + shift) from name code to cell.
std::size_t pit_index(std::uint32_t name_code, std::size_t cells) {
  return (static_cast<std::uint64_t>(name_code) * 0x9e3779b1u >> 16) % cells;
}
}  // namespace

NdnSwitchForwarder::NdnSwitchForwarder(std::size_t pit_cells)
    : parser_(build_dip_parser(/*fn_count=*/1, /*locations_bytes=*/4)),
      fib_(MatchKind::kLpm, phv_layout::kLocBase),
      pit_(pit_cells) {
  fib_.set_default_action(
      {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, kNoEgress});
}

void NdnSwitchForwarder::add_name_route(const fib::Ipv4Prefix& code_prefix,
                                        fib::NextHop next_hop) {
  fib::Ipv4Prefix normalized = code_prefix;
  normalized.normalize();
  fib_.add_entry({fib::ipv4_to_u32(normalized.addr), normalized.length, 0,
                  {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, next_hop}});
}

bytes::Result<NdnSwitchForwarder::Outcome> NdnSwitchForwarder::process(
    std::span<const std::uint8_t> packet, std::uint32_t ingress_face) {
  const auto parsed = parser_.parse(packet);
  if (!parsed) return bytes::Err(parsed.error());

  Outcome out;
  out.cycles = parsed->cycles + tna::kTransitCycles;

  Phv phv = parsed->phv;
  const auto op = static_cast<std::uint16_t>(phv.get(phv_layout::kFnBase + 1));
  const auto key = static_cast<core::OpKey>(op & 0x7fff);
  const std::uint32_t name_code = phv.get(phv_layout::kLocBase);
  const std::size_t cell = pit_index(name_code, pit_.size());

  if (key == core::OpKey::kFib) {
    // Interest: record ingress in the PIT cell (test-and-set), then FIB LPM.
    const std::uint32_t old = pit_.exchange(cell, ingress_face + 1, out.cycles);
    if (old != 0) {
      // A request is already pending. The single-cell PIT cannot hold a
      // second face: suppress (and restore the original face we clobbered).
      pit_.exchange(cell, old, out.cycles);
      out.status = Status::kSuppressed;
      return out;
    }
    out.cycles += fib_.lookup_cost();
    const Action action = fib_.lookup(phv);
    out.cycles += apply_action(action, phv);
    if (phv.get(phv_layout::kEgressPort) == kNoEgress) {
      // No route: roll back the PIT cell so the name is not poisoned.
      pit_.exchange(cell, 0, out.cycles);
      out.status = Status::kDropNoRoute;
      return out;
    }
    out.status = Status::kForwardInterest;
    out.egress = phv.get(phv_layout::kEgressPort);
    return out;
  }

  if (key == core::OpKey::kPit) {
    // Data: read-and-clear the cell; the stored face is the egress.
    const std::uint32_t stored = pit_.exchange(cell, 0, out.cycles);
    if (stored == 0) {
      out.status = Status::kDropPitMiss;
      return out;
    }
    out.status = Status::kForwardData;
    out.egress = stored - 1;
    return out;
  }

  out.status = Status::kMalformed;
  return out;
}

}  // namespace dip::pisa
