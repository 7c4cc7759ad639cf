// NDN forwarding on the switch model: F_FIB/F_PIT with register-array state.
//
// The paper runs NDN on a Tofino (§4.1) — which means PIT state must live
// in data-plane registers, with hardware-shaped compromises:
//
//  * the PIT is a direct-indexed register array (hash of the 32-bit name
//    code), one 32-bit cell per entry — a colliding name evicts/aliases;
//  * a cell stores ONE ingress face (+1, 0 = empty): concurrent interests
//    for the same name are suppressed without recording the extra face
//    (real P4 NDN prototypes make the same trade);
//  * data consumes the cell with a single read-and-clear stateful-ALU op.
//
// The software router (dip::ndn) is the faithful reference; this forwarder
// exists to show the §4.1 prototype is *expressible* under PISA constraints
// and to price it in cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dip/fib/address.hpp"
#include "dip/pisa/parser.hpp"
#include "dip/pisa/pipeline.hpp"
#include "dip/pisa/registers.hpp"

namespace dip::pisa {

class NdnSwitchForwarder {
 public:
  explicit NdnSwitchForwarder(std::size_t pit_cells = 4096);

  /// Install a name-code route (the F_FIB table).
  void add_name_route(const fib::Ipv4Prefix& code_prefix, fib::NextHop next_hop);

  enum class Status : std::uint8_t {
    kForwardInterest,  ///< interest: PIT recorded, egress set from FIB
    kSuppressed,       ///< interest: another interest is pending (PIT busy)
    kForwardData,      ///< data: PIT consumed, egress = recorded face
    kDropNoRoute,
    kDropPitMiss,
    kMalformed,
  };

  struct Outcome {
    Status status = Status::kMalformed;
    std::optional<fib::NextHop> egress;
    Cycles cycles = 0;
  };

  /// Process one NDN-over-DIP packet (16-byte header composition).
  [[nodiscard]] bytes::Result<Outcome> process(std::span<const std::uint8_t> packet,
                                               std::uint32_t ingress_face);

  [[nodiscard]] const RegisterArray& pit() const noexcept { return pit_; }

 private:
  Parser parser_;
  MatchTable fib_;
  RegisterArray pit_;
};

}  // namespace dip::pisa
