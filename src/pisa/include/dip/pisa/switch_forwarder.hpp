// A complete DIP-32 forwarding program on the PISA model: programmable
// parser + LPM match-action stage, end to end on real packet bytes.
//
// This is the "switch mode" counterpart of core::Router for the DIP-32
// composition — used by the differential tests (the two implementations
// must agree on every packet) and by benches that want cycle counts for
// actual packets rather than analytical estimates.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/fib/address.hpp"
#include "dip/pisa/parser.hpp"
#include "dip/pisa/pipeline.hpp"

namespace dip::pisa {

class SwitchForwarder {
 public:
  SwitchForwarder();

  /// Install a DIP-32 route (mirrors fib::Ipv4Lpm::insert).
  void add_route(const fib::Ipv4Prefix& prefix, fib::NextHop next_hop);

  struct Outcome {
    std::optional<fib::NextHop> egress;  ///< nullopt = dropped (no route)
    Cycles cycles = 0;
  };

  /// Parse + match + act on one DIP-32 packet.
  [[nodiscard]] bytes::Result<Outcome> forward(
      std::span<const std::uint8_t> packet) const;

  [[nodiscard]] std::size_t route_count() const noexcept { return routes_; }

 private:
  Parser parser_;
  Pipeline pipeline_;
  std::size_t routes_ = 0;
};

}  // namespace dip::pisa
