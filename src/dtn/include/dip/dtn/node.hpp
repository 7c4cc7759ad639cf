// CustodyRouterNode — a custody-capable DIP router in the simulator:
// netsim::DipRouterNode with the CustodyOverlay (overlay.hpp) installed on
// its runtime. Verdicts, cache answers and §2.4 notifications are the
// runtime's; commit, ACK, retry and store-full refusal are the overlay's,
// shared with the mesh's MeshCustodyFleet.
#pragma once

#include <memory>

#include "dip/dtn/overlay.hpp"
#include "dip/netsim/dip_node.hpp"

namespace dip::dtn {

class CustodyRouterNode final : public netsim::DipRouterNode {
 public:
  using Config = CustodyOverlay::Config;

  /// `env` should carry custody_key/accept_custody and the node's identity;
  /// the overlay installs its CustodyStore into env.custody_store.
  CustodyRouterNode(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry,
                    const Config& config = {});

  [[nodiscard]] const CustodyStore& store() const noexcept { return overlay_.store(); }
  [[nodiscard]] fib::Ipv4Addr address() const noexcept { return overlay_.address(); }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return overlay_.acks_sent(); }
  [[nodiscard]] std::uint64_t custody_drops() const noexcept {
    return overlay_.custody_drops();
  }

  /// DipRouterNode's series plus the overlay's `dip_dtn_*` store series,
  /// all node-labelled.
  void write_stats(telemetry::StatsWriter& w) const override;

 private:
  CustodyOverlay overlay_;
};

}  // namespace dip::dtn
