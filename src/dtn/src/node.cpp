#include "dip/dtn/node.hpp"

namespace dip::dtn {

CustodyRouterNode::CustodyRouterNode(core::RouterEnv env,
                                     std::shared_ptr<const core::OpRegistry> registry,
                                     const Config& config)
    : DipRouterNode(std::move(env), std::move(registry)),
      overlay_(runtime(), config, [this](SimDuration delay, std::function<void()> fn) {
        network()->loop().schedule_in(delay, std::move(fn));
      }) {}

void CustodyRouterNode::write_stats(telemetry::StatsWriter& w) const {
  runtime().write_router_stats(w);
  overlay_.write_stats(w);
  runtime().write_drops(w, "dip_node_drops_total");
}

}  // namespace dip::dtn
