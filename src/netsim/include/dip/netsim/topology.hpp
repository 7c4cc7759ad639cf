// Topology builders shared by tests, benches, and examples.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dip/netsim/dip_node.hpp"

namespace dip::netsim {

/// source -- r0 -- r1 -- ... -- r{n-1} -- destination
struct LinearPath {
  HostNode source;
  HostNode destination;
  std::vector<std::unique_ptr<DipRouterNode>> routers;

  FaceId source_face = 0;        ///< source's face toward r0
  FaceId destination_face = 0;   ///< destination's face toward r{n-1}
  /// routers[i]'s faces: upstream_face (toward source), downstream_face.
  std::vector<FaceId> upstream_face;
  std::vector<FaceId> downstream_face;
};

/// Build a linear DIP path with `hops` routers. `make_env(i)` produces each
/// router's environment; after wiring, every router's default_egress is set
/// to its downstream face (the paper's one-hop port-wired eval, generalized).
[[nodiscard]] std::unique_ptr<LinearPath> make_linear_path(
    Network& net, std::size_t hops, std::shared_ptr<const core::OpRegistry> registry,
    const std::function<core::RouterEnv(std::size_t)>& make_env,
    LinkParams link = {});

/// A RouterEnv with tree-bitmap FIBs, a PIT, and node id/secret derived from
/// `node_id` — the baseline environment most tests want.
[[nodiscard]] core::RouterEnv make_basic_env(std::uint32_t node_id);

/// consumers[0..n) -- hub -- producer.
///
/// The classic NDN caching topology: many consumers behind one router; the
/// hub's PIT aggregates concurrent interests and (with a content store) its
/// cache absorbs repeats.
struct Star {
  std::vector<std::unique_ptr<HostNode>> consumers;
  HostNode producer;
  std::unique_ptr<DipRouterNode> hub;

  std::vector<FaceId> consumer_face;       ///< consumer i's face toward hub
  std::vector<FaceId> hub_consumer_face;   ///< hub's face toward consumer i
  FaceId producer_face = 0;                ///< producer's face toward hub
  FaceId hub_producer_face = 0;            ///< hub's face toward producer
};

[[nodiscard]] std::unique_ptr<Star> make_star(
    Network& net, std::size_t consumers,
    std::shared_ptr<const core::OpRegistry> registry, core::RouterEnv hub_env,
    LinkParams link = {});

/// Zipf(s) sampler over {0..n-1}: the standard content-popularity model for
/// cache experiments (a small head of names gets most requests).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent, std::uint64_t seed);

  [[nodiscard]] std::size_t sample();

 private:
  std::vector<double> cdf_;
  crypto::Xoshiro256 rng_;
};

}  // namespace dip::netsim
