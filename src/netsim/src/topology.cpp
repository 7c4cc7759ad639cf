#include "dip/netsim/topology.hpp"

#include <algorithm>
#include <cmath>

namespace dip::netsim {

std::unique_ptr<LinearPath> make_linear_path(
    Network& net, std::size_t hops, std::shared_ptr<const core::OpRegistry> registry,
    const std::function<core::RouterEnv(std::size_t)>& make_env, LinkParams link) {
  auto path = std::make_unique<LinearPath>();
  net.add_node(path->source);
  for (std::size_t i = 0; i < hops; ++i) {
    path->routers.push_back(
        std::make_unique<DipRouterNode>(make_env(i), registry));
    net.add_node(*path->routers.back());
  }
  net.add_node(path->destination);

  path->upstream_face.resize(hops);
  path->downstream_face.resize(hops);

  if (hops == 0) {
    const auto [sf, df] = net.connect(path->source, path->destination, link);
    path->source_face = sf;
    path->destination_face = df;
    return path;
  }

  {
    const auto [sf, rf] = net.connect(path->source, *path->routers.front(), link);
    path->source_face = sf;
    path->upstream_face[0] = rf;
  }
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    const auto [down, up] = net.connect(*path->routers[i], *path->routers[i + 1], link);
    path->downstream_face[i] = down;
    path->upstream_face[i + 1] = up;
  }
  {
    const auto [down, dest] =
        net.connect(*path->routers.back(), path->destination, link);
    path->downstream_face[hops - 1] = down;
    path->destination_face = dest;
  }

  for (std::size_t i = 0; i < hops; ++i) {
    path->routers[i]->env().default_egress = path->downstream_face[i];
  }
  return path;
}

std::unique_ptr<Star> make_star(Network& net, std::size_t consumers,
                                std::shared_ptr<const core::OpRegistry> registry,
                                core::RouterEnv hub_env, LinkParams link) {
  auto star = std::make_unique<Star>();
  star->hub = std::make_unique<DipRouterNode>(std::move(hub_env), std::move(registry));
  net.add_node(*star->hub);
  net.add_node(star->producer);
  {
    const auto [pf, hf] = net.connect(star->producer, *star->hub, link);
    star->producer_face = pf;
    star->hub_producer_face = hf;
  }
  for (std::size_t i = 0; i < consumers; ++i) {
    star->consumers.push_back(std::make_unique<HostNode>());
    net.add_node(*star->consumers.back());
    const auto [cf, hf] = net.connect(*star->consumers.back(), *star->hub, link);
    star->consumer_face.push_back(cf);
    star->hub_consumer_face.push_back(hf);
  }
  return star;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent, std::uint64_t seed)
    : rng_(seed) {
  cdf_.reserve(n);
  double total = 0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

core::RouterEnv make_basic_env(std::uint32_t node_id) {
  core::RouterEnv env;
  env.node_id = node_id;
  env.fib32 = std::make_shared<fib::Ipv4Lpm>();
  env.fib128 = std::make_shared<fib::Ipv6Lpm>();
  env.xid_table = std::make_unique<fib::XidTable>();
  // Match verdicts are memoized per router; generation stamps keep cached
  // entries coherent with FIB updates, so this is on by default.
  env.flow_cache = std::make_unique<core::FlowCache>();
  // Per-node secret: deterministic but distinct per node.
  env.node_secret = crypto::Xoshiro256(0x5eC0DE + node_id).block();
  return env;
}

}  // namespace dip::netsim
