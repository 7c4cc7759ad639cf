#include "dip/bootstrap/propagation.hpp"

#include <algorithm>

#include "dip/bootstrap/spf.hpp"

namespace dip::bootstrap {

void AsGraph::add_as(AsNumber asn, CapabilitySet capabilities) {
  nodes_[asn].capabilities = std::move(capabilities);
}

bool AsGraph::add_link(AsNumber a, AsNumber b) {
  if (!nodes_.contains(a) || !nodes_.contains(b) || a == b) return false;
  auto& na = nodes_[a].neighbors;
  auto& nb = nodes_[b].neighbors;
  if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
  if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  return true;
}

const CapabilitySet* AsGraph::capabilities(AsNumber asn) const {
  const auto it = nodes_.find(asn);
  return it == nodes_.end() ? nullptr : &it->second.capabilities;
}

std::vector<AsNumber> AsGraph::shortest_path(AsNumber from, AsNumber to) const {
  if (!nodes_.contains(from) || !nodes_.contains(to)) return {};
  const auto neighbors = [this](AsNumber as, auto&& visit) {
    for (const AsNumber n : nodes_.at(as).neighbors) visit(n);
  };
  // Hop by hop, each AS forwards to its SPF first hop toward `to`.
  std::vector<AsNumber> path{from};
  for (AsNumber at = from; at != to;) {
    const auto hops = first_hops(at, neighbors);
    const auto next = hops.find(to);
    if (next == hops.end()) return {};
    at = next->second;
    path.push_back(at);
  }
  return path;
}

std::optional<CapabilitySet> AsGraph::path_capabilities(
    std::span<const AsNumber> path) const {
  if (path.empty()) return std::nullopt;
  std::optional<CapabilitySet> result;
  for (AsNumber asn : path) {
    const CapabilitySet* caps = capabilities(asn);
    if (caps == nullptr) return std::nullopt;
    result = result ? result->intersect(*caps) : *caps;
  }
  return result;
}

std::optional<CapabilitySet> AsGraph::end_to_end(AsNumber from, AsNumber to) const {
  const auto path = shortest_path(from, to);
  if (path.empty()) return std::nullopt;
  return path_capabilities(path);
}

}  // namespace dip::bootstrap
