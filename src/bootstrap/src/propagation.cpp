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
  std::vector<AsNumber> ids;
  ids.reserve(nodes_.size());
  for (const auto& [asn, node] : nodes_) ids.push_back(asn);
  std::sort(ids.begin(), ids.end());
  SpfGraph graph(std::move(ids));
  for (const AsNumber asn : graph.ids()) {
    for (const AsNumber n : nodes_.at(asn).neighbors) graph.add_neighbor(graph.index_of(n));
    graph.end_row();
  }
  // Hop by hop, each AS forwards to its SPF first hop toward `to`.
  const std::uint32_t target = graph.index_of(to);
  std::vector<AsNumber> path{from};
  for (std::uint32_t at = graph.index_of(from); at != target;) {
    at = first_hops(graph, at)[target];
    if (at == SpfGraph::kNone) return {};
    path.push_back(graph.ids()[at]);
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
