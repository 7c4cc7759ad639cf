// The one hop-count SPF in the repo. Every route computation runs it:
// mesh::compute_next_hops (over the gossiped LSDB), ctrl::ControlPlane
// (over netsim link state) and AsGraph::shortest_path (over AS peerings).
//
// Next-hop rule: toward each destination, the smallest-id neighbour of the
// source that lies on some shortest path. The rule is a property of the
// graph alone — neighbour iteration order and parallel links do not change
// the answer — so every substrate installs the same routes for the same
// topology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace dip::bootstrap {

/// BFS from `source` over an undirected graph. `for_each_neighbor(u, visit)`
/// must call `visit(v)` for every neighbour v of u, in any order (repeats
/// are harmless); `usable(u, v)` filters edges and is asked only about a
/// neighbour the search has not reached yet. Returns, for every node
/// reachable from `source` (itself excluded), its first hop under the rule
/// above.
template <class ForEachNeighbor, class Usable>
[[nodiscard]] std::map<std::uint32_t, std::uint32_t> first_hops(
    std::uint32_t source, ForEachNeighbor&& for_each_neighbor, Usable&& usable) {
  std::map<std::uint32_t, std::uint32_t> first_hop;
  std::vector<std::uint32_t> layer_one;
  for_each_neighbor(source, [&](std::uint32_t v) {
    if (v != source && usable(source, v)) layer_one.push_back(v);
  });
  // Layer one in ascending id order keeps the whole queue sorted by first
  // hop, so the first parent to reach a node carries the smallest first hop
  // among that node's shortest paths.
  std::sort(layer_one.begin(), layer_one.end());
  std::deque<std::uint32_t> frontier;
  for (const std::uint32_t v : layer_one) {
    if (first_hop.emplace(v, v).second) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop_front();
    const std::uint32_t via = first_hop.find(u)->second;
    for_each_neighbor(u, [&](std::uint32_t v) {
      if (v == source || first_hop.contains(v) || !usable(u, v)) return;
      first_hop.emplace(v, via);
      frontier.push_back(v);
    });
  }
  return first_hop;
}

/// first_hops over every edge `for_each_neighbor` reports.
template <class ForEachNeighbor>
[[nodiscard]] std::map<std::uint32_t, std::uint32_t> first_hops(
    std::uint32_t source, ForEachNeighbor&& for_each_neighbor) {
  return first_hops(source, for_each_neighbor,
                    [](std::uint32_t, std::uint32_t) { return true; });
}

}  // namespace dip::bootstrap
