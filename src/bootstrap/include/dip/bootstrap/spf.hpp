// The one hop-count SPF in the repo. Every route computation runs it:
// mesh::compute_next_hops (over the gossiped LSDB), ctrl::ControlPlane
// (over netsim link state) and AsGraph::shortest_path (over AS peerings).
// Each builds one SpfGraph per computation and runs first_hops over it.
//
// Next-hop rule: toward each destination, the smallest-id neighbour of the
// source that lies on some shortest path. The rule is a property of the
// graph alone — neighbour order and parallel links do not change the
// answer — so every substrate installs the same routes for the same
// topology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dip::bootstrap {

/// An undirected graph in compressed sparse rows over dense indices: node i
/// is ids()[i], and ids ascend, so the smallest id is the smallest index.
/// Rows are appended one per node, in index order: add_neighbor() for
/// each neighbour index of the open row, then end_row(). Rows list each
/// direction of an edge (u's row holds v and v's row holds u); their order
/// and repeats do not matter.
class SpfGraph {
 public:
  /// Not a node index: an unknown id, or an unreached node.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// `ids` ascending and without repeats.
  explicit SpfGraph(std::vector<std::uint32_t> ids) : ids_(std::move(ids)) {
    row_begin_.reserve(ids_.size() + 1);
    row_begin_.push_back(0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept { return ids_; }

  /// Index of node `id`, or kNone.
  [[nodiscard]] std::uint32_t index_of(std::uint32_t id) const noexcept {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return it != ids_.end() && *it == id ? static_cast<std::uint32_t>(it - ids_.begin())
                                         : kNone;
  }

  void add_neighbor(std::uint32_t index) { adj_.push_back(index); }
  void end_row() { row_begin_.push_back(static_cast<std::uint32_t>(adj_.size())); }

  /// Neighbour indices of node `index` (its row must be closed).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::uint32_t index) const {
    return std::span(adj_).subspan(row_begin_[index], row_begin_[index + 1] - row_begin_[index]);
  }

 private:
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> row_begin_;  ///< closed rows + 1 offsets into adj_
  std::vector<std::uint32_t> adj_;
};

/// BFS from node index `source` over a graph whose rows are all closed.
/// Entry v of the result is the index of v's first hop under the rule
/// above, or SpfGraph::kNone for the source and for unreachable nodes.
[[nodiscard]] inline std::vector<std::uint32_t> first_hops(const SpfGraph& graph,
                                                           std::uint32_t source) {
  constexpr std::uint32_t kNone = SpfGraph::kNone;
  std::vector<std::uint32_t> first_hop(graph.size(), kNone);
  std::vector<std::uint32_t> queue;
  queue.reserve(graph.size());
  for (const std::uint32_t v : graph.neighbors(source)) {
    if (v == source || first_hop[v] != kNone) continue;
    first_hop[v] = v;
    queue.push_back(v);
  }
  // Layer one in ascending index (= id) order keeps the whole queue sorted
  // by first hop, so the first parent to reach a node carries the smallest
  // first hop among that node's shortest paths.
  std::sort(queue.begin(), queue.end());
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    const std::uint32_t via = first_hop[u];
    for (const std::uint32_t v : graph.neighbors(u)) {
      if (v == source || first_hop[v] != kNone) continue;
      first_hop[v] = via;
      queue.push_back(v);
    }
  }
  return first_hop;
}

}  // namespace dip::bootstrap
