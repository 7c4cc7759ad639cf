#include "dip/mesh/control.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "dip/bootstrap/spf.hpp"

namespace dip::mesh {

fib::Ipv4Addr addr_of(std::uint32_t node) noexcept {
  return fib::ipv4_from_u32((10u << 24) | ((node & 0xFFFFu) << 8) | 1u);
}

fib::Prefix<32> prefix_of(std::uint32_t node) noexcept {
  fib::Prefix<32> p{fib::ipv4_from_u32((10u << 24) | ((node & 0xFFFFu) << 8)), 24};
  p.normalize();
  return p;
}

namespace {

/// Both endpoints must advertise the edge (see header comment).
[[nodiscard]] bool symmetric_edge(const LinkStateDb& lsdb, std::uint32_t a,
                                  std::uint32_t b) {
  const auto ia = lsdb.find(a);
  const auto ib = lsdb.find(b);
  if (ia == lsdb.end() || ib == lsdb.end()) return false;
  const auto& na = ia->second.neighbors;
  const auto& nb = ib->second.neighbors;
  return std::binary_search(na.begin(), na.end(), b) &&
         std::binary_search(nb.begin(), nb.end(), a);
}

}  // namespace

std::vector<NextHop> compute_next_hops(const LinkStateDb& lsdb, std::uint32_t self) {
  // Node i is the i-th origin in id order: walk the origin index, not the
  // arrival-ordered entries. dense[o] is origin o's node index, so each
  // neighbour id costs one load; an edge enters the graph only when both
  // endpoints advertise it.
  constexpr std::uint32_t kNone = bootstrap::SpfGraph::kNone;
  const std::span<const std::uint32_t> slots = lsdb.slots();
  std::vector<std::uint32_t> dense(slots.size(), kNone);
  std::vector<std::uint32_t> ids;
  std::vector<const Lsa*> lsas;
  ids.reserve(lsdb.size());
  lsas.reserve(lsdb.size());
  for (std::uint32_t origin = 0; origin < slots.size(); ++origin) {
    if (slots[origin] == LinkStateDb::kNoSlot) continue;
    dense[origin] = static_cast<std::uint32_t>(ids.size());
    ids.push_back(origin);
    lsas.push_back(&lsdb.entry(slots[origin]).second);
  }
  if (self >= dense.size() || dense[self] == kNone) return {};
  const std::uint32_t source = dense[self];
  bootstrap::SpfGraph graph(std::move(ids));
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    const std::uint32_t u = graph.ids()[i];
    for (const std::uint32_t v : lsas[i]->neighbors) {
      const std::uint32_t j = v < dense.size() ? dense[v] : kNone;
      if (j == kNone) continue;
      const auto& back = lsas[j]->neighbors;
      if (std::binary_search(back.begin(), back.end(), u)) graph.add_neighbor(j);
    }
    graph.end_row();
  }

  const std::vector<std::uint32_t> first_hop = bootstrap::first_hops(graph, source);
  std::vector<NextHop> hops;
  hops.reserve(graph.size());
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    if (first_hop[i] == kNone) continue;
    hops.push_back({graph.ids()[i], graph.ids()[first_hop[i]]});
  }
  return hops;
}

std::size_t publish_routes(MeshRouter& router, FaceId local_face) {
  const std::uint32_t self = router.node_id();
  const std::vector<NextHop> hops = compute_next_hops(router.lsdb(), self);
  // prefix_of ascends with the node id and the hops ascend by destination,
  // so the set is built in prefix order, with the router's own /24 in its
  // place, and the journal need not sort it.
  ctrl::RouteJournal::Routes32 want;
  want.reserve(hops.size() + 1);
  bool self_added = false;
  for (const NextHop& hop : hops) {
    if (!self_added && hop.destination > self) {
      want.emplace_back(prefix_of(self), local_face);
      self_added = true;
    }
    if (const auto face = router.face_toward(hop.via)) {
      want.emplace_back(prefix_of(hop.destination), *face);
    }
  }
  if (!self_added) want.emplace_back(prefix_of(self), local_face);
  const std::size_t routed = want.size();
  // The journal enqueues only the difference from the last call: changed
  // next hops, new routes, and withdrawals of routes that became
  // unreachable.
  router.journal().assign_routes32(std::move(want));
  router.journal().flush();
  return routed;
}

bootstrap::AsGraph as_graph_of(const LinkStateDb& lsdb) {
  bootstrap::AsGraph graph;
  for (const auto& [origin, lsa] : lsdb) {
    graph.add_as(origin, lsa.capabilities);
  }
  for (const auto& [origin, lsa] : lsdb) {
    for (const std::uint32_t n : lsa.neighbors) {
      if (origin < n && symmetric_edge(lsdb, origin, n)) {
        (void)graph.add_link(origin, n);
      }
    }
  }
  return graph;
}

}  // namespace dip::mesh
