#include "dip/mesh/control.hpp"

#include <algorithm>
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
  // Index i is the i-th origin in id order; an edge enters the graph only
  // when both endpoints advertise it.
  std::vector<std::uint32_t> ids;
  std::vector<const Lsa*> lsas;
  ids.reserve(lsdb.size());
  lsas.reserve(lsdb.size());
  for (const auto& [origin, lsa] : lsdb) {
    ids.push_back(origin);
    lsas.push_back(&lsa);
  }
  bootstrap::SpfGraph graph(std::move(ids));
  const std::uint32_t source = graph.index_of(self);
  if (source == bootstrap::SpfGraph::kNone) return {};
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    const std::uint32_t u = graph.ids()[i];
    for (const std::uint32_t v : lsas[i]->neighbors) {
      const std::uint32_t j = graph.index_of(v);
      if (j == bootstrap::SpfGraph::kNone) continue;
      const auto& back = lsas[j]->neighbors;
      if (std::binary_search(back.begin(), back.end(), u)) graph.add_neighbor(j);
    }
    graph.end_row();
  }

  const std::vector<std::uint32_t> first_hop = bootstrap::first_hops(graph, source);
  std::vector<NextHop> hops;
  hops.reserve(graph.size());
  for (std::uint32_t i = 0; i < graph.size(); ++i) {
    if (first_hop[i] == bootstrap::SpfGraph::kNone) continue;
    hops.push_back({graph.ids()[i], graph.ids()[first_hop[i]]});
  }
  return hops;
}

std::size_t publish_routes(MeshRouter& router, FaceId local_face) {
  const std::uint32_t self = router.node_id();
  ctrl::RouteJournal::Routes32 want{{prefix_of(self), local_face}};
  for (const NextHop& hop : compute_next_hops(router.lsdb(), self)) {
    if (const auto face = router.face_toward(hop.via)) {
      want.emplace_back(prefix_of(hop.destination), *face);
    }
  }
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
