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

std::map<std::uint32_t, std::uint32_t> compute_next_hops(const LinkStateDb& lsdb,
                                                         std::uint32_t self) {
  if (!lsdb.contains(self)) return {};
  return bootstrap::first_hops(
      self,
      [&lsdb](std::uint32_t u, auto&& visit) {
        const auto it = lsdb.find(u);
        if (it == lsdb.end()) return;
        for (const std::uint32_t v : it->second.neighbors) visit(v);
      },
      // u advertises v; the edge counts only if v advertises u back.
      [&lsdb](std::uint32_t u, std::uint32_t v) {
        const auto back = lsdb.find(v);
        if (back == lsdb.end()) return false;
        const auto& nv = back->second.neighbors;
        return std::binary_search(nv.begin(), nv.end(), u);
      });
}

std::size_t publish_routes(MeshRouter& router, FaceId local_face) {
  const std::uint32_t self = router.node_id();
  const auto hops = compute_next_hops(router.lsdb(), self);

  ctrl::RouteJournal::Routes32 want{{prefix_of(self), local_face}};
  for (const auto& [origin, lsa] : router.lsdb()) {
    if (origin == self) continue;
    const auto hop = hops.find(origin);
    if (hop == hops.end()) continue;  // unreachable
    if (const auto face = router.face_toward(hop->second)) {
      want.emplace_back(prefix_of(origin), *face);
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
