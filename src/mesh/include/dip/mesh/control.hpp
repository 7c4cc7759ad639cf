// Mesh control plane: LSDB → shortest-path routes → per-node RouteJournal.
//
// Each MeshRouter runs the PR-5 control machinery (ControlTables + a
// coalescing RouteJournal); this header is the glue that turns the gossiped
// link-state database into published FIB snapshots. Route computation is
// the shared hop-count SPF (bootstrap/spf.hpp: the smallest-id neighbour on
// some shortest path), and an edge only exists when *both* endpoints
// advertise it — an asymmetric view during link failure kills the edge
// mesh-wide as soon as either side's new LSA lands.
//
// Address plan: node n owns 10.(n>>8).(n&255).0/24 and answers at host .1,
// so a /24 route per node covers Internet-style longest-prefix matching
// without per-host routes.
#pragma once

#include <cstdint>
#include <vector>

#include "dip/bootstrap/propagation.hpp"
#include "dip/fib/address.hpp"
#include "dip/mesh/node.hpp"

namespace dip::mesh {

/// Host address of node `n` (10.x.y.1).
[[nodiscard]] fib::Ipv4Addr addr_of(std::uint32_t node) noexcept;

/// The /24 prefix node `n` originates (10.x.y.0/24).
[[nodiscard]] fib::Prefix<32> prefix_of(std::uint32_t node) noexcept;

/// Toward `destination`, forward to neighbour node `via`.
struct NextHop {
  std::uint32_t destination = 0;
  std::uint32_t via = 0;

  friend bool operator==(const NextHop&, const NextHop&) = default;
};

/// SPF next hops from `self` over the LSDB, one per reachable destination,
/// sorted by destination. Unreachable destinations (and `self`) are absent.
/// Builds one bootstrap::SpfGraph from the LSDB's origin index, keeping
/// only edges both endpoints advertise. Deterministic for a given set of
/// LSAs, whatever order they arrived in.
[[nodiscard]] std::vector<NextHop> compute_next_hops(const LinkStateDb& lsdb,
                                                     std::uint32_t self);

/// Recompute and publish `router`'s FIB from its own LSDB: every reachable
/// node's /24 toward the face of its next hop and the router's own /24
/// toward `local_face`, handed over in prefix order, and a route *removal*
/// for every node that had a route and is now unreachable (convergence
/// under link failure). The journal's assign_routes32 enqueues only routes that differ
/// from the previous call's, so an unchanged LSDB publishes nothing.
/// Flushes the journal (at most one RCU publish).
/// Returns the number of destinations now routed.
std::size_t publish_routes(MeshRouter& router, FaceId local_face);

/// The gossiped view as a bootstrap::AsGraph (node id = AS number), for
/// end-to-end capability queries over the discovered topology.
[[nodiscard]] bootstrap::AsGraph as_graph_of(const LinkStateDb& lsdb);

}  // namespace dip::mesh
