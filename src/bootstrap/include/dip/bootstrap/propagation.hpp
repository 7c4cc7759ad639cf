// AS-level FN capability propagation (§2.3).
//
// "One readily deployable mechanism to globally propagate supported FNs
// among ASes is relying on BGP communities."
//
// We model the AS graph and the community-style announcement: each AS
// originates its capability set; announcements flow along edges, and a host
// asking "which FNs work end-to-end to AS X" gets the intersection of the
// capabilities along the chosen path — exactly the information it needs to
// decide whether a path-critical composition (e.g. OPT) is usable (§2.4).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dip/bootstrap/capability.hpp"

namespace dip::bootstrap {

using AsNumber = std::uint32_t;

class AsGraph {
 public:
  /// Register an AS with its capability set. Replaces on repeat.
  void add_as(AsNumber asn, CapabilitySet capabilities);

  /// Undirected peering/provider edge.
  [[nodiscard]] bool add_link(AsNumber a, AsNumber b);

  [[nodiscard]] bool contains(AsNumber asn) const { return nodes_.contains(asn); }
  [[nodiscard]] std::size_t as_count() const noexcept { return nodes_.size(); }

  [[nodiscard]] const CapabilitySet* capabilities(AsNumber asn) const;

  /// Shortest AS path (hop count), or empty if unreachable. Ties follow
  /// the SPF rule (spf.hpp): each AS on the path forwards to its
  /// smallest-numbered neighbour on some shortest path to `to`.
  [[nodiscard]] std::vector<AsNumber> shortest_path(AsNumber from, AsNumber to) const;

  /// Capabilities usable along an explicit AS path: the intersection of
  /// every traversed AS's set. Empty-path -> nullopt.
  [[nodiscard]] std::optional<CapabilitySet> path_capabilities(
      std::span<const AsNumber> path) const;

  /// Convenience: end-to-end capabilities over the shortest path.
  [[nodiscard]] std::optional<CapabilitySet> end_to_end(AsNumber from, AsNumber to) const;

 private:
  struct Node {
    CapabilitySet capabilities;
    std::vector<AsNumber> neighbors;
  };
  std::unordered_map<AsNumber, Node> nodes_;
};

}  // namespace dip::bootstrap
