// Longest-prefix-match table interface.
//
// F_32_match, F_128_match and F_FIB all reduce to LPM over some key space.
// The tree bitmap is the one production engine (make_basic_env and the
// journal's from-scratch build construct it directly); the binary trie is
// the test oracle and DIR-24-8 the flat-table reference of ablation A3
// (bench_fib) and the scale sweep (bench_fib_scale). docs/FIB.md is the
// catalogue.
//
// Lookups come one at a time (lookup) or as a batch (lookup_batch). The
// burst pipeline resolves a wave group's lookups with one batch, so an
// engine whose walk is a chain of dependent cache misses can keep the
// whole batch's misses in flight at once (the tree bitmap does).
//
// The base class tracks a route-table *generation*: every mutation bumps it,
// and the router's flow cache stamps each memoized verdict with the
// generation it was computed under. A cached verdict whose stamp no longer
// matches is dead — route changes invalidate the cache without any flush.
// Engines implement do_insert/do_remove; the non-virtual insert/remove
// wrappers own the bump so no engine can forget it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "dip/fib/address.hpp"

namespace dip::fib {

template <std::size_t W>
class LpmTable {
 public:
  virtual ~LpmTable() = default;

  /// Insert or replace a route. Returns the previous next hop if replaced.
  std::optional<NextHop> insert(Prefix<W> prefix, NextHop nh) {
    generation_.fetch_add(1, std::memory_order_relaxed);
    return do_insert(prefix, nh);
  }

  /// Remove a route. Returns the removed next hop if present.
  std::optional<NextHop> remove(Prefix<W> prefix) {
    generation_.fetch_add(1, std::memory_order_relaxed);
    return do_remove(prefix);
  }

  /// Longest-prefix match.
  [[nodiscard]] virtual std::optional<NextHop> lookup(const Address<W>& addr) const = 0;

  /// Longest-prefix match of every address: out[i] is lookup(addrs[i]), or
  /// kNoRoute where that is nullopt. `out` holds at least addrs.size()
  /// slots; duplicates are fine. The default is a loop over lookup();
  /// engines override it when they can overlap the lookups' memory loads.
  virtual void lookup_batch(std::span<const Address<W>> addrs,
                            std::span<NextHop> out) const {
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      out[i] = lookup(addrs[i]).value_or(kNoRoute);
    }
  }

  /// Number of routes installed.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Resident bytes of the structure (nodes, slabs, shadow state — the
  /// number bench_fib_scale divides by size() for bytes/prefix). Pointer
  /// engines walk their nodes, so this is O(size); call it off the fast
  /// path (exposition, bench counters).
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Nodes (dependent loads) a lookup of `addr` touches — the
  /// memory-system cost model behind the dip_fib_lookup_depth series.
  [[nodiscard]] virtual std::size_t lookup_depth(const Address<W>& addr) const = 0;

  /// Deep copy, *inheriting the generation*. The control plane clones the
  /// live snapshot as the base for a delta build when it has no reusable
  /// standby; the applied deltas then bump the copy's generation past the
  /// original's, so flow-cache entries stamped under the old snapshot die
  /// when the new one is published.
  [[nodiscard]] virtual std::unique_ptr<LpmTable<W>> clone() const = 0;

  /// Mutation epoch; bumped by every insert/remove (relaxed — readers that
  /// share the table must only mutate it while the data path is quiesced).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }

 protected:
  LpmTable() = default;
  /// Copy adopts the source's generation (see clone()); the atomic member
  /// makes the implicit copy constructor unavailable, so engines' copy
  /// constructors delegate here.
  LpmTable(const LpmTable& other) : generation_(other.generation()) {}

  virtual std::optional<NextHop> do_insert(Prefix<W> prefix, NextHop nh) = 0;
  virtual std::optional<NextHop> do_remove(Prefix<W> prefix) = 0;

 private:
  std::atomic<std::uint64_t> generation_{0};
};

/// Engines behind the test and bench seam (make_lpm). Values are stable
/// (tests seed their random workloads from them).
enum class LpmEngine : std::uint8_t {
  kBinaryTrie = 0,  ///< one node per prefix bit — the oracle: simple, slow,
                    ///< memory-hungry
  kDir24 = 2,       ///< DIR-24-8 flat lookup (IPv4 only) — fastest lookup, but
                    ///< a fixed ~64 MiB slab per copy and O(block) updates;
                    ///< the journal's two copies of each table make it a poor
                    ///< fit for the churn path
  kTreeBitmap = 3,  ///< stride-4 bitmap-compressed trie — the production
                    ///< engine: lowest IPv4 bytes/prefix, near-Dir24 lookups
                    ///< at 1M routes, and memcpy-cheap clone() for the
                    ///< journal's clone fallback
};

/// Factory. kDir24 is only valid for W == 32.
template <std::size_t W>
[[nodiscard]] std::unique_ptr<LpmTable<W>> make_lpm(LpmEngine engine);

using Ipv4Lpm = LpmTable<32>;
using Ipv6Lpm = LpmTable<128>;

}  // namespace dip::fib
