// Tree bitmap (Eatherton/Dixon/Varghese) compressed LPM — the one LPM table
// the program builds.
//
// F_32_match, F_128_match and F_FIB all reduce to longest-prefix match over
// some key space, and every FIB behind them is this type: Ipv4Lpm and
// Ipv6Lpm below name its two widths. Lookups, inserts and copies are direct
// calls. The binary-trie oracle and the DIR-24-8 flat-table reference that
// tests and benches compare it with live in tests/support/ (docs/FIB.md).
//
// Multibit trie with stride 4 where each node is 12 bytes: a 15-bit
// *internal* bitmap holding the prefixes that end inside the node (lengths
// 0..3 past the node's depth, heap-ordered), a 16-bit *external* bitmap
// marking which of the 16 child branches exist, and two arena offsets.
// Children of a node and its next hops are stored as contiguous runs in
// flat arenas and addressed by popcount rank, so there are no per-node
// pointers at all — the CRAM-lens representation trade: a little popcount
// arithmetic per level buys ~an order of magnitude less memory than the
// pointer tries at Internet scale, and a table that copies by vector copy.
//
// The table tracks a route-table *generation*: every insert/remove bumps it,
// and the router's flow cache stamps each memoized verdict with the
// generation it was computed under. A cached verdict whose stamp no longer
// matches is dead — route changes invalidate the cache without any flush.
//
// RouteJournal::flush() normally publishes by replaying a few deltas onto
// the table it retired one publish earlier, so its cost is the delta's.
// It copies the live snapshot only when there is no reusable standby (the
// first flush after seed(), or a reader still holds it); a copy here is
// then three memcpy-ish vector copies instead of a million node
// allocations (see docs/FIB.md and bench_fib_scale's churn leg).
//
// A lookup is a walk of up to W/4 + 1 nodes, each load depending on the
// last. lookup() and lookup_batch() share one node step: a branch-free
// longest match inside the node (the four heap slots on the address's path,
// then the highest one set) and the child for the next stride. The walk
// remembers only the index of the best result and reads results_ once, at
// the end. lookup_batch() interleaves the walks of up to kBatchChunk
// addresses: each round moves every unfinished walk down one level and
// prefetches the node it reads next, so the batch's cache misses overlap
// instead of queueing one walk behind another. The burst pipeline resolves
// a wave group's lookups with one batch.
//
// Updates rewrite one child run and one result run per affected node
// (allocate run of n±1, copy, recycle the old run through a per-size free
// list). That keeps the arenas compact across flap-heavy workloads without a
// compaction pass.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/fib/address.hpp"

namespace dip::fib {

template <std::size_t W>
class TreeBitmap {
  static_assert(W % 4 == 0, "tree bitmap uses a fixed stride of 4 bits");

 public:
  static constexpr std::size_t kStride = 4;
  static constexpr std::size_t kLevels = W / kStride;  // child levels below root

  TreeBitmap() {
    nodes_.emplace_back();
    results_.push_back(kNoRoute);
  }
  /// Deep copy by arena copy, *adopting the generation*. The journal copies
  /// the live snapshot when it has no reusable standby; the deltas it then
  /// applies bump the copy's generation past the original's, so flow-cache
  /// entries stamped under the old snapshot die when the new one is
  /// published.
  TreeBitmap(const TreeBitmap& other)
      : nodes_(other.nodes_),
        results_(other.results_),
        free_node_runs_(other.free_node_runs_),
        free_result_runs_(other.free_result_runs_),
        size_(other.size_),
        generation_(other.generation()) {}

  /// Insert or replace a route. Returns the previous next hop if replaced.
  std::optional<NextHop> insert(Prefix<W> prefix, NextHop nh) {
    generation_.fetch_add(1, std::memory_order_relaxed);
    prefix.normalize();
    const std::size_t levels = prefix.length / kStride;
    std::uint32_t cur = 0;
    for (std::size_t k = 0; k < levels; ++k) {
      cur = child_or_create(cur, stride_at(prefix.addr, k));
    }
    const std::uint32_t bit = 1u << internal_index(prefix, levels);
    if (nodes_[cur].internal & bit) {
      NextHop& slot =
          results_[nodes_[cur].result_base + rank16_bit(nodes_[cur].internal, bit)];
      const NextHop old = slot;
      slot = nh;
      return old;
    }
    grow_results(cur, rank16_bit(nodes_[cur].internal, bit), nh);
    nodes_[cur].internal = static_cast<std::uint16_t>(nodes_[cur].internal | bit);
    ++size_;
    return std::nullopt;
  }

  /// Remove a route. Returns the removed next hop if present.
  std::optional<NextHop> remove(Prefix<W> prefix) {
    generation_.fetch_add(1, std::memory_order_relaxed);
    prefix.normalize();
    const std::size_t levels = prefix.length / kStride;
    std::array<std::uint32_t, kLevels + 1> path;
    std::array<std::uint32_t, kLevels> branch;
    path[0] = 0;
    for (std::size_t k = 0; k < levels; ++k) {
      const Node& n = nodes_[path[k]];
      const std::uint32_t v = stride_at(prefix.addr, k);
      if ((n.external & (1u << v)) == 0) return std::nullopt;
      branch[k] = v;
      path[k + 1] = n.child_base + rank16(n.external, v);
    }
    const std::uint32_t tail = path[levels];
    const std::uint32_t bit = 1u << internal_index(prefix, levels);
    if ((nodes_[tail].internal & bit) == 0) return std::nullopt;
    const NextHop old =
        results_[nodes_[tail].result_base + rank16_bit(nodes_[tail].internal, bit)];
    shrink_results(tail, rank16_bit(nodes_[tail].internal, bit));
    nodes_[tail].internal = static_cast<std::uint16_t>(nodes_[tail].internal & ~bit);
    --size_;
    // Prune the now-empty tail of the path (a pruned node owns no runs:
    // its last result run was freed above, child runs when children left).
    for (std::size_t k = levels; k > 0; --k) {
      const Node& n = nodes_[path[k]];
      if (n.internal != 0 || n.external != 0) break;
      remove_child(path[k - 1], branch[k - 1]);
    }
    return old;
  }

  /// Longest-prefix match.
  [[nodiscard]] std::optional<NextHop> lookup(const Address<W>& addr) const {
    std::uint32_t best = kNoResult;
    std::uint32_t cur = 0;
    std::size_t k = 0;
    do {
      cur = step(nodes_[cur], walk_stride(addr, k++), best);
    } while (cur != 0);
    if (best == kNoResult) return std::nullopt;
    return results_[best];
  }

  /// Longest-prefix match of every address: out[i] is lookup(addrs[i]), or
  /// kNoRoute where that is nullopt. `out` holds at least addrs.size()
  /// slots; duplicates are fine.
  void lookup_batch(std::span<const Address<W>> addrs, std::span<NextHop> out) const {
    for (std::size_t base = 0; base < addrs.size(); base += kBatchChunk) {
      const std::size_t m = std::min(kBatchChunk, addrs.size() - base);
      const Address<W>* chunk = addrs.data() + base;
      // Every walk starts at the root (node 0) with kNoResult (also 0).
      std::array<std::uint32_t, kBatchChunk> cur{};   // node each walk reads next
      std::array<std::uint32_t, kBatchChunk> best{};  // results_ index so far
      std::array<std::uint8_t, kBatchChunk> live{};   // unfinished walks
      for (std::size_t i = 0; i < m; ++i) live[i] = static_cast<std::uint8_t>(i);
      std::size_t live_n = m;
      for (std::size_t k = 0; live_n != 0; ++k) {
        std::size_t kept = 0;
        for (std::size_t j = 0; j < live_n; ++j) {
          const std::size_t i = live[j];
          const std::uint32_t next = step(nodes_[cur[i]], walk_stride(chunk[i], k), best[i]);
          if (next != 0) {
            prefetch_line(&nodes_[next]);
            cur[i] = next;
            live[kept++] = static_cast<std::uint8_t>(i);
          }
        }
        live_n = kept;
      }
      for (std::size_t i = 0; i < m; ++i) out[base + i] = results_[best[i]];
    }
  }

  /// Number of routes installed.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Resident bytes of the structure (arenas and free lists — the number
  /// bench_fib_scale divides by size() for bytes/prefix).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t free_lists = 0;
    for (const auto& fl : free_node_runs_) free_lists += fl.capacity() * sizeof(std::uint32_t);
    for (const auto& fl : free_result_runs_) free_lists += fl.capacity() * sizeof(std::uint32_t);
    return sizeof(*this) + nodes_.capacity() * sizeof(Node) +
           results_.capacity() * sizeof(NextHop) + free_lists;
  }

  /// Nodes (dependent loads) a lookup of `addr` touches — the
  /// memory-system cost model behind the dip_fib_lookup_depth series.
  [[nodiscard]] std::size_t lookup_depth(const Address<W>& addr) const {
    std::uint32_t best = kNoResult;
    std::uint32_t cur = 0;
    std::size_t depth = 0;
    do {
      cur = step(nodes_[cur], walk_stride(addr, depth++), best);
    } while (cur != 0);
    return depth;
  }

  /// Mutation epoch; bumped by every insert/remove (relaxed — readers that
  /// share the table must only mutate it while the data path is quiesced).
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    std::uint16_t internal = 0;   // heap-ordered intra-node prefixes, 15 bits
    std::uint16_t external = 0;   // child present per 4-bit branch value
    std::uint32_t child_base = 0;   // arena run of popcount(external) nodes
    std::uint32_t result_base = 0;  // arena run of popcount(internal) next hops
  };

  /// Walks interleaved per lookup_batch chunk (bounds its stack state).
  static constexpr std::size_t kBatchChunk = 32;
  /// results_[0] is reserved and holds kNoRoute: a walk's best result
  /// index starts there, so reading it back needs no branch.
  static constexpr std::uint32_t kNoResult = 0;

  /// Stride k of an address: bits [4k, 4k+4) as a value, MSB-first.
  static constexpr std::uint32_t stride_at(const Address<W>& a, std::size_t k) noexcept {
    return (a.bytes[k >> 1] >> ((k & 1) ? 0 : 4)) & 0xFu;
  }

  /// The stride a walk's k-th node is matched against: stride_at, or 0 at
  /// the bottom level (k == kLevels), whose nodes hold only full-length
  /// prefixes (heap slot 0) and never have children.
  static constexpr std::uint32_t walk_stride(const Address<W>& a, std::size_t k) noexcept {
    return k < kLevels ? stride_at(a, k) : 0u;
  }

  /// One level of every walk. Folds the longest prefix stored in `n` that
  /// covers stride value `v` into `best` (a results_ index), and returns
  /// the child to visit next, or 0 (the root, which is nobody's child)
  /// when the walk ends at `n`.
  static std::uint32_t step(const Node& n, std::uint32_t v, std::uint32_t& best) noexcept {
    // The /0../3 prefixes on v's path sit in heap slots 0, 1 + (v >> 3),
    // 3 + (v >> 2) and 7 + (v >> 1); a longer prefix has a higher slot.
    const std::uint32_t on_path = 1u | 2u << (v >> 3) | 8u << (v >> 2) | 128u << (v >> 1);
    const std::uint32_t hit = n.internal & on_path;
    // `hit | 1` keeps the rank's shift defined when nothing hit.
    const auto slot = static_cast<std::uint32_t>(std::bit_width(hit | 1u)) - 1u;
    const std::uint32_t at = n.result_base + rank16(n.internal, slot);
    best = hit != 0 ? at : best;
    const std::uint32_t bit = 1u << v;
    return (n.external & bit) != 0 ? n.child_base + rank16_bit(n.external, bit) : 0u;
  }

  static void prefetch_line(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
  }

  /// Set bits of a 16-bit bitmap, in plain ALU steps: the program is
  /// built for baseline x86-64, where std::popcount is a library call,
  /// and a rank sits on every level of the walk.
  static constexpr std::uint32_t popcount16(std::uint32_t x) noexcept {
    x = x - ((x >> 1) & 0x5555u);
    x = (x & 0x3333u) + ((x >> 2) & 0x3333u);
    x = (x + (x >> 4)) & 0x0F0Fu;
    return (x + (x >> 8)) & 0x1Fu;
  }

  /// Rank of `bit_or_index` inside a bitmap: entries below it that are set.
  /// Overload on the raw bit for external (value v) vs heap index i use.
  static constexpr std::uint32_t rank16(std::uint32_t bitmap, std::uint32_t index) noexcept {
    return popcount16(bitmap & ((1u << index) - 1u));
  }

  /// Heap slot of the prefix inside its node: lengths 0..3 map to the
  /// classic 15-slot complete binary heap, (1<<len)-1 + value.
  static std::uint32_t internal_index(const Prefix<W>& prefix, std::size_t levels) noexcept {
    const std::size_t rem = prefix.length % kStride;
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < rem; ++b) {
      value = (value << 1) | static_cast<std::uint32_t>(prefix.addr.bit(levels * kStride + b));
    }
    return (1u << rem) - 1u + value;
  }

  // rank16 above takes a heap/branch *index*; insert paths often have the
  // bit instead — rank relative to a bit is rank of its index.
  static constexpr std::uint32_t rank16_bit(std::uint32_t bitmap, std::uint32_t bit) noexcept {
    return popcount16(bitmap & (bit - 1u));
  }

  // -- arena run management ------------------------------------------------
  // Runs are recycled by exact size; no splitting or coalescing. Sizes are
  // bounded (<=16 nodes, <=15 results) so fragmentation is bounded too.

  std::uint32_t alloc_nodes(std::uint32_t count) {
    auto& fl = free_node_runs_[count];
    if (!fl.empty()) {
      const std::uint32_t base = fl.back();
      fl.pop_back();
      return base;
    }
    const auto base = static_cast<std::uint32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + count);
    return base;
  }

  void free_nodes(std::uint32_t base, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) nodes_[base + i] = Node{};
    free_node_runs_[count].push_back(base);
  }

  std::uint32_t alloc_results(std::uint32_t count) {
    auto& fl = free_result_runs_[count];
    if (!fl.empty()) {
      const std::uint32_t base = fl.back();
      fl.pop_back();
      return base;
    }
    const auto base = static_cast<std::uint32_t>(results_.size());
    results_.resize(results_.size() + count);
    return base;
  }

  void free_results(std::uint32_t base, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) results_[base + i] = kNoRoute;
    free_result_runs_[count].push_back(base);
  }

  /// Child of nodes_[pi] for branch v, creating it (and rewriting the
  /// parent's child run) if absent. All access is index-based: alloc_nodes
  /// may grow the arena and invalidate references.
  std::uint32_t child_or_create(std::uint32_t pi, std::uint32_t v) {
    const std::uint32_t bit = 1u << v;
    const std::uint32_t ebm = nodes_[pi].external;
    const std::uint32_t rank = rank16_bit(ebm, bit);
    if (ebm & bit) return nodes_[pi].child_base + rank;
    const std::uint32_t count = popcount16(ebm);
    const std::uint32_t nb = alloc_nodes(count + 1);
    const std::uint32_t ob = nodes_[pi].child_base;
    for (std::uint32_t i = 0; i < rank; ++i) nodes_[nb + i] = nodes_[ob + i];
    nodes_[nb + rank] = Node{};
    for (std::uint32_t i = rank; i < count; ++i) nodes_[nb + i + 1] = nodes_[ob + i];
    if (count != 0) free_nodes(ob, count);
    nodes_[pi].external = static_cast<std::uint16_t>(ebm | bit);
    nodes_[pi].child_base = nb;
    return nb + rank;
  }

  void remove_child(std::uint32_t pi, std::uint32_t v) {
    const std::uint32_t bit = 1u << v;
    const std::uint32_t ebm = nodes_[pi].external;
    const std::uint32_t count = popcount16(ebm);
    const std::uint32_t rank = rank16_bit(ebm, bit);
    const std::uint32_t ob = nodes_[pi].child_base;
    std::uint32_t nb = 0;
    if (count > 1) {
      nb = alloc_nodes(count - 1);
      for (std::uint32_t i = 0, j = 0; i < count; ++i) {
        if (i == rank) continue;
        nodes_[nb + j++] = nodes_[ob + i];
      }
    }
    free_nodes(ob, count);
    nodes_[pi].external = static_cast<std::uint16_t>(ebm & ~bit);
    nodes_[pi].child_base = nb;
  }

  /// Insert `nh` at `rank` into nodes_[ni]'s result run (run grows by one).
  /// Called *before* the internal bit is set, so popcount is the old count.
  void grow_results(std::uint32_t ni, std::uint32_t rank, NextHop nh) {
    const std::uint32_t count = popcount16(nodes_[ni].internal);
    const std::uint32_t nb = alloc_results(count + 1);
    const std::uint32_t ob = nodes_[ni].result_base;
    for (std::uint32_t i = 0; i < rank; ++i) results_[nb + i] = results_[ob + i];
    results_[nb + rank] = nh;
    for (std::uint32_t i = rank; i < count; ++i) results_[nb + i + 1] = results_[ob + i];
    if (count != 0) free_results(ob, count);
    nodes_[ni].result_base = nb;
  }

  /// Drop the result at `rank`. Called *before* the internal bit is
  /// cleared, so popcount is the count including the victim.
  void shrink_results(std::uint32_t ni, std::uint32_t rank) {
    const std::uint32_t count = popcount16(nodes_[ni].internal);
    const std::uint32_t ob = nodes_[ni].result_base;
    std::uint32_t nb = 0;
    if (count > 1) {
      nb = alloc_results(count - 1);
      for (std::uint32_t i = 0, j = 0; i < count; ++i) {
        if (i == rank) continue;
        results_[nb + j++] = results_[ob + i];
      }
    }
    free_results(ob, count);
    nodes_[ni].result_base = nb;
  }

  std::vector<Node> nodes_;       // index 0 = root
  std::vector<NextHop> results_;  // index 0 = kNoResult, never in a run
  std::array<std::vector<std::uint32_t>, 17> free_node_runs_;    // by run size
  std::array<std::vector<std::uint32_t>, 16> free_result_runs_;  // by run size
  std::size_t size_ = 0;
  std::atomic<std::uint64_t> generation_{0};
};

using Ipv4Lpm = TreeBitmap<32>;
using Ipv6Lpm = TreeBitmap<128>;

}  // namespace dip::fib
