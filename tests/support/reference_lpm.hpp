// Reference LPM tables for tests and benches — not part of the library.
//
// The program builds one LPM table, fib::TreeBitmap (dip/fib/tree_bitmap.hpp).
// The two tables here are what tests and benches hold it against, with the
// same insert/remove/lookup/size/memory_bytes/lookup_depth members:
//
//   * BinaryTrie — one node per prefix bit. Obviously correct: the oracle of
//     the property and parity suites, and the pointer-trie baseline of the
//     bench_fib ablation (A3) and the bench_fib_scale sweep.
//   * Dir24 — DIR-24-8 (Gupta/Lin/McKeown): a 2^24-entry base table indexed
//     by the top 24 address bits; blocks holding routes longer than /24 spill
//     into 256-entry extension tables indexed by the low 8 bits. Lookup is
//     one or two dependent loads, at the cost of a fixed ~64 MiB slab per
//     copy and O(block) updates — the flat-table extreme of the CRAM-lens
//     trade-off (docs/FIB.md). As in the original hardware design, next hops
//     must fit in 25 bits: insert() rejects larger ones by returning nullopt
//     and not installing the route.
//
// Both copy deeply (copy constructor). Neither tracks a generation: only the
// production table feeds a flow cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dip/fib/address.hpp"

namespace dip::fib {

template <std::size_t W>
class BinaryTrie {
 public:
  BinaryTrie() = default;
  BinaryTrie(const BinaryTrie& other) : size_(other.size_) {
    copy_subtree(root_, other.root_);
  }

  /// Insert or replace a route. Returns the previous next hop if replaced.
  std::optional<NextHop> insert(Prefix<W> prefix, NextHop nh) {
    prefix.normalize();
    Node* node = &root_;
    for (std::size_t i = 0; i < prefix.length; ++i) {
      auto& child = node->child[prefix.addr.bit(i)];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    std::optional<NextHop> old = node->next_hop;
    if (!old) ++size_;
    node->next_hop = nh;
    return old;
  }

  /// Remove a route. Returns the removed next hop if present.
  std::optional<NextHop> remove(Prefix<W> prefix) {
    prefix.normalize();
    Node* node = &root_;
    for (std::size_t i = 0; i < prefix.length; ++i) {
      auto& child = node->child[prefix.addr.bit(i)];
      if (!child) return std::nullopt;
      node = child.get();
    }
    std::optional<NextHop> old = node->next_hop;
    if (old) {
      node->next_hop.reset();
      --size_;
    }
    // Dangling chains are left in place; fine for a reference table.
    return old;
  }

  [[nodiscard]] std::optional<NextHop> lookup(const Address<W>& addr) const {
    std::optional<NextHop> best = root_.next_hop;
    const Node* node = &root_;
    for (std::size_t i = 0; i < W; ++i) {
      node = node->child[addr.bit(i)].get();
      if (!node) break;
      if (node->next_hop) best = node->next_hop;
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + (count_nodes(root_) - 1) * sizeof(Node);
  }

  [[nodiscard]] std::size_t lookup_depth(const Address<W>& addr) const {
    std::size_t depth = 1;
    const Node* node = &root_;
    for (std::size_t i = 0; i < W; ++i) {
      node = node->child[addr.bit(i)].get();
      if (!node) break;
      ++depth;
    }
    return depth;
  }

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::optional<NextHop> next_hop;
  };

  static std::size_t count_nodes(const Node& n) {
    std::size_t count = 1;
    for (int b = 0; b < 2; ++b) {
      if (n.child[b]) count += count_nodes(*n.child[b]);
    }
    return count;
  }

  static void copy_subtree(Node& dst, const Node& src) {
    dst.next_hop = src.next_hop;
    for (int b = 0; b < 2; ++b) {
      if (src.child[b]) {
        dst.child[b] = std::make_unique<Node>();
        copy_subtree(*dst.child[b], *src.child[b]);
      }
    }
  }

  Node root_;
  std::size_t size_ = 0;
};

class Dir24 {
 public:
  static constexpr NextHop kMaxNextHop = (1u << 25) - 1;

  Dir24() : base_(kBaseEntries, kEmpty) {}

  std::optional<NextHop> insert(Prefix<32> prefix, NextHop nh) {
    if (nh > kMaxNextHop) return std::nullopt;
    prefix.normalize();

    const std::optional<NextHop> old_packed =
        shadow_.insert(prefix, pack(nh, prefix.length));
    if (!old_packed) ++size_;

    const std::uint32_t addr = ipv4_to_u32(prefix.addr);
    if (prefix.length <= 24) {
      const std::uint32_t first = addr >> 8;
      const std::uint32_t count = 1u << (24 - prefix.length);
      for (std::uint32_t b = first; b < first + count; ++b) {
        const std::uint32_t entry = base_[b];
        if (entry & kExtendedBit) {
          // Fold into every sub-entry not owned by a longer route.
          auto& ext = extensions_[entry & ~kExtendedBit];
          for (auto& e : ext) {
            if (e == kEmpty || unpack_len(e) <= prefix.length) e = pack(nh, prefix.length);
          }
        } else if (entry == kEmpty || unpack_len(entry) <= prefix.length) {
          base_[b] = pack(nh, prefix.length);
        }
      }
    } else {
      const std::uint32_t block = addr >> 8;
      const std::uint32_t ext_index = ensure_extension(block);
      auto& ext = extensions_[ext_index];
      const std::uint32_t first = addr & 0xff;
      const std::uint32_t count = 1u << (32 - prefix.length);
      for (std::uint32_t i = first; i < first + count; ++i) {
        if (ext[i] == kEmpty || unpack_len(ext[i]) <= prefix.length) {
          ext[i] = pack(nh, prefix.length);
        }
      }
    }
    return old_packed ? std::optional<NextHop>(unpack_nh(*old_packed)) : std::nullopt;
  }

  std::optional<NextHop> remove(Prefix<32> prefix) {
    prefix.normalize();
    const std::optional<NextHop> old_packed = shadow_.remove(prefix);
    if (!old_packed) return std::nullopt;
    --size_;

    // Recompute every block the prefix covered from the shadow trie.
    const std::uint32_t addr = ipv4_to_u32(prefix.addr);
    const std::uint32_t first = addr >> 8;
    const std::uint32_t count = prefix.length <= 24 ? (1u << (24 - prefix.length)) : 1;
    for (std::uint32_t b = first; b < first + count; ++b) refresh_block(b);
    return unpack_nh(*old_packed);
  }

  [[nodiscard]] std::optional<NextHop> lookup(const Ipv4Addr& a) const {
    const std::uint32_t addr = ipv4_to_u32(a);
    const std::uint32_t entry = base_[addr >> 8];
    if (entry == kEmpty) return std::nullopt;
    if (entry & kExtendedBit) {
      const std::uint32_t e = extensions_[entry & ~kExtendedBit][addr & 0xff];
      if (e == kEmpty) return std::nullopt;
      return unpack_nh(e);
    }
    return unpack_nh(entry);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// The fixed 64 MiB base slab plus extension blocks plus the shadow trie
  /// that backs incremental updates — the whole-footprint number; the slab
  /// dominates until ~10M routes.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t ext = extensions_.capacity() * sizeof(extensions_[0]);
    for (const auto& e : extensions_) ext += e.capacity() * sizeof(std::uint32_t);
    return sizeof(*this) + base_.capacity() * sizeof(std::uint32_t) + ext +
           shadow_.memory_bytes();
  }

  /// One base-slab load, plus one more when the block spills to an
  /// extension table.
  [[nodiscard]] std::size_t lookup_depth(const Ipv4Addr& addr) const {
    return (base_[ipv4_to_u32(addr) >> 8] & kExtendedBit) != 0 ? 2 : 1;
  }

 private:
  static constexpr std::uint32_t kBaseEntries = 1u << 24;
  // Entry encoding: bit 31 set -> extension table index in low 24 bits;
  // otherwise a packed {len:6, nh:25} route, or kEmpty.
  static constexpr std::uint32_t kExtendedBit = 0x8000'0000u;
  static constexpr std::uint32_t kEmpty = 0x7fff'ffffu;

  static constexpr std::uint32_t pack(NextHop nh, std::uint8_t len) noexcept {
    return (static_cast<std::uint32_t>(len) << 25) | (nh & 0x01ff'ffffu);
  }
  static constexpr NextHop unpack_nh(std::uint32_t e) noexcept { return e & 0x01ff'ffffu; }
  static constexpr std::uint8_t unpack_len(std::uint32_t e) noexcept {
    return static_cast<std::uint8_t>((e >> 25) & 0x3f);
  }

  /// Recompute one base-table entry (or every sub-entry of its extension)
  /// from the shadow trie.
  void refresh_block(std::uint32_t block) {
    const std::uint32_t entry = base_[block];
    if (entry & kExtendedBit) {
      auto& ext = extensions_[entry & ~kExtendedBit];
      for (std::uint32_t i = 0; i < 256; ++i) {
        const auto best = shadow_.lookup(ipv4_from_u32((block << 8) | i));
        ext[i] = best ? *best : kEmpty;
      }
    } else {
      // No extension: no route longer than /24 covers this block, so the
      // best route is uniform across it.
      const auto best = shadow_.lookup(ipv4_from_u32(block << 8));
      base_[block] = best ? *best : kEmpty;
    }
  }

  std::uint32_t ensure_extension(std::uint32_t block) {
    const std::uint32_t entry = base_[block];
    if (entry & kExtendedBit) return entry & ~kExtendedBit;

    const std::uint32_t index = static_cast<std::uint32_t>(extensions_.size());
    extensions_.emplace_back(256, entry);  // seed with the block's current route
    base_[block] = kExtendedBit | index;
    return index;
  }

  std::vector<std::uint32_t> base_;                     // 2^24 entries
  std::vector<std::vector<std::uint32_t>> extensions_;  // 256 entries each

  // Shadow trie mapping prefix -> pack(nh, len); source of truth for
  // incremental updates and removals.
  BinaryTrie<32> shadow_;
  std::size_t size_ = 0;
};

}  // namespace dip::fib
