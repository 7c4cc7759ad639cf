// DIR-24-8: flat two-level lookup table for IPv4 LPM.
//
// Classic Gupta/Lin/McKeown design: a 2^24-entry base table indexed by the
// top 24 address bits; blocks containing routes longer than /24 spill into
// 256-entry extension tables indexed by the low 8 bits. Lookup is one or two
// dependent loads — the fastest engine in ablation A3, at the cost of ~64 MiB
// and slower updates.
//
// Limitation (as in the original hardware design): next-hop ids must fit in
// 25 bits; insert() rejects larger values by returning nullopt and not
// installing the route.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dip/fib/binary_trie.hpp"
#include "dip/fib/lpm.hpp"

namespace dip::fib {

class Dir24 final : public LpmTable<32> {
 public:
  static constexpr NextHop kMaxNextHop = (1u << 25) - 1;

  Dir24();
  /// Deep copy (base + extension tables + shadow trie), adopting the
  /// source's generation via the LpmTable protected copy constructor.
  Dir24(const Dir24&) = default;

  [[nodiscard]] std::optional<NextHop> lookup(const Ipv4Addr& addr) const override;

  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] std::unique_ptr<LpmTable<32>> clone() const override {
    return std::make_unique<Dir24>(*this);
  }

  /// The fixed 64 MiB base slab plus extension blocks plus the shadow trie
  /// that backs incremental updates — the whole-footprint number; the slab
  /// dominates until ~10M routes.
  [[nodiscard]] std::size_t memory_bytes() const override {
    std::size_t ext = extensions_.capacity() * sizeof(extensions_[0]);
    for (const auto& e : extensions_) ext += e.capacity() * sizeof(std::uint32_t);
    return sizeof(*this) + base_.capacity() * sizeof(std::uint32_t) + ext +
           shadow_.memory_bytes();
  }

  /// One base-slab load, plus one more when the block spills to an
  /// extension table.
  [[nodiscard]] std::size_t lookup_depth(const Ipv4Addr& addr) const override {
    return (base_[ipv4_to_u32(addr) >> 8] & kExtendedBit) != 0 ? 2 : 1;
  }

 protected:
  std::optional<NextHop> do_insert(Prefix<32> prefix, NextHop nh) override;
  std::optional<NextHop> do_remove(Prefix<32> prefix) override;

 private:
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
  void refresh_block(std::uint32_t block);
  std::uint32_t ensure_extension(std::uint32_t block);

  std::vector<std::uint32_t> base_;                     // 2^24 entries
  std::vector<std::vector<std::uint32_t>> extensions_;  // 256 entries each

  // Shadow trie mapping prefix -> pack(nh, len); source of truth for
  // incremental updates and removals.
  BinaryTrie<32> shadow_;
  std::size_t size_ = 0;
};

}  // namespace dip::fib
