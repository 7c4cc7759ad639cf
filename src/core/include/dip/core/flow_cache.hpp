// Exact-match flow cache in front of F_32_match / F_128_match.
//
// LPM dominates per-packet cost once FIBs grow (CRAM's observation), but
// real traffic is heavy-tailed: a small set of destination addresses covers
// most packets. The cache memoizes the FIB's egress verdict for a sliced
// match field so repeat flows skip the trie walk entirely.
//
// Design:
//   * fixed-size, open-addressed (linear probe, bounded probe run) — no
//     allocation on the hot path, cache-line friendly;
//   * keyed by the FN's sliced field bytes (4 for F_32_match, 16 for
//     F_128_match) plus the field width, so DIP-32 and DIP-128 flows never
//     alias;
//   * generation-stamped: every entry records the FIB generation it was
//     filled under (fib::TreeBitmap::generation()). Any route change bumps
//     the generation, so stale entries die on their next probe — route
//     updates need no cache flush;
//   * negative caching: a kNoRoute verdict is memoized too (a flood of
//     unroutable packets would otherwise bypass the cache entirely).
//
// One cache per router/worker; it is deliberately NOT thread-safe. Sharding
// in RouterPool gives every worker its own cache (and flow affinity makes
// per-worker caches as effective as a shared one).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dip/core/fn.hpp"

namespace dip::core {

class FlowCache {
 public:
  static constexpr std::size_t kMaxKeyBytes = 16;
  static constexpr std::size_t kProbeLimit = 8;
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The memoized verdict of one match-FN execution.
  struct Verdict {
    FaceId egress = 0;
    bool no_route = false;  ///< negative entry: the FIB had no route
  };

  /// `capacity` is rounded up to a power of two (minimum 16 slots).
  explicit FlowCache(std::size_t capacity = kDefaultCapacity);

  /// Probe for `key` (the sliced match field) filled under `generation`.
  /// Returns nullptr on miss or stale hit.
  [[nodiscard]] const Verdict* find(std::span<const std::uint8_t> key,
                                    std::uint64_t generation) noexcept;

  /// Hash a key exactly as find/insert do (never 0). The burst pipeline
  /// hashes a whole wave up front so slot prefetches overlap the probes.
  [[nodiscard]] static std::uint64_t hash(std::span<const std::uint8_t> key) noexcept {
    return hash_key(key);
  }

  /// Prefetch the slot a hash-`h` probe run starts at.
  void prefetch(std::uint64_t h) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[static_cast<std::size_t>(h) & mask_], 0, 3);
#else
    (void)h;
#endif
  }

  /// find() with the hash already computed (h must equal hash(key)).
  /// Inline: this is the per-packet probe on the burst fast path.
  [[nodiscard]] const Verdict* find_hashed(std::span<const std::uint8_t> key,
                                           std::uint64_t h,
                                           std::uint64_t generation) noexcept {
    const std::size_t at = locate(key, h);
    if (at == kAbsent) return nullptr;
    Slot& slot = slots_[at];
    if (slot.generation != generation) {
      // Route table changed since this verdict was memoized: the entry
      // is dead. Erase it so the slot can be refilled (and so a
      // subsequent insert of the same key does not create a duplicate
      // further along the run).
      slot.hash = 0;
      --entries_;
      return nullptr;
    }
    return &slot.verdict;
  }

  /// Whether find_hashed(key, h, generation) would hit now. Unlike
  /// find_hashed it never erases a stale entry, so a burst can predict
  /// its misses ahead of the arrival-order probes without changing what
  /// those probes and inserts see (hits, misses, evictions).
  [[nodiscard]] bool would_hit(std::span<const std::uint8_t> key, std::uint64_t h,
                               std::uint64_t generation) const noexcept {
    const std::size_t at = locate(key, h);
    return at != kAbsent && slots_[at].generation == generation;
  }

  /// Memoize a verdict computed under `generation`. Overwrites the first
  /// empty/stale slot in the probe run, else evicts the last probed slot.
  void insert(std::span<const std::uint8_t> key, std::uint64_t generation,
              Verdict verdict) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t entries() const noexcept { return entries_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;        ///< full hash; 0 means "empty"
    std::uint64_t generation = 0;  ///< FIB generation the verdict was filled under
    Verdict verdict{};
    std::uint8_t key_len = 0;
    std::array<std::uint8_t, kMaxKeyBytes> key{};
  };

  [[nodiscard]] static std::uint64_t hash_key(
      std::span<const std::uint8_t> key) noexcept;

  [[nodiscard]] bool key_equals(const Slot& slot,
                                std::span<const std::uint8_t> key) const noexcept {
    return slot.key_len == key.size() &&
           std::memcmp(slot.key.data(), key.data(), key.size()) == 0;
  }

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index of the slot holding `key` in hash `h`'s probe run, or kAbsent.
  [[nodiscard]] std::size_t locate(std::span<const std::uint8_t> key,
                                   std::uint64_t h) const noexcept {
    std::size_t at = static_cast<std::size_t>(h) & mask_;
    for (std::size_t probe = 0; probe < kProbeLimit; ++probe, at = (at + 1) & mask_) {
      const Slot& slot = slots_[at];
      if (slot.hash == 0) return kAbsent;  // empty slot ends the probe run
      if (slot.hash == h && key_equals(slot, key)) return at;
    }
    return kAbsent;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t entries_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dip::core
