#include "dip/core/flow_cache.hpp"

namespace dip::core {

namespace {

[[nodiscard]] constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlowCache::FlowCache(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

std::uint64_t FlowCache::hash_key(std::span<const std::uint8_t> key) noexcept {
  if (key.size() == 4) {
    // IPv4 match fields: one 32-bit load through a splitmix64 finalizer
    // beats the byte-serial FNV rounds below (four dependent multiplies).
    std::uint32_t w;
    std::memcpy(&w, key.data(), 4);
    std::uint64_t h = w + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h == 0 ? 1 : h;
  }
  // FNV-1a 64, finalized with a xor-shift mix so sequential addresses
  // spread across the table. Never returns 0 (0 marks an empty slot).
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h == 0 ? 1 : h;
}

const FlowCache::Verdict* FlowCache::find(std::span<const std::uint8_t> key,
                                          std::uint64_t generation) noexcept {
  if (key.size() > kMaxKeyBytes) return nullptr;
  return find_hashed(key, hash_key(key), generation);
}

void FlowCache::insert(std::span<const std::uint8_t> key, std::uint64_t generation,
                       Verdict verdict) noexcept {
  if (key.size() > kMaxKeyBytes) return;
  const std::uint64_t h = hash_key(key);
  std::size_t at = static_cast<std::size_t>(h) & mask_;
  Slot* victim = nullptr;
  for (std::size_t probe = 0; probe < kProbeLimit; ++probe, at = (at + 1) & mask_) {
    Slot& slot = slots_[at];
    if (slot.hash == 0) {
      victim = &slot;
      ++entries_;
      break;
    }
    if (slot.hash == h && key_equals(slot, key)) {
      victim = &slot;  // refresh in place
      break;
    }
    if (slot.generation != generation) {
      victim = &slot;  // stale entry: reuse without growing the run
      ++evictions_;
      break;
    }
    if (probe + 1 == kProbeLimit) {
      victim = &slot;  // probe run full: clobber the tail slot
      ++evictions_;
    }
  }
  if (victim == nullptr) return;
  victim->hash = h;
  victim->generation = generation;
  victim->verdict = verdict;
  victim->key_len = static_cast<std::uint8_t>(key.size());
  std::memcpy(victim->key.data(), key.data(), key.size());
}

}  // namespace dip::core
