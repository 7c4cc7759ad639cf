// FN capability sets and their wire form (§2.3 "Available FNs").
//
// "After the host is connected to an accessed AS, it uses bootstrapping
// mechanisms (similar to DHCP) to get the set of available FNs."
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/core/fn.hpp"

namespace dip::bootstrap {

/// The FNs a node/AS supports: one sorted vector of distinct keys, so a
/// copy is one allocation. Any 16-bit key is accepted, named or not, up to
/// kMaxKeys of them.
class CapabilitySet {
 public:
  /// The wire form counts keys in one byte, so a set holds at most 255.
  static constexpr std::size_t kMaxKeys = 255;

  CapabilitySet() = default;
  /// Adds the keys in list order; keys past kMaxKeys are refused.
  CapabilitySet(std::initializer_list<core::OpKey> keys);

  /// Leaves the set unchanged when `key` is new and the set already holds
  /// kMaxKeys keys.
  void add(core::OpKey key);
  void remove(core::OpKey key);
  [[nodiscard]] bool supports(core::OpKey key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  /// The keys in ascending order.
  [[nodiscard]] std::span<const core::OpKey> keys() const noexcept { return keys_; }

  /// True iff every key in `required` is present.
  [[nodiscard]] bool covers(const CapabilitySet& required) const;

  /// Set intersection — what survives a path through both.
  [[nodiscard]] CapabilitySet intersect(const CapabilitySet& other) const;

  /// Wire form: count:8 then key:16 each (sorted — canonical).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static bytes::Result<CapabilitySet> parse(
      std::span<const std::uint8_t> data);

  friend bool operator==(const CapabilitySet&, const CapabilitySet&) = default;

 private:
  std::vector<core::OpKey> keys_;  ///< ascending, no repeats
};

/// Every FN of the paper's prototype (Table 1 + extensions).
[[nodiscard]] CapabilitySet full_capability_set();

/// Table 1 only (keys 1..11).
[[nodiscard]] CapabilitySet table1_capability_set();

}  // namespace dip::bootstrap
