// Name FIB: component-wise longest-prefix match over hierarchical names.
//
// The control-plane counterpart of F_FIB for NDN-style names
// ("/org/hotnets/prog"). Routes are stored per component count in
// SipHash-keyed hash maps; lookup probes from the longest component prefix
// down, verifying the stored name on each hit to rule out hash collisions.
//
// The data-plane prototype carries only a 32-bit compressed name (§4.1); the
// ndn module's NameCodec maps hierarchical names onto 32-bit codes whose bit
// prefixes mirror component prefixes, so routers can reuse the IPv4 LPM
// table (fib::Ipv4Lpm).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dip/fib/address.hpp"

namespace dip::fib {

/// A hierarchical name: ordered components, no empty components.
class Name {
 public:
  Name() = default;

  /// Parse "/a/b/c" (leading slash optional; empty components rejected by
  /// returning an empty name).
  static Name parse(std::string_view text);

  void append(std::string component) { components_.push_back(std::move(component)); }

  [[nodiscard]] std::size_t component_count() const noexcept { return components_.size(); }
  [[nodiscard]] bool empty() const noexcept { return components_.empty(); }
  [[nodiscard]] const std::string& component(std::size_t i) const { return components_[i]; }

  /// The first n components as a new name.
  [[nodiscard]] Name prefix(std::size_t n) const;

  /// True iff this name is a (non-strict) component prefix of `other`.
  [[nodiscard]] bool is_prefix_of(const Name& other) const;

  /// Canonical "/a/b/c" form ("/" for the empty name).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Name&, const Name&) = default;

 private:
  std::vector<std::string> components_;
};

/// Longest-prefix-match table over Names.
class NameFib {
 public:
  /// Insert or replace; returns the previous next hop if any.
  std::optional<NextHop> insert(const Name& name, NextHop nh);

  /// Remove an exact prefix entry.
  std::optional<NextHop> remove(const Name& name);

  /// Longest-prefix match for `name`.
  [[nodiscard]] std::optional<NextHop> lookup(const Name& name) const;

  /// Exact match only.
  [[nodiscard]] std::optional<NextHop> exact(const Name& name) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    Name name;  // collision guard
    NextHop nh;
  };

  static std::uint64_t hash_prefix(const Name& name, std::size_t components);

  // Buckets by component count; each maps prefix-hash -> entries.
  std::vector<std::unordered_multimap<std::uint64_t, Entry>> by_depth_;
  std::size_t size_ = 0;
};

}  // namespace dip::fib
