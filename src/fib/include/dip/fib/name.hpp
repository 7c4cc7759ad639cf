// Hierarchical names ("/org/hotnets/prog") for NDN-style content.
//
// Routers never look a Name up: the data plane carries a 32-bit compressed
// name (§4.1), and the ndn module's NameCodec maps hierarchical names onto
// 32-bit codes whose bit prefixes mirror component prefixes, so F_FIB routes
// names through the IPv4 LPM table (fib::Ipv4Lpm). Name is what hosts,
// the NDN TLV codec and the gateway parse and print.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

  /// Canonical "/a/b/c" form ("/" for the empty name).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Name&, const Name&) = default;

 private:
  std::vector<std::string> components_;
};

}  // namespace dip::fib
