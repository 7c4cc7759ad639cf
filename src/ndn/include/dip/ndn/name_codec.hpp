// Hierarchical-name ↔ 32-bit code mapping for the DIP data plane.
//
// The paper's prototype carries "the 32-bit content name for the packet
// forwarding with F_FIB and F_PIT" (§4.1). To keep LPM semantics, each name
// component is hashed to one byte and the bytes are concatenated MSB-first,
// so a k-component name prefix maps onto a (k*8)-bit code prefix and routers
// can reuse the 32-bit LPM table (fib::Ipv4Lpm).
//
// This is deliberately lossy (the prototype compromise): two names can
// collide in code space. Hosts and the gateway keep full Names (fib::Name);
// collisions only matter on the 32-bit fast path and are quantified in
// tests/ndn_test.
#pragma once

#include <cstdint>

#include "dip/fib/address.hpp"
#include "dip/fib/name.hpp"
#include "dip/fib/tree_bitmap.hpp"

namespace dip::ndn {

/// Maximum components representable in a 32-bit code.
inline constexpr std::size_t kMaxCodedComponents = 4;

/// 32-bit code of (up to 4 components of) `name`.
[[nodiscard]] std::uint32_t encode_name32(const fib::Name& name);

/// Code prefix of the first `components` components, as an LPM prefix
/// (length = components * 8 bits).
[[nodiscard]] fib::Ipv4Prefix encode_prefix32(const fib::Name& name,
                                              std::size_t components);

/// Register a name-prefix route in a 32-bit LPM FIB (router-side F_FIB
/// table population).
void install_name_route(fib::Ipv4Lpm& fib, const fib::Name& prefix, fib::NextHop nh);

}  // namespace dip::ndn
