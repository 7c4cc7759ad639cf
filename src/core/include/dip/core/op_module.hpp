// Operation modules — the pluggable halves of Field Operations (§2.1).
//
// "The operation is a functional module that takes the field as input and
// performs pre-defined calculations or matches, and then modifies the packet
// field or determines the packet fate."
//
// A module receives an OpContext: the in-packet FN-locations block, the
// target bit range its triple addresses, and the node environment. Modules
// mutate the block in place (tag updates) and/or set the verdict.
#pragma once

#include <cstdint>
#include <span>

#include <optional>

#include "dip/bytes/bitfield.hpp"
#include "dip/bytes/expected.hpp"
#include "dip/bytes/time.hpp"
#include "dip/crypto/aes.hpp"
#include "dip/core/env.hpp"
#include "dip/core/verdict.hpp"
#include "dip/fib/tree_bitmap.hpp"

namespace dip::core {

/// Per-packet scratch shared by the FNs of one packet. FNs compose through
/// it: F_parm derives the dynamic key that F_MAC consumes, F_MAC leaves the
/// tag that F_mark writes back (§3, OPT). Cleared for every packet.
struct OpScratch {
  std::optional<crypto::Block> dynamic_key;  ///< set by F_parm
  std::optional<crypto::Block> mac;          ///< set by F_MAC
};

struct OpContext {
  /// The whole FN-locations block, aliasing the packet buffer (writes are
  /// visible on the wire immediately).
  std::span<std::uint8_t> locations;
  /// The target field this FN addresses (validated to fit `locations`).
  bytes::BitRange field;
  /// The full triple (modules rarely need more than `field`).
  FnTriple fn;
  /// Packet payload after the DIP header (read-only; F_PIT caches it).
  std::span<const std::uint8_t> payload;
  FaceId ingress = 0;
  SimTime now = 0;
  RouterEnv* env = nullptr;
  ProcessResult* result = nullptr;
  OpScratch* scratch = nullptr;
  /// The target field's longest-prefix match, when the burst pipeline
  /// resolved it for the whole wave group before this call: the next hop,
  /// or fib::kNoRoute for none. Empty: the module looks the field up
  /// itself. F_32_match, F_128_match and F_FIB read it through lpm().
  std::optional<fib::NextHop> next_hop;

  /// Longest-prefix match of the target field `addr` in `fib`: the
  /// pre-resolved next_hop when there is one, else fib.lookup(addr).
  template <std::size_t W>
  [[nodiscard]] std::optional<fib::NextHop> lpm(const fib::TreeBitmap<W>& fib,
                                                const fib::Address<W>& addr) const {
    if (!next_hop) return fib.lookup(addr);
    if (*next_hop == fib::kNoRoute) return std::nullopt;
    return next_hop;
  }

  /// Byte view of the target field; empty span if the field is not
  /// byte-aligned (use extract/inject then).
  [[nodiscard]] std::span<std::uint8_t> target_bytes() const noexcept {
    if (!field.byte_aligned()) return {};
    return locations.subspan(field.bit_offset / 8, field.bit_length / 8);
  }

  /// The target as an unsigned integer (fields up to 64 bits).
  [[nodiscard]] bytes::Result<std::uint64_t> target_uint() const noexcept {
    return bytes::extract_uint(locations, field);
  }
};

class OpModule {
 public:
  virtual ~OpModule() = default;

  /// The Table-1 operation key this module implements.
  [[nodiscard]] virtual OpKey key() const noexcept = 0;

  /// Abstract cost charged against the packet's processing budget (§2.4).
  [[nodiscard]] virtual std::uint32_t cost() const noexcept { return 1; }

  /// Execute on one packet. Structural failures return an error (the router
  /// drops as malformed); protocol decisions (no route, PIT miss, bad tag)
  /// are expressed through ctx.result.
  [[nodiscard]] virtual bytes::Status execute(OpContext& ctx) = 0;
};

}  // namespace dip::core
