// Field Operation (FN) — the DIP protocol primitive (§2.1, §2.2).
//
// An FN is a triple carried in the packet header:
//   (field location, field length, operation key)
// The location/length address a bit range inside the packet's FN-locations
// block; the key selects an operation module. The key's highest bit is the
// *tag*: 1 = host-side operation (routers skip it), 0 = router-side.
//
// Wire encoding (6 bytes, big-endian): loc:16 | len:16 | tag:1 key:15.
// This 6-byte triple size is what makes the paper's Table 2 header sizes
// come out exactly (see DESIGN.md §3).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "dip/bytes/bitfield.hpp"

namespace dip::core {

/// Egress face / port identifier.
using FaceId = std::uint32_t;

/// Operation keys from Table 1 of the paper, plus the extension FNs the
/// paper discusses (F_pass in §2.4, telemetry in §5).
enum class OpKey : std::uint16_t {
  kMatch32 = 1,   ///< F_32_match  — 32-bit address LPM + forward
  kMatch128 = 2,  ///< F_128_match — 128-bit address LPM + forward
  kSource = 3,    ///< F_source    — carries the source address
  kFib = 4,       ///< F_FIB       — content-name FIB match (NDN interest)
  kPit = 5,       ///< F_PIT       — pending-interest match (NDN data)
  kParm = 6,      ///< F_parm      — derive dynamic key / load OPT parameters
  kMac = 7,       ///< F_MAC       — recompute authentication tags (2EM)
  kMark = 8,      ///< F_mark      — update the path-marking field (PVF)
  kVer = 9,       ///< F_ver       — destination verification (host side)
  kDag = 10,      ///< F_DAG       — parse the XIA directed acyclic graph
  kIntent = 11,   ///< F_intent    — handle the XIA intent node
  // Extensions beyond Table 1:
  kPass = 12,     ///< F_pass      — source-label verification (§2.4 security)
  kTelemetry = 13,///< F_int       — in-band telemetry collection (§5)
  kCc = 14,       ///< F_cc        — MAC-protected congestion-control tag
                  ///<               (the NetFence example of §2.1)
  kDps = 15,      ///< F_dps       — dynamic packet state for stateless
                  ///<               guaranteed services (§5, CSFQ-style)
  kHvf = 16,      ///< F_hvf       — EPIC-style per-hop verify-and-update
                  ///<               (the §1 EPIC example)
  kCustody = 17,  ///< F_custody   — DTN custody-transfer tag: request/accept
                  ///<               bits + custodian chain with a MAC over it
                  ///<               (store-and-forward, docs/DTN.md)
  kBundleFrag = 18,///< F_frag     — bundle fragment index/total for
                  ///<               store-and-forward reassembly (carried)
};

/// Table-1 notation for an operation key ("F_FIB"), or "F_?" if unknown.
[[nodiscard]] std::string_view op_key_name(OpKey key) noexcept;

/// One Field Operation as carried in the packet header.
struct FnTriple {
  static constexpr std::size_t kWireSize = 6;
  static constexpr std::uint16_t kHostTagBit = 0x8000;

  std::uint16_t field_loc = 0;  ///< bit offset into the FN-locations block
  std::uint16_t field_len = 0;  ///< field length in bits
  std::uint16_t op = 0;         ///< tag(1) | key(15)

  [[nodiscard]] constexpr bool host_tagged() const noexcept {
    return (op & kHostTagBit) != 0;
  }
  [[nodiscard]] constexpr OpKey key() const noexcept {
    return static_cast<OpKey>(op & ~kHostTagBit);
  }
  [[nodiscard]] constexpr bytes::BitRange range() const noexcept {
    return {field_loc, field_len};
  }

  /// Build a router-side FN.
  static constexpr FnTriple router(std::uint16_t loc, std::uint16_t len, OpKey key) {
    return {loc, len, static_cast<std::uint16_t>(key)};
  }
  /// Build a host-side FN (tag bit set; routers skip it, Algorithm 1 line 5).
  static constexpr FnTriple host(std::uint16_t loc, std::uint16_t len, OpKey key) {
    return {loc, len, static_cast<std::uint16_t>(static_cast<std::uint16_t>(key) |
                                                 kHostTagBit)};
  }

  friend constexpr bool operator==(const FnTriple&, const FnTriple&) = default;
};

/// Deployment metadata for an FN (used by bootstrap and the §2.4
/// heterogeneous-configuration rule).
struct FnInfo {
  OpKey key;
  std::string_view notation;        ///< Table-1 notation, e.g. "F_MAC"
  bool requires_full_path = false;  ///< if unsupported: error back to source
                                    ///< (true, e.g. path authentication) or
                                    ///< silently skippable (false)
  /// Whether executions of this FN commute with other order-independent FNs
  /// on disjoint fields (no OpScratch coupling, no cross-FN verdict or
  /// per-flow-state dependence). Gates the §2.2 modular-parallelism bit:
  /// the batch path may relax FN ordering only when every router-side FN in
  /// the packet is order-independent.
  bool order_independent = false;
  /// Whether executions of this FN on *different packets* commute: the
  /// module touches only its own packet's bytes/scratch/result, or shared
  /// state it treats as read-only/memoized (FIB walks, flow-cache fills —
  /// the cached verdict invariant makes hit/miss ordering unobservable in
  /// verdicts). Anything that mutates cross-packet state a later packet
  /// can observe (PIT, content store, DPS buckets, CC estimators) must
  /// stay in arrival order. This is what licenses the burst pipeline's
  /// module-major (wave) dispatch; distinct from order_independent, which
  /// is about FN order *within* one packet.
  bool burst_commutes = false;
};

/// Static registry of the FNs this prototype defines.
[[nodiscard]] std::optional<FnInfo> fn_info(OpKey key) noexcept;

/// The whole dense module table, in definition order — the introspection
/// seam for analysis layers (the PISA stage-budget compiler) that must bind
/// against exactly the table the router binds against, so the software and
/// hardware views of "what FNs exist" can never drift.
[[nodiscard]] std::span<const FnInfo> fn_table() noexcept;

/// Dense burst_commutes lookup — the wave-dispatch classification hot path
/// (one table load instead of a linear fn_info scan). False for any key
/// outside the static table: unknown modules are assumed stateful.
[[nodiscard]] bool op_burst_commutes(OpKey key) noexcept;

}  // namespace dip::core
