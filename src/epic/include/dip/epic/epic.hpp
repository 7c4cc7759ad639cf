// EPIC-style per-hop packet authentication as a Field Operation.
//
// §1 of the paper: "OPT and EPIC, designed based on SCION, requires on-path
// routers to verify and update the cryptographically generated code carried
// [in] customized packet headers to achieve source validation and path
// authentication." OPT (see dip/opt) has routers *update* a chain the
// destination verifies; EPIC's distinguishing property is that every router
// *verifies its own hop field first* and drops forged traffic in the
// network — per-packet source authentication at every hop.
//
// Realization as one FN, F_hvf (key 16), over this locations block:
//
//   [0,16)   DataHash   — CMAC over payload keyed by session id
//   [16,32)  SessionID
//   [32,36)  Timestamp
//   [36]     hop_index  — which HVF the next router checks (cursor)
//   [37]     hop_count  — path length (≤ kMaxHops)
//   [38,40)  reserved
//   [40,40+4*hop_count) HVF array — 4-byte per-hop validation fields
//
// Source computes HVF_i = trunc4(MAC_{K_i}(DataHash|SessionID|Timestamp|i))
// for every hop from the negotiated hop keys. Router i recomputes and
// compares; on success it overwrites HVF_i with the proof-of-transit tag
// trunc4(MAC_{K_i}(DataHash|SessionID|Timestamp|i|0xP0T)) and advances
// hop_index; on mismatch the packet dies right there (kAuthFailed).
// The destination replays both computations to confirm every hop was
// visited in order.
#pragma once

#include <span>
#include <vector>

#include "dip/core/builder.hpp"
#include "dip/core/op_module.hpp"
#include "dip/opt/session.hpp"  // Session/negotiate_session are shared

namespace dip::epic {

inline constexpr std::size_t kMaxHops = 8;
inline constexpr std::size_t kHvfBytes = 4;
inline constexpr std::size_t kFixedBytes = 40;  // up to the HVF array

[[nodiscard]] constexpr std::size_t block_bytes(std::size_t hops) noexcept {
  return kFixedBytes + hops * kHvfBytes;
}

/// F_hvf (key 16): verify-then-update, per hop.
class HvfOp final : public core::OpModule {
 public:
  [[nodiscard]] core::OpKey key() const noexcept override { return core::OpKey::kHvf; }
  [[nodiscard]] std::uint32_t cost() const noexcept override { return 5; }
  [[nodiscard]] bytes::Status execute(core::OpContext& ctx) override;
};

/// Source side: build the locations block with one HVF per hop key.
[[nodiscard]] std::vector<std::uint8_t> make_source_block(
    const opt::Session& session, std::span<const std::uint8_t> payload,
    std::uint32_t timestamp);

/// Compose a standalone EPIC header (F_hvf covering the block, host-tagged
/// F_ver-style verification happens via verify_packet).
[[nodiscard]] bytes::Result<core::DipHeader> make_epic_header(
    const opt::Session& session, std::span<const std::uint8_t> payload,
    std::uint32_t timestamp, core::NextHeader next = core::NextHeader::kNone,
    std::uint8_t hop_limit = 64);

enum class VerifyResult : std::uint8_t {
  kOk,
  kBadDataHash,
  kBadSession,
  kIncompletePath,  ///< hop_index != hop_count: some hop was skipped
  kBadProof,        ///< a proof-of-transit tag is wrong
  kMalformed,
};

/// Destination side: confirm every hop verified-and-stamped in order.
[[nodiscard]] VerifyResult verify_packet(const opt::Session& session,
                                         std::span<const std::uint8_t> locations,
                                         std::span<const std::uint8_t> payload,
                                         std::size_t block_offset = 0);

}  // namespace dip::epic
