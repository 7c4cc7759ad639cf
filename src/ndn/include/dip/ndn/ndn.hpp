// NDN realized with DIP (§3 "NDN").
//
// Two packet types, one FN each (which is what makes Table 2's 16-byte NDN
// header come out):
//   interest: (loc 0, len 32, F_FIB) — "the router records its receiving
//             port in the PIT and matches it in the FIB with the content
//             name to determine the forwarding port";
//   data:     (loc 0, len 32, F_PIT) — "the router looks up the content name
//             in the PIT and forwards it to the recorded request port (match
//             hit) or discards the packet (match miss)".
//
// The 32-bit content name code comes from ndn::encode_name32.
#pragma once

#include "dip/core/builder.hpp"
#include "dip/core/op_module.hpp"
#include "dip/fib/name.hpp"
#include "dip/ndn/name_codec.hpp"

namespace dip::ndn {

/// F_FIB (key 4): PIT-record the ingress, probe the content store (footnote
/// 2), then LPM the content name in the name FIB.
class FibOp final : public core::OpModule {
 public:
  [[nodiscard]] core::OpKey key() const noexcept override { return core::OpKey::kFib; }
  [[nodiscard]] std::uint32_t cost() const noexcept override { return 2; }
  [[nodiscard]] bytes::Status execute(core::OpContext& ctx) override;
};

/// F_PIT (key 5): consume the pending-interest entry and fan the data out to
/// every recorded request port; cache into the content store when enabled.
class PitOp final : public core::OpModule {
 public:
  [[nodiscard]] core::OpKey key() const noexcept override { return core::OpKey::kPit; }
  [[nodiscard]] std::uint32_t cost() const noexcept override { return 2; }
  [[nodiscard]] bytes::Status execute(core::OpContext& ctx) override;
};

/// Compose an interest header for `name`. Wire size: 6 + 6 + 4 = 16 bytes.
[[nodiscard]] bytes::Result<core::DipHeader> make_interest_header(
    const fib::Name& name, core::NextHeader next = core::NextHeader::kNone,
    std::uint8_t hop_limit = 64);

/// Compose a data header for `name`. Wire size: 16 bytes.
[[nodiscard]] bytes::Result<core::DipHeader> make_data_header(
    const fib::Name& name, core::NextHeader next = core::NextHeader::kNone,
    std::uint8_t hop_limit = 64);

/// Variants taking a pre-encoded 32-bit name code (fast path, benches).
[[nodiscard]] bytes::Result<core::DipHeader> make_interest_header32(
    std::uint32_t name_code, core::NextHeader next = core::NextHeader::kNone,
    std::uint8_t hop_limit = 64);
[[nodiscard]] bytes::Result<core::DipHeader> make_data_header32(
    std::uint32_t name_code, core::NextHeader next = core::NextHeader::kNone,
    std::uint8_t hop_limit = 64);

/// The name code carried by a parsed NDN-over-DIP header (the first
/// F_FIB/F_PIT target field), if any.
[[nodiscard]] std::optional<std::uint32_t> extract_name_code(
    const core::DipHeader& header) noexcept;

}  // namespace dip::ndn
