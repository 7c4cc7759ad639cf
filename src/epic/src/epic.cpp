#include "dip/epic/epic.hpp"

#include <cstring>

#include "dip/crypto/drkey.hpp"

namespace dip::epic {

namespace {

constexpr std::size_t kDataHashOffset = 0;
constexpr std::size_t kSessionOffset = 16;
constexpr std::size_t kTimestampOffset = 32;
constexpr std::size_t kHopIndexOffset = 36;
constexpr std::size_t kHopCountOffset = 37;
constexpr std::size_t kHvfArrayOffset = kFixedBytes;

// Domain separators for the two tag flavors.
constexpr std::uint8_t kTagValidate = 0x00;
constexpr std::uint8_t kTagProof = 0x50;  // "P0T"

/// trunc4(MAC_{key}(DataHash|SessionID|Timestamp|hop|flavor)).
std::array<std::uint8_t, kHvfBytes> hop_tag(const crypto::Block& key,
                                            std::span<const std::uint8_t> block,
                                            std::uint8_t hop, std::uint8_t flavor,
                                            crypto::MacKind kind) {
  std::array<std::uint8_t, 38> input{};
  std::memcpy(input.data(), block.data(), 36);  // hash | session | ts
  input[36] = hop;
  input[37] = flavor;
  // Stack-constructed MAC: F_hvf runs twice per packet on the router fast
  // path, so the make_mac heap allocation is avoided.
  const crypto::Block mac = kind == crypto::MacKind::kEm2
                                ? crypto::Em2Mac(key).compute(input)
                                : crypto::AesCmac(key).compute(input);
  std::array<std::uint8_t, kHvfBytes> out{};
  std::memcpy(out.data(), mac.data(), kHvfBytes);
  return out;
}

bool tag_equal(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) noexcept {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kHvfBytes; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace

bytes::Status HvfOp::execute(core::OpContext& ctx) {
  auto block = ctx.target_bytes();
  if (block.size() < kFixedBytes) return bytes::Unexpected{bytes::Error::kMalformed};

  const std::uint8_t hop_index = block[kHopIndexOffset];
  const std::uint8_t hop_count = block[kHopCountOffset];
  if (hop_count > kMaxHops || block.size() < block_bytes(hop_count)) {
    return bytes::Unexpected{bytes::Error::kMalformed};
  }
  if (hop_index >= hop_count) {
    // More routers on the path than hop fields: the source lied about the
    // path length — EPIC drops.
    ctx.result->drop(core::DropReason::kAuthFailed);
    return {};
  }

  // Derive this hop's key from the session id, exactly as OPT's F_parm.
  const crypto::SessionId sid =
      crypto::block_from(block.subspan(kSessionOffset, 16));
  const crypto::Block key = crypto::DrKey(ctx.env->node_secret).derive(sid);

  auto hvf = block.subspan(kHvfArrayOffset + hop_index * kHvfBytes, kHvfBytes);
  const auto expected = hop_tag(key, block, hop_index, kTagValidate, ctx.env->mac_kind);
  if (!tag_equal(hvf, expected)) {
    // THE EPIC property: forged traffic dies here, not at the destination.
    ctx.result->drop(core::DropReason::kAuthFailed);
    return {};
  }

  const auto proof = hop_tag(key, block, hop_index, kTagProof, ctx.env->mac_kind);
  std::memcpy(hvf.data(), proof.data(), kHvfBytes);
  block[kHopIndexOffset] = static_cast<std::uint8_t>(hop_index + 1);
  return {};
}

std::vector<std::uint8_t> make_source_block(const opt::Session& session,
                                            std::span<const std::uint8_t> payload,
                                            std::uint32_t timestamp) {
  const std::size_t hops = std::min(session.router_keys.size(), kMaxHops);
  std::vector<std::uint8_t> block(block_bytes(hops));

  const crypto::Block dh = opt::data_hash(session.id, payload, session.mac_kind);
  std::memcpy(block.data() + kDataHashOffset, dh.data(), 16);
  std::memcpy(block.data() + kSessionOffset, session.id.data(), 16);
  for (int i = 0; i < 4; ++i) {
    block[kTimestampOffset + i] = static_cast<std::uint8_t>(timestamp >> (8 * (3 - i)));
  }
  block[kHopIndexOffset] = 0;
  block[kHopCountOffset] = static_cast<std::uint8_t>(hops);

  for (std::size_t i = 0; i < hops; ++i) {
    const auto tag = hop_tag(session.router_keys[i], block,
                             static_cast<std::uint8_t>(i), kTagValidate,
                             session.mac_kind);
    std::memcpy(block.data() + kHvfArrayOffset + i * kHvfBytes, tag.data(), kHvfBytes);
  }
  return block;
}

bytes::Result<core::DipHeader> make_epic_header(const opt::Session& session,
                                                std::span<const std::uint8_t> payload,
                                                std::uint32_t timestamp,
                                                core::NextHeader next,
                                                std::uint8_t hop_limit) {
  const auto block = make_source_block(session, payload, timestamp);
  core::HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  b.add_router_fn(core::OpKey::kHvf, block);
  return b.build();
}

VerifyResult verify_packet(const opt::Session& session,
                           std::span<const std::uint8_t> locations,
                           std::span<const std::uint8_t> payload,
                           std::size_t block_offset) {
  if (locations.size() < block_offset + kFixedBytes) return VerifyResult::kMalformed;
  const auto block = locations.subspan(block_offset);
  const std::uint8_t hop_index = block[kHopIndexOffset];
  const std::uint8_t hop_count = block[kHopCountOffset];
  if (hop_count > kMaxHops || block.size() < block_bytes(hop_count)) {
    return VerifyResult::kMalformed;
  }

  if (std::memcmp(block.data() + kSessionOffset, session.id.data(), 16) != 0) {
    return VerifyResult::kBadSession;
  }
  const crypto::Block dh = opt::data_hash(session.id, payload, session.mac_kind);
  if (!crypto::block_equal_ct(
          dh, crypto::block_from(block.subspan(kDataHashOffset, 16)))) {
    return VerifyResult::kBadDataHash;
  }
  if (hop_index != hop_count ||
      hop_count != std::min(session.router_keys.size(), kMaxHops)) {
    return VerifyResult::kIncompletePath;
  }

  for (std::size_t i = 0; i < hop_count; ++i) {
    const auto expected = hop_tag(session.router_keys[i], block,
                                  static_cast<std::uint8_t>(i), kTagProof,
                                  session.mac_kind);
    if (!tag_equal(block.subspan(kHvfArrayOffset + i * kHvfBytes, kHvfBytes),
                   expected)) {
      return VerifyResult::kBadProof;
    }
  }
  return VerifyResult::kOk;
}

}  // namespace dip::epic
