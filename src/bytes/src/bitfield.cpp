#include "dip/bytes/bitfield.hpp"

#include <cstring>

namespace dip::bytes {

namespace {

/// Read one bit from a block (bit 0 = MSB of block[0]).
inline bool get_bit(std::span<const std::uint8_t> block, std::uint32_t bit) noexcept {
  return (block[bit / 8] >> (7 - (bit % 8))) & 1u;
}

/// Write one bit into a block (bit 0 = MSB of block[0]).
inline void set_bit(std::span<std::uint8_t> block, std::uint32_t bit, bool v) noexcept {
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (7 - (bit % 8)));
  if (v) {
    block[bit / 8] |= mask;
  } else {
    block[bit / 8] &= static_cast<std::uint8_t>(~mask);
  }
}

}  // namespace

Status extract_bits(std::span<const std::uint8_t> block, const BitRange& range,
                    std::span<std::uint8_t> out) noexcept {
  if (!fits(range, block.size())) return Unexpected{Error::kOutOfRange};
  if (out.size() < range.byte_length()) return Unexpected{Error::kOverflow};

  if (range.byte_aligned()) {
    std::memcpy(out.data(), block.data() + range.bit_offset / 8, range.bit_length / 8);
    return {};
  }

  std::memset(out.data(), 0, range.byte_length());
  for (std::uint32_t i = 0; i < range.bit_length; ++i) {
    set_bit(out, i, get_bit(block, range.bit_offset + i));
  }
  return {};
}

Status inject_bits(std::span<std::uint8_t> block, const BitRange& range,
                   std::span<const std::uint8_t> field) noexcept {
  if (!fits(range, block.size())) return Unexpected{Error::kOutOfRange};
  if (field.size() < range.byte_length()) return Unexpected{Error::kTruncated};

  if (range.byte_aligned()) {
    std::memcpy(block.data() + range.bit_offset / 8, field.data(), range.bit_length / 8);
    return {};
  }

  for (std::uint32_t i = 0; i < range.bit_length; ++i) {
    set_bit(block, range.bit_offset + i, get_bit(field, i));
  }
  return {};
}

Result<std::uint64_t> extract_uint(std::span<const std::uint8_t> block,
                                   const BitRange& range) noexcept {
  if (!fits(range, block.size())) return Err(Error::kOutOfRange);
  if (range.bit_length > 64) return Err(Error::kOutOfRange);

  std::uint64_t v = 0;
  if (range.byte_aligned()) {
    // Whole bytes, as extract_bits does: F_32_match, F_FIB and F_PIT read
    // their 32-bit field through here for every packet.
    for (std::uint32_t i = 0; i < range.bit_length / 8; ++i) {
      v = (v << 8) | block[range.bit_offset / 8 + i];
    }
    return v;
  }
  for (std::uint32_t i = 0; i < range.bit_length; ++i) {
    v = (v << 1) | static_cast<std::uint64_t>(get_bit(block, range.bit_offset + i));
  }
  return v;
}

Status inject_uint(std::span<std::uint8_t> block, const BitRange& range,
                   std::uint64_t value) noexcept {
  if (!fits(range, block.size())) return Unexpected{Error::kOutOfRange};
  if (range.bit_length > 64) return Unexpected{Error::kOutOfRange};

  for (std::uint32_t i = 0; i < range.bit_length; ++i) {
    const bool bit = (value >> (range.bit_length - 1 - i)) & 1u;
    set_bit(block, range.bit_offset + i, bit);
  }
  return {};
}

Result<std::vector<std::uint8_t>> extract_bits_vec(std::span<const std::uint8_t> block,
                                                   const BitRange& range) {
  std::vector<std::uint8_t> out(range.byte_length());
  if (auto st = extract_bits(block, range, out); !st) return Err(st.error());
  return out;
}

}  // namespace dip::bytes
