// AES-128 block cipher (FIPS-197).
//
// Used three ways in this repo:
//  * as the public permutation inside the 2EM Even–Mansour construction the
//    paper uses for F_MAC (§4.1, [2]);
//  * as the PRF for DRKey-style per-router key derivation in OPT;
//  * as the block cipher under AES-CMAC, the ablation baseline the paper
//    rejected for Tofino (it would need packet resubmission).
//
// Two implementations sit behind one class, chosen once per process from
// the CPU: where the CPU has AES rounds (x86 AES-NI), the key schedule and
// both encrypt paths run on them, which is constant-time. Elsewhere a
// byte-oriented portable implementation runs (constant code size, no large
// T-tables); it is also the reference the tests compare the hardware path
// against. The portable path is NOT hardened against cache-timing side
// channels, and decrypt() always takes it; do not reuse outside the
// simulator.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dip::crypto {

/// 128-bit block used throughout the crypto substrate.
using Block = std::array<std::uint8_t, 16>;

class Aes128;

namespace detail {

/// Aes128's round keys (11 x 16 bytes, FIPS-197 order).
[[nodiscard]] std::span<const std::uint8_t> aes128_round_keys(const Aes128& cipher) noexcept;

}  // namespace detail

/// AES-128: 10 rounds, 16-byte key, 16-byte block.
class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  explicit Aes128(const Block& key) noexcept { expand_key(key); }

  /// Encrypt one block in place.
  void encrypt(Block& block) const noexcept;

  /// Encrypt `n` blocks in place under this key, up to kMaxLanes in flight:
  /// every round is applied across the whole strip before the next round
  /// starts, so the per-block work interleaves (straight-line ILP on the
  /// portable path, one hardware AES round per lane on an AES CPU).
  /// Bitwise identical to calling encrypt() n times.
  void encrypt_blocks(Block* blocks, std::size_t n) const noexcept;

  /// Decrypt one block in place (portable rounds on every CPU).
  void decrypt(Block& block) const noexcept;

  /// Convenience: encrypt a copy.
  [[nodiscard]] Block encrypt_copy(Block block) const noexcept {
    encrypt(block);
    return block;
  }

  /// Multi-block strip width: how many blocks encrypt_blocks keeps in
  /// flight per pass (8 covers the burst MAC batch and the AES-NI pipeline
  /// depth without spilling the portable path's working set).
  static constexpr std::size_t kMaxLanes = 8;

 private:
  friend std::span<const std::uint8_t> detail::aes128_round_keys(const Aes128&) noexcept;

  void expand_key(const Block& key) noexcept;

  // Round keys: (kRounds + 1) * 16 bytes.
  std::array<std::uint8_t, (kRounds + 1) * kBlockSize> round_keys_{};
};

namespace detail {

/// The two AES-128 implementations behind Aes128. Both produce identical
/// round keys and ciphertexts.
enum class AesImpl : std::uint8_t {
  kPortable,  ///< byte-oriented C++, every CPU
  kHardware,  ///< AES-NI rounds and key schedule, x86 CPUs with AES
};

/// True iff this CPU can run AesImpl::kHardware. Aes128 then uses it.
[[nodiscard]] bool hardware_aes_available() noexcept;

/// The implementation Aes128 runs in the calling thread.
[[nodiscard]] AesImpl current_aes_impl() noexcept;

/// Test entry point: while alive, every Aes128 the calling thread builds
/// or runs uses `impl`, so the tests can drive the real 2EM, CMAC and
/// DRKey code through each implementation. Requesting kHardware on a CPU
/// without AES changes nothing (check current_aes_impl()).
class ScopedAesImpl {
 public:
  explicit ScopedAesImpl(AesImpl impl) noexcept;
  ~ScopedAesImpl();
  ScopedAesImpl(const ScopedAesImpl&) = delete;
  ScopedAesImpl& operator=(const ScopedAesImpl&) = delete;

 private:
  const void* saved_;
};

}  // namespace detail

/// Free-function spelling of Aes128::encrypt_blocks (the burst-pipeline
/// entry point; see DESIGN.md §10).
inline void aes128_encrypt_blocks(const Aes128& cipher, Block* blocks,
                                  std::size_t n) noexcept {
  cipher.encrypt_blocks(blocks, n);
}

/// XOR two blocks: a ^= b.
inline void block_xor(Block& a, const Block& b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
}

/// Constant-time block comparison (for tag verification).
[[nodiscard]] bool block_equal_ct(const Block& a, const Block& b) noexcept;

/// Load/store helpers between spans and Blocks.
[[nodiscard]] Block block_from(std::span<const std::uint8_t> data) noexcept;
void block_to(const Block& b, std::span<std::uint8_t> out) noexcept;

}  // namespace dip::crypto
