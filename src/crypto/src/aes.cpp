#include "dip/crypto/aes.hpp"

#include <algorithm>
#include <cstring>

// Two implementations of the same cipher, chosen once per process from the
// CPU: AES-NI rounds and key schedule where the CPU has them (x86 only,
// compiled per function with target("aes") so the library still runs on a
// CPU without AES), and the portable byte-oriented code everywhere else.
// The portable code is also the reference: tests/crypto_test.cpp runs the
// known-answer vectors and a seeded differential against both.
#if defined(__x86_64__) || defined(__i386__)
#define DIP_AES_HARDWARE 1
#include <wmmintrin.h>
#else
#define DIP_AES_HARDWARE 0
#endif

namespace dip::crypto {

namespace {

// FIPS-197 S-box and inverse.
constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr std::array<std::uint8_t, 256> make_inv_sbox() {
  std::array<std::uint8_t, 256> inv{};
  for (std::size_t i = 0; i < 256; ++i) inv[kSbox[i]] = static_cast<std::uint8_t>(i);
  return inv;
}
constexpr std::array<std::uint8_t, 256> kInvSbox = make_inv_sbox();

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                                0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

inline std::uint8_t gmul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// Portable round primitives (state is column-major, s[col*4 + row]).
inline void add_round_key(Block& s, const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

inline void sub_shift(Block& s) noexcept {
  // SubBytes + ShiftRows fused: row r rotates left by r.
  Block t = s;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) s[c * 4 + r] = kSbox[t[((c + r) % 4) * 4 + r]];
  }
}

inline void mix_columns(Block& s) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[c * 4];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

// ---- portable implementation (every CPU; the tests' reference) ----

void portable_expand_key(const Block& key, std::uint8_t* rk) noexcept {
  std::memcpy(rk, key.data(), Aes128::kKeySize);
  for (int i = 4; i < 4 * (Aes128::kRounds + 1); ++i) {
    std::uint8_t t[4];
    std::memcpy(t, rk + 4 * (i - 1), 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int j = 0; j < 4; ++j) rk[4 * i + j] = rk[4 * (i - 4) + j] ^ t[j];
  }
}

void portable_encrypt_blocks(const std::uint8_t* rk, Block* blocks, std::size_t n) noexcept {
  // Round-major over a strip of lanes: the per-lane chains are independent
  // inside each round, so the out-of-order engine overlaps them — the
  // "straight-line interleaved rounds" structure without hardware AES.
  for (std::size_t base = 0; base < n; base += Aes128::kMaxLanes) {
    const std::size_t lanes = std::min(Aes128::kMaxLanes, n - base);
    Block* s = blocks + base;
    for (std::size_t l = 0; l < lanes; ++l) add_round_key(s[l], rk);
    for (int round = 1; round < Aes128::kRounds; ++round) {
      for (std::size_t l = 0; l < lanes; ++l) {
        sub_shift(s[l]);
        mix_columns(s[l]);
        add_round_key(s[l], rk + 16 * round);
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      sub_shift(s[l]);
      add_round_key(s[l], rk + 16 * Aes128::kRounds);
    }
  }
}

#if DIP_AES_HARDWARE
// ---- AES-NI implementation (called only once the CPU check passed) ----

[[gnu::target("aes")]] inline __m128i load(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

[[gnu::target("aes")]] inline void store(std::uint8_t* p, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// The next AES-128 round key: aeskeygenassist puts SubWord(RotWord(w3)) ^
// Rcon in the top word, which is folded into the prefix XOR of w0..w3.
// Rcon is an immediate operand, hence the template.
template <int kRcon>
[[gnu::target("aes")]] inline __m128i next_round_key(__m128i key) noexcept {
  const __m128i assist = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, kRcon), 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

[[gnu::target("aes")]] void hardware_expand_key(const Block& key, std::uint8_t* rk) noexcept {
  __m128i k[Aes128::kRounds + 1];
  k[0] = load(key.data());
  k[1] = next_round_key<0x01>(k[0]);
  k[2] = next_round_key<0x02>(k[1]);
  k[3] = next_round_key<0x04>(k[2]);
  k[4] = next_round_key<0x08>(k[3]);
  k[5] = next_round_key<0x10>(k[4]);
  k[6] = next_round_key<0x20>(k[5]);
  k[7] = next_round_key<0x40>(k[6]);
  k[8] = next_round_key<0x80>(k[7]);
  k[9] = next_round_key<0x1b>(k[8]);
  k[10] = next_round_key<0x36>(k[9]);
  for (int r = 0; r <= Aes128::kRounds; ++r) store(rk + 16 * r, k[r]);
}

[[gnu::target("aes")]] void hardware_encrypt_blocks(const std::uint8_t* rk, Block* blocks,
                                                    std::size_t n) noexcept {
  __m128i keys[Aes128::kRounds + 1];
  for (int r = 0; r <= Aes128::kRounds; ++r) keys[r] = load(rk + 16 * r);
  for (std::size_t base = 0; base < n; base += Aes128::kMaxLanes) {
    const std::size_t lanes = std::min(Aes128::kMaxLanes, n - base);
    __m128i s[Aes128::kMaxLanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      s[l] = _mm_xor_si128(load(blocks[base + l].data()), keys[0]);
    }
    for (int r = 1; r < Aes128::kRounds; ++r) {
      for (std::size_t l = 0; l < lanes; ++l) s[l] = _mm_aesenc_si128(s[l], keys[r]);
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      store(blocks[base + l].data(), _mm_aesenclast_si128(s[l], keys[Aes128::kRounds]));
    }
  }
}
#endif

// One implementation's entry points; Aes128 calls through the chosen one
// (a single block is a strip of one).
struct AesOps {
  detail::AesImpl impl;
  void (*expand_key)(const Block& key, std::uint8_t* rk) noexcept;
  void (*encrypt_blocks)(const std::uint8_t* rk, Block* blocks, std::size_t n) noexcept;
};

constexpr AesOps kPortableOps{detail::AesImpl::kPortable, portable_expand_key,
                              portable_encrypt_blocks};
#if DIP_AES_HARDWARE
constexpr AesOps kHardwareOps{detail::AesImpl::kHardware, hardware_expand_key,
                              hardware_encrypt_blocks};
#endif

// The implementation this CPU runs, decided on first use.
const AesOps& cpu_ops() noexcept {
#if DIP_AES_HARDWARE
  static const AesOps& chosen = []() -> const AesOps& {
    // Aes128 objects can be built during static initialisation (the 2EM
    // permutations are function-local statics), possibly before libgcc
    // has read the CPU model, so initialise it here first.
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") ? kHardwareOps : kPortableOps;
  }();
  return chosen;
#else
  return kPortableOps;
#endif
}

// Set by detail::ScopedAesImpl for the calling thread; null selects the
// CPU's choice.
thread_local const AesOps* t_forced_ops = nullptr;

const AesOps& ops() noexcept {
  if (const AesOps* forced = t_forced_ops) return *forced;
  return cpu_ops();
}

}  // namespace

namespace detail {

bool hardware_aes_available() noexcept {
  return cpu_ops().impl == AesImpl::kHardware;
}

AesImpl current_aes_impl() noexcept { return ops().impl; }

ScopedAesImpl::ScopedAesImpl(AesImpl impl) noexcept : saved_(t_forced_ops) {
  if (impl == AesImpl::kPortable) {
    t_forced_ops = &kPortableOps;
  } else if (hardware_aes_available()) {
    t_forced_ops = &cpu_ops();
  }
}

ScopedAesImpl::~ScopedAesImpl() { t_forced_ops = static_cast<const AesOps*>(saved_); }

std::span<const std::uint8_t> aes128_round_keys(const Aes128& cipher) noexcept {
  return cipher.round_keys_;
}

}  // namespace detail

void Aes128::expand_key(const Block& key) noexcept {
  ops().expand_key(key, round_keys_.data());
}

void Aes128::encrypt(Block& s) const noexcept {
  ops().encrypt_blocks(round_keys_.data(), &s, 1);
}

void Aes128::encrypt_blocks(Block* blocks, std::size_t n) const noexcept {
  ops().encrypt_blocks(round_keys_.data(), blocks, n);
}

void Aes128::decrypt(Block& s) const noexcept {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[16 * round + i];
  };
  auto inv_sub_bytes = [&] {
    for (auto& b : s) b = kInvSbox[b];
  };
  auto inv_shift_rows = [&] {
    Block t = s;
    for (int r = 1; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) s[((c + r) % 4) * 4 + r] = t[c * 4 + r];
    }
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[c * 4];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9));
      col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13));
      col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11));
      col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14));
    }
  };

  add_round_key(kRounds);
  for (int round = kRounds - 1; round > 0; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

bool block_equal_ct(const Block& a, const Block& b) noexcept {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

Block block_from(std::span<const std::uint8_t> data) noexcept {
  Block b{};
  const std::size_t n = std::min(data.size(), b.size());
  std::memcpy(b.data(), data.data(), n);
  return b;
}

void block_to(const Block& b, std::span<std::uint8_t> out) noexcept {
  const std::size_t n = std::min(out.size(), b.size());
  std::memcpy(out.data(), b.data(), n);
}

}  // namespace dip::crypto
