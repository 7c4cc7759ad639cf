#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "dip/bytes/hex.hpp"
#include "dip/crypto/aes.hpp"
#include "dip/crypto/drkey.hpp"
#include "dip/crypto/even_mansour.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/crypto/random.hpp"
#include "dip/crypto/siphash.hpp"

namespace dip::crypto {
namespace {

Block block_of_hex(std::string_view hex) {
  const auto v = bytes::from_hex(hex);
  EXPECT_TRUE(v.has_value());
  Block b{};
  std::copy(v->begin(), v->end(), b.begin());
  return b;
}

// ---------- AES-128 (FIPS-197 / SP 800-38A known answers) ----------
//
// The known-answer tests run once per implementation (detail::AesImpl);
// the hardware cases skip on a CPU without AES, and scripts/check.sh fails
// when they skip on one that has it.

using detail::AesImpl;

std::string impl_name(const ::testing::TestParamInfo<AesImpl>& info) {
  return info.param == AesImpl::kHardware ? "Hardware" : "Portable";
}

class AesImplTest : public ::testing::TestWithParam<AesImpl> {
 protected:
  void SetUp() override {
    if (GetParam() == AesImpl::kHardware && !detail::hardware_aes_available()) {
      GTEST_SKIP() << "CPU has no AES instructions";
    }
    impl_.emplace(GetParam());
    ASSERT_EQ(detail::current_aes_impl(), GetParam());
  }

 private:
  std::optional<detail::ScopedAesImpl> impl_;
};

TEST_P(AesImplTest, Fips197AppendixBVector) {
  const Block key = block_of_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block plain = block_of_hex("3243f6a8885a308d313198a2e0370734");
  const Block expected = block_of_hex("3925841d02dc09fbdc118597196a0b32");

  Aes128 aes(key);
  // FIPS-197 Appendix A.1: the last round key of this expansion.
  const auto rk = detail::aes128_round_keys(aes);
  EXPECT_TRUE(std::equal(rk.end() - 16, rk.end(),
                         block_of_hex("d014f9a8c9ee2589e13f0cc8b6630ca6").begin()));

  Block state = plain;
  aes.encrypt(state);
  EXPECT_EQ(state, expected);
  Block batch = plain;
  aes.encrypt_blocks(&batch, 1);
  EXPECT_EQ(batch, expected);

  aes.decrypt(state);
  EXPECT_EQ(state, plain);
}

TEST_P(AesImplTest, Sp80038aEcbVectors) {
  const Block key = block_of_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128 aes(key);
  // SP 800-38A F.1.1, all four blocks, one at a time and as one strip.
  std::vector<Block> blocks = {block_of_hex("6bc1bee22e409f96e93d7e117393172a"),
                               block_of_hex("ae2d8a571e03ac9c9eb76fac45af8e51"),
                               block_of_hex("30c81c46a35ce411e5fbc1191a0a52ef"),
                               block_of_hex("f69f2445df4f9b17ad2b417be66c3710")};
  const std::vector<Block> expected = {block_of_hex("3ad77bb40d7a3660a89ecaf32466ef97"),
                                       block_of_hex("f5d3d58503b9699de785895a96fdbaaf"),
                                       block_of_hex("43b1cd7f598ece23881b00e3ed030688"),
                                       block_of_hex("7b0c785e27e8ad3f8223207104725dd4")};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(aes.encrypt_copy(blocks[i]), expected[i]) << "block " << i;
  }
  aes.encrypt_blocks(blocks.data(), blocks.size());
  EXPECT_EQ(blocks, expected);
}

TEST_P(AesImplTest, Rfc4493CmacVectors) {
  const Block key = block_of_hex("2b7e151628aed2a6abf7158809cf4f3c");
  AesCmac cmac(key);

  // Example 1: empty message.
  EXPECT_EQ(cmac.compute({}), block_of_hex("bb1d6929e95937287fa37d129b756746"));

  // Example 2: 16 bytes.
  const auto m16 = bytes::from_hex("6bc1bee22e409f96e93d7e117393172a").value();
  EXPECT_EQ(cmac.compute(m16), block_of_hex("070a16b46b4d4144f79bdd9dd04a287c"));

  // Example 3: 40 bytes.
  const auto m40 = bytes::from_hex(
                       "6bc1bee22e409f96e93d7e117393172a"
                       "ae2d8a571e03ac9c9eb76fac45af8e51"
                       "30c81c46a35ce411")
                       .value();
  EXPECT_EQ(cmac.compute(m40), block_of_hex("dfa66747de9ae63030ca32611497c827"));

  // Example 4: 64 bytes.
  const auto m64 = bytes::from_hex(
                       "6bc1bee22e409f96e93d7e117393172a"
                       "ae2d8a571e03ac9c9eb76fac45af8e51"
                       "30c81c46a35ce411e5fbc1191a0a52ef"
                       "f69f2445df4f9b17ad2b417be66c3710")
                       .value();
  EXPECT_EQ(cmac.compute(m64), block_of_hex("51f0bebf7e3b9d92fc49741779363cfe"));
}

INSTANTIATE_TEST_SUITE_P(Impls, AesImplTest,
                         ::testing::Values(AesImpl::kPortable, AesImpl::kHardware),
                         impl_name);

// ---- hardware vs portable differential (seeded; the portable path is the
// reference). Every case here skips on a CPU without AES.

class AesHardwareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!detail::hardware_aes_available()) GTEST_SKIP() << "CPU has no AES instructions";
  }
};

TEST_F(AesHardwareTest, ChosenByDefault) {
  EXPECT_EQ(detail::current_aes_impl(), AesImpl::kHardware);
}

TEST_F(AesHardwareTest, RoundKeysMatchPortable) {
  Xoshiro256 rng(0xAE5);
  for (int trial = 0; trial < 1000; ++trial) {
    const Block key = rng.block();
    std::optional<Aes128> portable;
    {
      detail::ScopedAesImpl impl(AesImpl::kPortable);
      portable.emplace(key);
    }
    detail::ScopedAesImpl impl(AesImpl::kHardware);
    const Aes128 hardware(key);
    const auto want = detail::aes128_round_keys(*portable);
    const auto got = detail::aes128_round_keys(hardware);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "trial " << trial;
  }
}

TEST_F(AesHardwareTest, EncryptBlocksMatchPortable) {
  Xoshiro256 rng(0xAE6);
  const Aes128 cipher(rng.block());
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 33u}) {
    std::vector<Block> plain(n);
    for (auto& b : plain) b = rng.block();
    auto run = [&](AesImpl which) {
      detail::ScopedAesImpl impl(which);
      std::vector<Block> blocks = plain;
      cipher.encrypt_blocks(blocks.data(), n);
      std::vector<Block> singles = plain;
      for (auto& b : singles) cipher.encrypt(b);
      EXPECT_EQ(blocks, singles) << "n=" << n;
      return blocks;
    };
    EXPECT_EQ(run(AesImpl::kHardware), run(AesImpl::kPortable)) << "n=" << n;
  }
}

TEST_F(AesHardwareTest, TwoEmMacMatchesPortable) {
  Xoshiro256 rng(0xAE7);
  // OPT's 52 covered bytes plus the block-boundary lengths; repeated keys
  // share a key schedule inside two_em_mac_blocks.
  const std::size_t lengths[] = {0, 1, 16, 17, 52, 52, 52, 64, 100};
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<Block> keys;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    std::vector<std::uint8_t> m(lengths[i]);
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next());
    messages.push_back(std::move(m));
    keys.push_back(i == 5 ? keys.back() : rng.block());
  }
  auto run = [&](AesImpl which) {
    detail::ScopedAesImpl impl(which);
    EXPECT_EQ(detail::current_aes_impl(), which);
    std::vector<Block> tags(messages.size());
    std::vector<MacBatchItem> items(messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      items[i] = {keys[i], messages[i], &tags[i]};
    }
    two_em_mac_blocks(items);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(tags[i], Em2Mac(keys[i]).compute(messages[i])) << "message " << i;
    }
    return tags;
  };
  EXPECT_EQ(run(AesImpl::kHardware), run(AesImpl::kPortable));
}

TEST(Aes128, EncryptDecryptInverseRandom) {
  Xoshiro256 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const Block key = rng.block();
    const Block plain = rng.block();
    Aes128 aes(key);
    Block state = plain;
    aes.encrypt(state);
    EXPECT_NE(state, plain);
    aes.decrypt(state);
    EXPECT_EQ(state, plain);
  }
}

TEST(Aes128, KeySensitivity) {
  Block key = block_of_hex("000102030405060708090a0b0c0d0e0f");
  const Block plain{};
  Aes128 a(key);
  key[15] ^= 1;
  Aes128 b(key);
  EXPECT_NE(a.encrypt_copy(plain), b.encrypt_copy(plain));
}

// ---------- 2EM ----------

TEST(EvenMansour2, EncryptDecryptInverse) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const Block key = rng.block();
    EvenMansour2 em(key);
    const Block plain = rng.block();
    Block state = plain;
    em.encrypt(state);
    EXPECT_NE(state, plain);
    em.decrypt(state);
    EXPECT_EQ(state, plain);
  }
}

TEST(EvenMansour2, DistinctKeysDistinctCiphertexts) {
  const Block plain{};
  EvenMansour2 a(block_of_hex("00000000000000000000000000000001"));
  EvenMansour2 b(block_of_hex("00000000000000000000000000000002"));
  EXPECT_NE(a.encrypt_copy(plain), b.encrypt_copy(plain));
}

TEST(EvenMansour2, Deterministic) {
  const Block key = block_of_hex("0123456789abcdef0123456789abcdef");
  EvenMansour2 a(key);
  EvenMansour2 b(key);
  const Block plain = block_of_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(a.encrypt_copy(plain), b.encrypt_copy(plain));
}

// ---------- CMAC (RFC 4493 known answers) ----------

TEST(AesCmac, VerifyAcceptsAndRejects) {
  const Block key = block_of_hex("2b7e151628aed2a6abf7158809cf4f3c");
  AesCmac cmac(key);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  Block tag = cmac.compute(msg);
  EXPECT_TRUE(cmac.verify(msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(cmac.verify(msg, tag));
}

class MacKindTest : public ::testing::TestWithParam<MacKind> {};

// Properties that must hold for both MAC primitives.
TEST_P(MacKindTest, BasicMacProperties) {
  Xoshiro256 rng(7);
  const Block key = rng.block();
  const auto mac = make_mac(GetParam(), key);
  ASSERT_NE(mac, nullptr);

  // Length-extension-style boundaries: every size near block boundaries.
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 52u, 68u}) {
    std::vector<std::uint8_t> msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());

    const Block tag = mac->compute(msg);
    EXPECT_EQ(tag, mac->compute(msg)) << "deterministic at n=" << n;
    EXPECT_TRUE(mac->verify(msg, tag));

    if (n > 0) {
      auto tampered = msg;
      tampered[n / 2] ^= 0x80;
      EXPECT_NE(mac->compute(tampered), tag) << "bit flip must change tag, n=" << n;
    }
  }

  // Distinct keys -> distinct tags.
  const auto other = make_mac(GetParam(), rng.block());
  const std::vector<std::uint8_t> msg = {42};
  EXPECT_NE(mac->compute(msg), other->compute(msg));
}

INSTANTIATE_TEST_SUITE_P(BothPrimitives, MacKindTest,
                         ::testing::Values(MacKind::kEm2, MacKind::kAesCmac));

TEST(Mac, PaddingDomainSeparation) {
  // CMAC property: "0x01" and "0x01 0x80" style confusions must not collide.
  const Block key{};
  Em2Mac mac(key);
  const std::vector<std::uint8_t> a = {0x01};
  const std::vector<std::uint8_t> b = {0x01, 0x80};
  EXPECT_NE(mac.compute(a), mac.compute(b));
}

// ---------- DRKey ----------

TEST(DrKey, DeterministicPerSessionAndSecret) {
  Xoshiro256 rng(5);
  const Block secret = rng.block();
  const SessionId session = rng.block();

  DrKey drkey(secret);
  EXPECT_EQ(drkey.derive(session), drkey.derive(session));

  const SessionId other_session = rng.block();
  EXPECT_NE(drkey.derive(session), drkey.derive(other_session));

  DrKey other_node(rng.block());
  EXPECT_NE(drkey.derive(session), other_node.derive(session));
}

TEST(DrKey, PathKeysMatchPerNodeDerivation) {
  Xoshiro256 rng(6);
  std::vector<Block> secrets{rng.block(), rng.block(), rng.block()};
  const SessionId session = rng.block();

  const auto keys = derive_path_keys(secrets, session);
  ASSERT_EQ(keys.size(), 3u);
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    EXPECT_EQ(keys[i], DrKey(secrets[i]).derive(session));
  }
}

// ---------- SipHash ----------

TEST(SipHash, ReferenceVector) {
  // From the SipHash reference implementation test vectors:
  // key = 000102...0f, input = 00 01 02 ... (len 15 shown here).
  SipKey key{};
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 15; ++i) input.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(siphash24(key, input), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, EmptyInputVector) {
  SipKey key{};
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(siphash24(key, {}), 0x726fdb47dd0e0e31ULL);
}

TEST(SipHash, KeyednessAndSpread) {
  SipKey a{};
  SipKey b{};
  b[0] = 1;
  const std::vector<std::uint8_t> msg = {'d', 'i', 'p'};
  EXPECT_NE(siphash24(a, msg), siphash24(b, msg));
}

// ---------- PRNG ----------

TEST(Xoshiro, DeterministicAndSeedSensitive) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  Xoshiro256 c(43);
  for (int i = 0; i < 10; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());
  }
}

TEST(Xoshiro, BelowRespectsBound) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

// ---------- helpers ----------

TEST(BlockHelpers, ConstantTimeEqual) {
  Block a{};
  Block b{};
  EXPECT_TRUE(block_equal_ct(a, b));
  b[15] = 1;
  EXPECT_FALSE(block_equal_ct(a, b));
}

TEST(BlockHelpers, FromToSpanShorterThanBlock) {
  const std::array<std::uint8_t, 3> shorty = {1, 2, 3};
  const Block b = block_from(shorty);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[2], 3);
  EXPECT_EQ(b[3], 0);

  std::array<std::uint8_t, 5> out{};
  block_to(b, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[4], 0);
}

// ---- multi-block batch APIs: the scalar calls are the oracle. Sizes span
// the Aes128::kMaxLanes strip width (below, exact, remainder, multi-strip)
// so every lockstep tail path is exercised.

TEST(BatchCrypto, Aes128EncryptBlocksMatchesScalar) {
  Xoshiro256 rng(0xBA7C);
  const Aes128 cipher(rng.block());
  const std::size_t sizes[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 33};
  for (const std::size_t n : sizes) {
    std::vector<Block> batch(n);
    for (auto& b : batch) b = rng.block();
    std::vector<Block> scalar = batch;
    cipher.encrypt_blocks(batch.data(), n);
    for (auto& b : scalar) cipher.encrypt(b);
    EXPECT_EQ(batch, scalar) << "n=" << n;
  }
  // Free-function spelling used by the burst pipeline.
  Block one = rng.block();
  Block expect = one;
  cipher.encrypt(expect);
  aes128_encrypt_blocks(cipher, &one, 1);
  EXPECT_EQ(one, expect);
}

TEST(BatchCrypto, EvenMansour2EncryptBlocksMatchesScalar) {
  Xoshiro256 rng(0x2E11);
  const EvenMansour2 cipher(rng.block());
  const std::size_t sizes[] = {0, 1, 3, 8, 9, 16, 31};
  for (const std::size_t n : sizes) {
    std::vector<Block> batch(n);
    for (auto& b : batch) b = rng.block();
    std::vector<Block> scalar = batch;
    cipher.encrypt_blocks(batch.data(), n);
    for (auto& b : scalar) cipher.encrypt(b);
    EXPECT_EQ(batch, scalar) << "n=" << n;
  }
}

TEST(BatchCrypto, EvenMansour2MultiKeyLanesMatchPerKeyScalar) {
  Xoshiro256 rng(0x2E12);
  // Distinct whitening keys per lane — the shared-P1/P2 property the burst
  // MAC wave depends on.
  const std::size_t n = 11;
  std::vector<EvenMansour2> ciphers;
  ciphers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ciphers.emplace_back(rng.block());
  std::vector<const EvenMansour2*> lanes(n);
  for (std::size_t i = 0; i < n; ++i) lanes[i] = &ciphers[i];

  std::vector<Block> batch(n);
  for (auto& b : batch) b = rng.block();
  std::vector<Block> scalar = batch;
  EvenMansour2::encrypt_blocks_multi(batch.data(), lanes.data(), n);
  for (std::size_t i = 0; i < n; ++i) ciphers[i].encrypt(scalar[i]);
  EXPECT_EQ(batch, scalar);
}

TEST(BatchCrypto, TwoEmMacBlocksMatchesEm2MacOracle) {
  Xoshiro256 rng(0x3AC5);
  // Varied lengths (empty, partial, exact, multi-block) and a mix of
  // repeated and distinct keys: repeats hit the shared-key-schedule path,
  // length changes cut the lockstep strips.
  const std::size_t lengths[] = {0, 1, 15, 16, 17, 32, 33, 100, 16, 16};
  const Block shared_key = rng.block();
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<Block> keys;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    std::vector<std::uint8_t> m(lengths[i]);
    for (auto& byte : m) byte = static_cast<std::uint8_t>(rng.next());
    messages.push_back(std::move(m));
    keys.push_back(i % 3 == 0 ? shared_key : rng.block());
  }

  std::vector<Block> tags(messages.size());
  std::vector<MacBatchItem> items(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    items[i] = {keys[i], messages[i], &tags[i]};
  }
  two_em_mac_blocks(items);

  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Block want = Em2Mac(keys[i]).compute(messages[i]);
    EXPECT_EQ(tags[i], want) << "message " << i << " len " << messages[i].size();
  }
}

TEST(BatchCrypto, DrKeyDeriveBlocksMatchesScalarDerive) {
  Xoshiro256 rng(0xD12E);
  const DrKey drkey(rng.block());
  const std::size_t n = 13;
  std::vector<SessionId> sessions(n);
  for (auto& s : sessions) s = rng.block();
  std::vector<Block> batch(n);
  drkey.derive_blocks(sessions.data(), batch.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], drkey.derive(sessions[i])) << "session " << i;
  }
}

}  // namespace
}  // namespace dip::crypto
