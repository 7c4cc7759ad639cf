#include <gtest/gtest.h>

#include "dip/bytes/bitfield.hpp"
#include "dip/bytes/cursor.hpp"
#include "dip/bytes/hex.hpp"
#include "dip/bytes/packet.hpp"
#include "dip/crypto/random.hpp"

namespace dip::bytes {
namespace {

// ---------- cursor ----------

TEST(Cursor, ReadWriteRoundTripAllWidths) {
  std::array<std::uint8_t, 15> buf{};
  Writer w(buf);
  ASSERT_TRUE(w.u8(0xAB));
  ASSERT_TRUE(w.u16(0xCDEF));
  ASSERT_TRUE(w.u32(0x01234567));
  ASSERT_TRUE(w.u64(0x89ABCDEF01234567ULL));
  EXPECT_EQ(w.remaining(), 0u);

  Reader r(buf);
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xCDEF);
  EXPECT_EQ(r.u32().value(), 0x01234567u);
  EXPECT_EQ(r.u64().value(), 0x89ABCDEF01234567ULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(Cursor, BigEndianLayout) {
  std::array<std::uint8_t, 4> buf{};
  Writer w(buf);
  ASSERT_TRUE(w.u32(0x11223344));
  EXPECT_EQ(buf[0], 0x11);
  EXPECT_EQ(buf[3], 0x44);
}

TEST(Cursor, ReaderTruncation) {
  std::array<std::uint8_t, 3> buf{};
  Reader r(buf);
  EXPECT_TRUE(r.u16());
  const auto v = r.u16();
  ASSERT_FALSE(v);
  EXPECT_EQ(v.error(), Error::kTruncated);
  // The failed read must not consume anything.
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_TRUE(r.u8());
}

TEST(Cursor, WriterOverflow) {
  std::array<std::uint8_t, 2> buf{};
  Writer w(buf);
  const auto st = w.u32(1);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error(), Error::kOverflow);
  EXPECT_EQ(w.position(), 0u);
}

TEST(Cursor, BorrowedBytesAlias) {
  std::array<std::uint8_t, 5> buf = {1, 2, 3, 4, 5};
  Reader r(buf);
  const auto s = r.bytes(3);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->data(), buf.data());
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Cursor, SkipAndReadInto) {
  std::array<std::uint8_t, 6> buf = {9, 9, 1, 2, 3, 4};
  Reader r(buf);
  ASSERT_TRUE(r.skip(2));
  std::array<std::uint8_t, 4> dst{};
  ASSERT_TRUE(r.read_into(dst));
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[3], 4);
}

// ---------- bitfield ----------

TEST(BitField, ByteAlignedExtractInject) {
  std::array<std::uint8_t, 8> block = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88};
  std::array<std::uint8_t, 2> out{};
  ASSERT_TRUE(extract_bits(block, {16, 16}, out));
  EXPECT_EQ(out[0], 0x33);
  EXPECT_EQ(out[1], 0x44);

  const std::array<std::uint8_t, 2> field = {0xAA, 0xBB};
  ASSERT_TRUE(inject_bits(block, {16, 16}, field));
  EXPECT_EQ(block[2], 0xAA);
  EXPECT_EQ(block[3], 0xBB);
  EXPECT_EQ(block[1], 0x22);  // neighbors untouched
  EXPECT_EQ(block[4], 0x55);
}

TEST(BitField, UnalignedExtract) {
  // block = 0b10110110 0b01000000 ; bits [3,7) = 1011 0110 -> take offset 3 len 4 = 1011?
  // bits: b0=1 b1=0 b2=1 b3=1 b4=0 b5=1 b6=1 b7=0; [3,7) = 1,0,1,1 -> 0xB0 left-justified.
  const std::array<std::uint8_t, 2> block = {0xB6, 0x40};
  std::array<std::uint8_t, 1> out{};
  ASSERT_TRUE(extract_bits(block, {3, 4}, out));
  EXPECT_EQ(out[0], 0xB0);
}

TEST(BitField, UintRoundTrip) {
  std::array<std::uint8_t, 4> block{};
  ASSERT_TRUE(inject_uint(block, {5, 11}, 0x5A5));
  const auto v = extract_uint(block, {5, 11});
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0x5A5u);
  // Outside the range stays zero.
  EXPECT_EQ(extract_uint(block, {0, 5}).value(), 0u);
  EXPECT_EQ(extract_uint(block, {16, 16}).value(), 0u);
}

TEST(BitField, OutOfRangeRejected) {
  std::array<std::uint8_t, 4> block{};
  std::array<std::uint8_t, 8> out{};
  EXPECT_FALSE(extract_bits(block, {24, 16}, out));
  EXPECT_FALSE(extract_bits(block, {0, 0}, out));  // zero-length invalid
  EXPECT_FALSE(inject_uint(block, {30, 4}, 1));
  EXPECT_FALSE(extract_uint(block, {0, 65}));
}

struct BitRangeCase {
  std::uint32_t offset;
  std::uint32_t length;
};

class BitFieldProperty : public ::testing::TestWithParam<BitRangeCase> {};

// Property: inject(extract(x)) is the identity, and extract(inject(v)) == v,
// for aligned and unaligned ranges alike.
TEST_P(BitFieldProperty, ExtractInjectInverse) {
  const auto [offset, length] = GetParam();
  crypto::Xoshiro256 rng(offset * 131 + length);
  std::vector<std::uint8_t> block(32);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());

  const BitRange range{offset, length};
  ASSERT_TRUE(fits(range, block.size()));

  const auto original = block;
  auto field = extract_bits_vec(block, range);
  ASSERT_TRUE(field);
  ASSERT_TRUE(inject_bits(block, range, *field));
  EXPECT_EQ(block, original) << "inject(extract) must be identity";

  // Now inject fresh random data and read it back.
  std::vector<std::uint8_t> fresh(range.byte_length());
  for (auto& b : fresh) b = static_cast<std::uint8_t>(rng.next());
  // Mask trailing bits beyond length in the last byte (they are not stored).
  if (length % 8 != 0) {
    fresh.back() &= static_cast<std::uint8_t>(0xff << (8 - (length % 8)));
  }
  ASSERT_TRUE(inject_bits(block, range, fresh));
  const auto back = extract_bits_vec(block, range);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, fresh);

  // Bits outside the range must be untouched.
  for (std::uint32_t bit = 0; bit < block.size() * 8; ++bit) {
    if (bit >= offset && bit < offset + length) continue;
    const bool was = (original[bit / 8] >> (7 - bit % 8)) & 1;
    const bool is = (block[bit / 8] >> (7 - bit % 8)) & 1;
    EXPECT_EQ(was, is) << "bit " << bit << " changed outside range";
  }

  // extract_uint reads the same bits as a number, aligned or not.
  if (length <= 64) {
    std::uint64_t want = 0;
    for (std::uint32_t bit = offset; bit < offset + length; ++bit) {
      want = (want << 1) | ((block[bit / 8] >> (7 - bit % 8)) & 1u);
    }
    EXPECT_EQ(extract_uint(block, range).value(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, BitFieldProperty,
    ::testing::Values(BitRangeCase{0, 32}, BitRangeCase{0, 128}, BitRangeCase{8, 8},
                      BitRangeCase{3, 4}, BitRangeCase{1, 1}, BitRangeCase{7, 9},
                      BitRangeCase{13, 113}, BitRangeCase{120, 136},
                      BitRangeCase{255, 1}, BitRangeCase{100, 156}));

// ---------- packet ----------

TEST(Packet, PushPopFront) {
  const std::array<std::uint8_t, 4> content = {1, 2, 3, 4};
  Packet p{std::span<const std::uint8_t>(content)};
  EXPECT_EQ(p.size(), 4u);

  auto front = p.push_front(2);
  front[0] = 0xAA;
  front[1] = 0xBB;
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.data()[0], 0xAA);
  EXPECT_EQ(p.data()[2], 1);

  ASSERT_TRUE(p.pop_front(2));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.data()[0], 1);
}

TEST(Packet, HeadroomGrowsWhenExceeded) {
  Packet p(4, /*headroom=*/2);
  p.data()[0] = 7;
  (void)p.push_front(100);  // exceeds the 2-byte headroom
  EXPECT_EQ(p.size(), 104u);
  EXPECT_EQ(p.data()[100], 7);
}

TEST(Packet, PushPopBack) {
  Packet p(2);
  auto tail = p.push_back(3);
  tail[2] = 9;
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.data()[4], 9);
  ASSERT_TRUE(p.pop_back(4));
  EXPECT_EQ(p.size(), 1u);
  EXPECT_FALSE(p.pop_back(2));
}

TEST(Packet, EqualityIsContentBased) {
  const std::array<std::uint8_t, 3> content = {1, 2, 3};
  Packet a{std::span<const std::uint8_t>(content)};
  Packet b{std::span<const std::uint8_t>(content), /*headroom=*/7};
  EXPECT_EQ(a, b);
  b.data()[0] = 9;
  EXPECT_FALSE(a == b);
}

// ---------- hex ----------

TEST(Hex, RoundTrip) {
  const std::array<std::uint8_t, 4> data = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(to_hex(data), "deadbeef");
  const auto back = from_hex("deadbeef");
  ASSERT_TRUE(back);
  EXPECT_TRUE(std::equal(back->begin(), back->end(), data.begin()));
}

TEST(Hex, RejectsBadInput) {
  EXPECT_FALSE(from_hex("abc"));    // odd length
  EXPECT_FALSE(from_hex("zz"));     // bad digit
  EXPECT_TRUE(from_hex(""));        // empty ok
}

TEST(Hex, DumpShape) {
  std::vector<std::uint8_t> data(20, 0x41);  // 'A'
  const std::string dump = hex_dump(data);
  EXPECT_NE(dump.find("000000"), std::string::npos);
  EXPECT_NE(dump.find("|AAAAAAAAAAAAAAAA|"), std::string::npos);
  EXPECT_NE(dump.find("000010"), std::string::npos);
}

// ---------- expected ----------

TEST(Expected, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok);
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> bad = Err(Error::kMalformed);
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.error(), Error::kMalformed);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Expected, VoidSpecialization) {
  Status ok;
  EXPECT_TRUE(ok);
  Status bad = Unexpected{Error::kChecksum};
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.error(), Error::kChecksum);
}

TEST(Expected, ErrorNames) {
  EXPECT_STREQ(to_string(Error::kTruncated), "truncated");
  EXPECT_STREQ(to_string(Error::kChecksum), "checksum");
}

}  // namespace
}  // namespace dip::bytes
