// NDN on the PISA switch model: register-array PIT semantics under the
// hardware compromises (single-face cells, hash indexing), plus the
// stateful register primitive itself.
#include <gtest/gtest.h>

#include <set>

#include "dip/core/ip.hpp"
#include "dip/crypto/random.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/pisa/ndn_switch.hpp"
#include "dip/pisa/registers.hpp"

namespace dip::pisa {
namespace {

using Status = NdnSwitchForwarder::Status;

// ---------- register arrays ----------

TEST(RegisterArray, RmwSemantics) {
  Cycles cycles = 0;
  RegisterArray regs(8);

  // exchange writes the new value and returns the old one.
  EXPECT_EQ(regs.exchange(3, 42, cycles), 0u);
  EXPECT_EQ(regs.peek(3), 42u);
  EXPECT_EQ(regs.exchange(3, 7, cycles), 42u);
  EXPECT_EQ(regs.peek(3), 7u);
  EXPECT_EQ(regs.exchange(3, 0, cycles), 7u) << "read-and-clear";
  EXPECT_EQ(regs.peek(3), 0u);
  EXPECT_EQ(regs.peek(2), 0u) << "other cells untouched";

  // Every op charged one stateful-ALU cycle.
  EXPECT_EQ(cycles, 3 * tna::kAluCycles);
}

TEST(RegisterArray, IndexWrapsLikeHardwareMasking) {
  Cycles cycles = 0;
  RegisterArray regs(4);
  regs.exchange(6, 9, cycles);  // 6 % 4 == 2
  EXPECT_EQ(regs.peek(2), 9u);
  regs.clear();
  EXPECT_EQ(regs.peek(2), 0u);
}

// ---------- NDN switch forwarder ----------

struct NdnSwitchFixture : ::testing::Test {
  NdnSwitchFixture() : sw(256) {
    // Route everything under the test name's 8-bit prefix to port 9.
    const std::uint32_t code = ndn::encode_name32(fib::Name::parse("/org/file"));
    sw.add_name_route({fib::ipv4_from_u32(code), 8}, 9);
    interest = ndn::make_interest_header32(code)->serialize();
    data = ndn::make_data_header32(code)->serialize();
  }

  NdnSwitchForwarder sw;
  std::vector<std::uint8_t> interest;
  std::vector<std::uint8_t> data;
};

TEST_F(NdnSwitchFixture, InterestThenDataRoundTrip) {
  const auto up = sw.process(interest, /*ingress=*/3);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->status, Status::kForwardInterest);
  EXPECT_EQ(up->egress.value(), 9u);
  EXPECT_GT(up->cycles, 0u);

  const auto down = sw.process(data, /*ingress=*/9);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->status, Status::kForwardData);
  EXPECT_EQ(down->egress.value(), 3u) << "data returns to the recorded face";

  // Consumed: a second data packet is unsolicited.
  const auto again = sw.process(data, 9);
  EXPECT_EQ(again->status, Status::kDropPitMiss);
}

TEST_F(NdnSwitchFixture, ConcurrentInterestSuppressedSingleFaceCell) {
  EXPECT_EQ(sw.process(interest, 3)->status, Status::kForwardInterest);
  // The hardware PIT cell holds one face: the second interest is
  // suppressed and the original face survives.
  EXPECT_EQ(sw.process(interest, 4)->status, Status::kSuppressed);
  const auto down = sw.process(data, 9);
  EXPECT_EQ(down->egress.value(), 3u) << "first requester wins the cell";
}

TEST_F(NdnSwitchFixture, NoRouteRollsBackPitCell) {
  const std::uint32_t unknown = 0x00FFAA55;  // top byte 0x00: no route
  const auto wire = ndn::make_interest_header32(unknown)->serialize();
  EXPECT_EQ(sw.process(wire, 3)->status, Status::kDropNoRoute);

  // The cell must not be left occupied: a later data packet for that name
  // is a miss, and a retried interest is not suppressed.
  const auto data_wire = ndn::make_data_header32(unknown)->serialize();
  EXPECT_EQ(sw.process(data_wire, 9)->status, Status::kDropPitMiss);
  sw.add_name_route({fib::ipv4_from_u32(unknown), 8}, 2);
  EXPECT_EQ(sw.process(wire, 3)->status, Status::kForwardInterest);
}

TEST_F(NdnSwitchFixture, MalformedPacketsRejected) {
  const std::array<std::uint8_t, 3> junk = {1, 2, 3};
  EXPECT_FALSE(sw.process(junk, 0).has_value());

  // A DIP-32 packet (2 FNs) does not fit the 1-FN NDN parser program.
  const auto dip32 = core::make_dip32_header(fib::ipv4_from_u32(1),
                                             fib::ipv4_from_u32(2));
  EXPECT_FALSE(sw.process(dip32->serialize(), 0).has_value());
}

TEST(NdnSwitch, ManyFlowsInterleavedStaySeparate) {
  NdnSwitchForwarder sw(4096);
  crypto::Xoshiro256 rng(0x5117C4);

  // 64 names with distinct PIT cells (retry on collision to isolate the
  // aliasing compromise from this correctness check).
  std::vector<std::uint32_t> codes;
  std::set<std::size_t> used_cells;
  while (codes.size() < 64) {
    const std::uint32_t code = rng.u32();
    // Recreate the forwarder's cell index (same formula).
    const std::size_t cell =
        (static_cast<std::uint64_t>(code) * 0x9e3779b1u >> 16) % 4096;
    if (!used_cells.insert(cell).second) continue;
    codes.push_back(code);
    sw.add_name_route({fib::ipv4_from_u32(code), 32}, 100 + (code & 0x7));
  }

  // Interleave: all interests (distinct ingress faces), then all data.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto wire = ndn::make_interest_header32(codes[i])->serialize();
    const auto out = sw.process(wire, static_cast<std::uint32_t>(i));
    ASSERT_EQ(out->status, NdnSwitchForwarder::Status::kForwardInterest);
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto wire = ndn::make_data_header32(codes[i])->serialize();
    const auto out = sw.process(wire, 999);
    ASSERT_EQ(out->status, NdnSwitchForwarder::Status::kForwardData);
    EXPECT_EQ(out->egress.value(), i) << "each data finds its own interest's face";
  }
}

// A structurally valid 1-FN packet carrying `fn` over a 4-byte locations
// block holding `loc_word` — parses through the switch's 1-FN program.
std::vector<std::uint8_t> one_fn_packet(core::FnTriple fn, std::uint32_t loc_word) {
  core::DipHeader h;
  h.fns = {fn};
  h.locations = {static_cast<std::uint8_t>(loc_word >> 24),
                 static_cast<std::uint8_t>(loc_word >> 16),
                 static_cast<std::uint8_t>(loc_word >> 8),
                 static_cast<std::uint8_t>(loc_word)};
  return h.serialize();
}

TEST_F(NdnSwitchFixture, NonNdnKeyIsMalformedStatusNotParseError) {
  // The packet parses fine — it is just not an NDN packet. The pre-written
  // switch program has no module bound for the key, so the outcome is a
  // kMalformed *status*, distinct from a parser error.
  const auto wire =
      one_fn_packet(core::FnTriple::router(0, 32, core::OpKey::kMatch32), 0x0A010203);
  const auto out = sw.process(wire, 3);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, Status::kMalformed);
  EXPECT_FALSE(out->egress.has_value());
}

TEST_F(NdnSwitchFixture, HostTagMaskedByThePrewrittenProgram) {
  // The hardware program keys its branch on (op & 0x7fff): a host-tagged
  // F_FIB still runs the interest path — the switch cannot skip host FNs
  // the way Algorithm 1 line 5 does. Documented compromise, pinned here.
  const std::uint32_t code = ndn::encode_name32(fib::Name::parse("/org/file"));
  const auto wire = one_fn_packet(core::FnTriple::host(0, 32, core::OpKey::kFib), code);
  const auto out = sw.process(wire, 6);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, Status::kForwardInterest);
  EXPECT_EQ(out->egress.value(), 9u);
}

TEST(NdnSwitch, DataAliasConsumesCollidingPendingInterest) {
  // The single-cell PIT aliases on the data path too: data for a name that
  // was never requested consumes a colliding pending interest and forwards
  // to that interest's face — then the real data misses.
  NdnSwitchForwarder sw(1);
  sw.add_name_route({fib::ipv4_from_u32(0), 0}, 5);

  const auto interest_a = ndn::make_interest_header32(0x11111111)->serialize();
  const auto data_a = ndn::make_data_header32(0x11111111)->serialize();
  const auto data_b = ndn::make_data_header32(0x22222222)->serialize();

  EXPECT_EQ(sw.process(interest_a, 1)->status, Status::kForwardInterest);
  const auto alias = sw.process(data_b, 9);
  EXPECT_EQ(alias->status, Status::kForwardData);
  EXPECT_EQ(alias->egress.value(), 1u) << "alias stole the pending cell";
  EXPECT_EQ(sw.process(data_a, 9)->status, Status::kDropPitMiss);
}

TEST(NdnSwitch, HashCollisionAliasesTheCompromiseDocumented) {
  // Two names in the same cell: the second interest is suppressed even
  // though the names differ — the documented hardware approximation.
  NdnSwitchForwarder sw(1);  // every name shares the one cell
  sw.add_name_route({fib::ipv4_from_u32(0), 0}, 5);

  const auto a = ndn::make_interest_header32(0x11111111)->serialize();
  const auto b = ndn::make_interest_header32(0x22222222)->serialize();
  EXPECT_EQ(sw.process(a, 1)->status, Status::kForwardInterest);
  EXPECT_EQ(sw.process(b, 2)->status, Status::kSuppressed);
}

}  // namespace
}  // namespace dip::pisa
