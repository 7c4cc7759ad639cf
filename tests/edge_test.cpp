// Edge cases across modules: paths the main suites do not reach — empty
// inputs, boundary sizes, structural collapses, and rollback paths.
#include <gtest/gtest.h>

#include "dip/bootstrap/capability.hpp"
#include "dip/bytes/hex.hpp"
#include "dip/bytes/packet.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/ip.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/netfence/netfence.hpp"
#include "dip/netsim/event_loop.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/xia/dag.hpp"
#include "support/reference_lpm.hpp"

namespace dip {
namespace {

// ---------- bytes ----------

TEST(Edge, PacketCloneIsDeepAndPopsBound) {
  const std::array<std::uint8_t, 3> content = {1, 2, 3};
  bytes::Packet a{std::span<const std::uint8_t>(content)};
  bytes::Packet b = a.clone();
  a.data()[0] = 9;
  EXPECT_EQ(b.data()[0], 1) << "clone must not alias";

  EXPECT_FALSE(a.pop_front(10));
  EXPECT_FALSE(a.pop_back(10));
  EXPECT_TRUE(a.pop_front(3));
  EXPECT_TRUE(a.empty());
}

TEST(Edge, HexEmptyInputs) {
  EXPECT_EQ(bytes::to_hex({}), "");
  EXPECT_EQ(bytes::hex_dump({}), "");
  const auto empty = bytes::from_hex("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// ---------- event loop ----------

TEST(Edge, EmptyLoopWithFiniteDeadlineAdvancesClock) {
  netsim::EventLoop loop;
  EXPECT_EQ(loop.run(500), 0u);
  EXPECT_EQ(loop.now(), 500u) << "idle time passes up to the deadline";
  // Infinite deadline on an empty loop must NOT advance to infinity.
  netsim::EventLoop loop2;
  EXPECT_EQ(loop2.run(), 0u);
  EXPECT_EQ(loop2.now(), 0u);
}

// ---------- tree bitmap pruning along a nested chain ----------

TEST(Edge, TreeBitmapMiddleRemovalPrunesNestedChain) {
  fib::TreeBitmap<32> trie;
  // Nested chain: /8 -> /16 -> /24, then remove the middle.
  trie.insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  trie.insert({fib::ipv4_from_u32(0x0A010000), 16}, 2);
  trie.insert({fib::ipv4_from_u32(0x0A010100), 24}, 3);
  EXPECT_EQ(trie.remove({fib::ipv4_from_u32(0x0A010000), 16}).value(), 2u);
  EXPECT_EQ(trie.size(), 2u);
  // Both remaining routes still resolve through the pruned structure.
  EXPECT_EQ(trie.lookup(fib::ipv4_from_u32(0x0A010105)).value(), 3u);
  EXPECT_EQ(trie.lookup(fib::ipv4_from_u32(0x0A020000)).value(), 1u);
  // Removing siblings down to empty must leave a usable trie.
  trie.remove({fib::ipv4_from_u32(0x0A010100), 24});
  trie.remove({fib::ipv4_from_u32(0x0A000000), 8});
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_FALSE(trie.lookup(fib::ipv4_from_u32(0x0A010105)));
  trie.insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  EXPECT_EQ(trie.lookup(fib::ipv4_from_u32(0x0A123456)).value(), 7u);
}

// ---------- DIR-24-8 extension recompute on removal ----------

TEST(Edge, Dir24RemoveInsideExtensionBlockRecomputes) {
  fib::Dir24 table;
  // /8 covers the block; /26 spills the block into an extension table.
  table.insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  table.insert({fib::ipv4_from_u32(0x0A000040), 26}, 2);
  EXPECT_EQ(table.lookup(fib::ipv4_from_u32(0x0A000041)).value(), 2u);
  EXPECT_EQ(table.lookup(fib::ipv4_from_u32(0x0A000001)).value(), 1u);

  // Removing the /26 must re-derive every sub-entry from the shadow trie.
  EXPECT_EQ(table.remove({fib::ipv4_from_u32(0x0A000040), 26}).value(), 2u);
  EXPECT_EQ(table.lookup(fib::ipv4_from_u32(0x0A000041)).value(), 1u);

  // And removing the /8 empties the (still extended) block completely.
  table.remove({fib::ipv4_from_u32(0x0A000000), 8});
  EXPECT_FALSE(table.lookup(fib::ipv4_from_u32(0x0A000041)));
  EXPECT_EQ(table.size(), 0u);
}

// ---------- capability parsing rejects duplicates ----------

TEST(Edge, CapabilitySetParseRejectsDuplicateKeys) {
  // count=2, both keys = 0x0004: canonical form violated.
  const std::vector<std::uint8_t> dupes = {2, 0x00, 0x04, 0x00, 0x04};
  const auto out = bootstrap::CapabilitySet::parse(dupes);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error(), bytes::Error::kMalformed);
}

// ---------- registry enumeration ----------

TEST(Edge, RegistryKeysEnumerate) {
  core::OpRegistry registry;
  registry.add(std::make_unique<core::Match32Op>());
  registry.add(std::make_unique<core::SourceOp>());
  auto keys = registry.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<core::OpKey>{core::OpKey::kMatch32,
                                            core::OpKey::kSource}));
  EXPECT_EQ(registry.size(), 2u);
}

// ---------- DAG serialization bounds ----------

TEST(Edge, DagSerializeRejectsShortBuffer) {
  const auto dag = xia::make_service_dag(xia::xid_from_label("a"),
                                         xia::xid_from_label("b"),
                                         fib::XidType::kSid,
                                         xia::xid_from_label("c"));
  std::vector<std::uint8_t> tiny(dag.wire_size() - 1);
  const auto st = dag.serialize(xia::Dag::kSourceCursor, tiny);
  ASSERT_FALSE(st);
  EXPECT_EQ(st.error(), bytes::Error::kOverflow);

  // edges_of with a bogus cursor is empty, not UB.
  EXPECT_TRUE(dag.edges_of(42).empty());
}

// ---------- fn_info completeness for the extension keys ----------

TEST(Edge, ExtensionFnInfoComplete) {
  using core::OpKey;
  EXPECT_TRUE(core::fn_info(OpKey::kHvf)->requires_full_path);
  EXPECT_FALSE(core::fn_info(OpKey::kCc)->requires_full_path);
  EXPECT_FALSE(core::fn_info(OpKey::kDps)->requires_full_path);
  EXPECT_EQ(core::op_key_name(OpKey::kHvf), "F_hvf");
  EXPECT_EQ(core::op_key_name(OpKey::kCc), "F_cc");
  EXPECT_EQ(core::op_key_name(OpKey::kDps), "F_dps");
}

// ---------- congestion monitor fair-share arithmetic ----------

TEST(Edge, AdvisedRateSplitsCapacityAcrossWindowPackets) {
  netfence::CongestionMonitor::Config config;
  config.capacity_bytes_per_sec = 1000;
  config.window = 1 * kMillisecond;
  netfence::CongestionMonitor monitor(config);
  // Four arrivals in the current window: advice = capacity / 4.
  for (int i = 0; i < 4; ++i) monitor.on_arrival(10, 0);
  EXPECT_EQ(monitor.advised_rate(), 250u);
}

// ---------- Zipf exponent 0 degenerates to uniform ----------

TEST(Edge, ZipfExponentZeroIsUniform) {
  netsim::ZipfSampler zipf(10, 0.0, 3);
  std::array<int, 10> counts{};
  for (int i = 0; i < 10000; ++i) ++counts[zipf.sample()];
  for (const int c : counts) {
    EXPECT_NEAR(c, 1000, 200) << "uniform within 5 sigma-ish";
  }
}

// ---------- builder/source edge: 128-bit source located correctly ----------

TEST(Edge, FindSourceFieldPrefersFirstSourceTriple) {
  core::HeaderBuilder b;
  std::array<std::uint8_t, 4> f{};
  b.add_router_fn(core::OpKey::kSource, f);
  b.add_router_fn(core::OpKey::kSource, f);
  const auto h = b.build();
  const auto range = core::find_source_field(h->fns);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->bit_offset, 0u) << "first F_source wins";
}

}  // namespace
}  // namespace dip
