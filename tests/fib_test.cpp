#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>

#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/crypto/random.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/name.hpp"
#include "dip/fib/synth.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/fib/xid_table.hpp"
#include "dip/netsim/topology.hpp"
#include "support/reference_lpm.hpp"

namespace dip::fib {
namespace {

// ---------- addresses ----------

TEST(Address, Ipv4ParseFormat) {
  const auto a = parse_ipv4("192.0.2.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->bytes[0], 192);
  EXPECT_EQ(a->bytes[3], 1);
  EXPECT_EQ(format_ipv4(*a), "192.0.2.1");
  EXPECT_EQ(ipv4_to_u32(*a), 0xC0000201u);
  EXPECT_EQ(ipv4_from_u32(0xC0000201u), *a);
}

TEST(Address, Ipv4ParseRejects) {
  EXPECT_FALSE(parse_ipv4("256.0.0.1"));
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("a.b.c.d"));
  EXPECT_FALSE(parse_ipv4(""));
  EXPECT_FALSE(parse_ipv4("1.2.3.4 "));
}

TEST(Address, Ipv6ParseFormat) {
  const auto a = parse_ipv6("2001:db8::1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->bytes[0], 0x20);
  EXPECT_EQ(a->bytes[1], 0x01);
  EXPECT_EQ(a->bytes[2], 0x0d);
  EXPECT_EQ(a->bytes[3], 0xb8);
  EXPECT_EQ(a->bytes[15], 0x01);
  EXPECT_EQ(format_ipv6(*a), "2001:db8:0:0:0:0:0:1");

  const auto full = parse_ipv6("1:2:3:4:5:6:7:8");
  ASSERT_TRUE(full);
  EXPECT_EQ(full->bytes[14], 0);
  EXPECT_EQ(full->bytes[15], 8);

  const auto all = parse_ipv6("::");
  ASSERT_TRUE(all);
  EXPECT_EQ(*all, Ipv6Addr{});
}

TEST(Address, Ipv6ParseRejects) {
  EXPECT_FALSE(parse_ipv6("1:2:3"));           // too few groups, no gap
  EXPECT_FALSE(parse_ipv6("1::2::3"));         // two gaps
  EXPECT_FALSE(parse_ipv6("12345::"));         // group too wide
  EXPECT_FALSE(parse_ipv6("1:2:3:4:5:6:7:8:9"));
  EXPECT_FALSE(parse_ipv6("g::"));
}

TEST(Address, BitAccess) {
  Ipv4Addr a = ipv4_from_u32(0x80000001);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(31));
  a.set_bit(1, true);
  EXPECT_EQ(ipv4_to_u32(a), 0xC0000001u);
}

TEST(Prefix, NormalizeAndMatch) {
  Ipv4Prefix p{ipv4_from_u32(0xC0000201), 16};
  p.normalize();
  EXPECT_EQ(ipv4_to_u32(p.addr), 0xC0000000u);
  EXPECT_TRUE(p.matches(ipv4_from_u32(0xC000FFFF)));
  EXPECT_FALSE(p.matches(ipv4_from_u32(0xC1000000)));

  const Ipv4Prefix def{{}, 0};
  EXPECT_TRUE(def.matches(ipv4_from_u32(0xFFFFFFFF)));
}

// ---------- LPM tables, shared conformance suite ----------
//
// The typed suites feed the production tree bitmap and the two reference
// tables (tests/support/reference_lpm.hpp) the same inputs.

// lookup_batch must answer exactly as lookup: kNoRoute exactly where lookup
// returns nullopt. The probes run twice in a row each (so batches hold
// duplicates), cut into batches of every size below; the sizes cross the
// tree bitmap's 32-walk chunk. A guard slot past each batch must stay
// untouched.
template <std::size_t W>
void expect_batch_agrees(const TreeBitmap<W>& table, const std::vector<Address<W>>& probes,
                         const char* stage) {
  std::vector<Address<W>> stream;
  for (const auto& a : probes) {
    stream.push_back(a);
    stream.push_back(a);
  }
  constexpr NextHop kGuard = 0xA5A5A5A5u;
  for (const std::size_t size : {0, 1, 2, 31, 32, 33, 100}) {
    std::vector<NextHop> out(size + 1);
    std::size_t first = 0;
    do {
      const std::size_t m = std::min(size, stream.size() - first);
      out[m] = kGuard;
      table.lookup_batch(std::span(stream).subspan(first, m), std::span(out).first(m));
      ASSERT_EQ(out[m], kGuard) << stage << ": batch of " << size << " wrote past its end";
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(out[j], table.lookup(stream[first + j]).value_or(kNoRoute))
            << stage << ": batch of " << size << ", probe " << first + j;
      }
      first += m;
    } while (size != 0 && first < stream.size());
  }
}

/// Names each typed case after its table: LpmEngineTest/TreeBitmap.X.
struct TableName {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, BinaryTrie<32>> || std::is_same_v<T, BinaryTrie<128>>) {
      return "BinaryTrie";
    } else if constexpr (std::is_same_v<T, Dir24>) {
      return "Dir24";
    } else {
      return "TreeBitmap";
    }
  }
};

/// The random workload's seed per table (fixed: a table keeps its stream).
template <typename T>
constexpr std::uint64_t kWorkloadSeed = 103;
template <>
constexpr std::uint64_t kWorkloadSeed<BinaryTrie<32>> = 100;
template <>
constexpr std::uint64_t kWorkloadSeed<Dir24> = 102;

template <typename T>
class LpmEngineTest : public ::testing::Test {
 protected:
  /// The production table: the one with lookup_batch and a generation.
  static constexpr bool kProduction = std::is_same_v<T, TreeBitmap<32>>;
  T table_;
};

using Lpm32Tables = ::testing::Types<BinaryTrie<32>, Dir24, TreeBitmap<32>>;
TYPED_TEST_SUITE(LpmEngineTest, Lpm32Tables, TableName);

TYPED_TEST(LpmEngineTest, EmptyTableMissesEverything) {
  EXPECT_FALSE(this->table_.lookup(ipv4_from_u32(0)));
  EXPECT_FALSE(this->table_.lookup(ipv4_from_u32(0xFFFFFFFF)));
  EXPECT_EQ(this->table_.size(), 0u);
}

TYPED_TEST(LpmEngineTest, LongestPrefixWins) {
  this->table_.insert({ipv4_from_u32(0x0A000000), 8}, 1);    // 10/8
  this->table_.insert({ipv4_from_u32(0x0A010000), 16}, 2);   // 10.1/16
  this->table_.insert({ipv4_from_u32(0x0A010100), 24}, 3);   // 10.1.1/24
  this->table_.insert({ipv4_from_u32(0x0A010101), 32}, 4);   // 10.1.1.1/32

  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A010101)).value(), 4u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A010102)).value(), 3u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A010201)).value(), 2u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A020000)).value(), 1u);
  EXPECT_FALSE(this->table_.lookup(ipv4_from_u32(0x0B000000)));
}

TYPED_TEST(LpmEngineTest, DefaultRoute) {
  this->table_.insert({{}, 0}, 99);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x12345678)).value(), 99u);
  this->table_.insert({ipv4_from_u32(0x12000000), 8}, 7);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x12345678)).value(), 7u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x99999999)).value(), 99u);
}

TYPED_TEST(LpmEngineTest, InsertReplaceRemove) {
  const Prefix<32> p{ipv4_from_u32(0xC0A80000), 16};
  EXPECT_FALSE(this->table_.insert(p, 5));
  EXPECT_EQ(this->table_.size(), 1u);
  EXPECT_EQ(this->table_.insert(p, 6).value(), 5u);  // replace reports old
  EXPECT_EQ(this->table_.size(), 1u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0xC0A80101)).value(), 6u);

  EXPECT_EQ(this->table_.remove(p).value(), 6u);
  EXPECT_EQ(this->table_.size(), 0u);
  EXPECT_FALSE(this->table_.lookup(ipv4_from_u32(0xC0A80101)));
  EXPECT_FALSE(this->table_.remove(p));  // double remove
}

TYPED_TEST(LpmEngineTest, RemoveUncoversShorterPrefix) {
  this->table_.insert({ipv4_from_u32(0x0A000000), 8}, 1);
  this->table_.insert({ipv4_from_u32(0x0A010000), 16}, 2);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A010101)).value(), 2u);
  this->table_.remove({ipv4_from_u32(0x0A010000), 16});
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A010101)).value(), 1u);
}

TYPED_TEST(LpmEngineTest, UnnormalizedPrefixIsNormalized) {
  // Host bits set in the prefix must be ignored.
  this->table_.insert({ipv4_from_u32(0x0A0101FF), 16}, 3);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A01FFFF)).value(), 3u);
  EXPECT_EQ(this->table_.remove({ipv4_from_u32(0x0A010000), 16}).value(), 3u);
}

TYPED_TEST(LpmEngineTest, SlashThirtyOneAndThirtyTwo) {
  this->table_.insert({ipv4_from_u32(0x0A000000), 31}, 1);
  this->table_.insert({ipv4_from_u32(0x0A000002), 32}, 2);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A000000)).value(), 1u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A000001)).value(), 1u);
  EXPECT_EQ(this->table_.lookup(ipv4_from_u32(0x0A000002)).value(), 2u);
  EXPECT_FALSE(this->table_.lookup(ipv4_from_u32(0x0A000003)));
}

// Property: every engine agrees with the BinaryTrie oracle under random
// inserts, removals, and lookups.
TYPED_TEST(LpmEngineTest, AgreesWithOracleUnderRandomWorkload) {
  BinaryTrie<32> oracle;
  crypto::Xoshiro256 rng(kWorkloadSeed<TypeParam>);

  std::vector<Prefix<32>> inserted;
  for (int step = 0; step < 2000; ++step) {
    const auto action = rng.below(10);
    if (action < 6 || inserted.empty()) {
      Prefix<32> p{ipv4_from_u32(rng.u32()),
                   static_cast<std::uint8_t>(rng.below(33))};
      p.normalize();
      const NextHop nh = static_cast<NextHop>(rng.below(1 << 20));
      const auto a = oracle.insert(p, nh);
      const auto b = this->table_.insert(p, nh);
      EXPECT_EQ(a.has_value(), b.has_value());
      if (a && b) EXPECT_EQ(*a, *b);
      inserted.push_back(p);
    } else if (action < 8) {
      const auto& p = inserted[rng.below(inserted.size())];
      const auto a = oracle.remove(p);
      const auto b = this->table_.remove(p);
      EXPECT_EQ(a.has_value(), b.has_value());
      if (a && b) EXPECT_EQ(*a, *b);
    } else {
      // Probe both a random address and a recently inserted one.
      const Ipv4Addr probe = ipv4_from_u32(rng.u32());
      EXPECT_EQ(oracle.lookup(probe), this->table_.lookup(probe));
      const auto& p = inserted[rng.below(inserted.size())];
      EXPECT_EQ(oracle.lookup(p.addr), this->table_.lookup(p.addr));
    }
    EXPECT_EQ(oracle.size(), this->table_.size());
  }

  // The tree bitmap's batched walk after the remove/re-insert churn: every
  // installed prefix's own address and a random one beside it (unrouted
  // ones included), then again with a /32 host route and a default route
  // on top.
  if constexpr (TestFixture::kProduction) {
    auto& table = this->table_;
    std::vector<Ipv4Addr> probes;
    for (const auto& p : inserted) {
      probes.push_back(p.addr);
      probes.push_back(ipv4_from_u32(rng.u32()));
    }
    expect_batch_agrees(table, probes, "after churn");
    table.insert({probes[1], 32}, 4242);
    table.insert({{}, 0}, 4343);
    expect_batch_agrees(table, probes, "with host and default routes");
  }
}

// ---------- IPv6 tables ----------

template <typename T>
class Lpm6EngineTest : public ::testing::Test {
 protected:
  static constexpr bool kProduction = std::is_same_v<T, TreeBitmap<128>>;
  T table_;
};

using Lpm128Tables = ::testing::Types<BinaryTrie<128>, TreeBitmap<128>>;
TYPED_TEST_SUITE(Lpm6EngineTest, Lpm128Tables, TableName);

TYPED_TEST(Lpm6EngineTest, BasicV6Lpm) {
  const auto p48 = parse_ipv6("2001:db8:1::").value();
  const auto p32 = parse_ipv6("2001:db8::").value();
  this->table_.insert({p32, 32}, 1);
  this->table_.insert({p48, 48}, 2);

  EXPECT_EQ(this->table_.lookup(parse_ipv6("2001:db8:1::5").value()).value(), 2u);
  EXPECT_EQ(this->table_.lookup(parse_ipv6("2001:db8:2::5").value()).value(), 1u);
  EXPECT_FALSE(this->table_.lookup(parse_ipv6("2001:db9::1").value()));
}

TYPED_TEST(Lpm6EngineTest, FullLengthHostRoute) {
  const auto host = parse_ipv6("2001:db8::42").value();
  this->table_.insert({host, 128}, 7);
  EXPECT_EQ(this->table_.lookup(host).value(), 7u);
  EXPECT_FALSE(this->table_.lookup(parse_ipv6("2001:db8::43").value()));
}

TYPED_TEST(Lpm6EngineTest, OracleAgreement) {
  BinaryTrie<128> oracle;
  crypto::Xoshiro256 rng(77);
  std::vector<Prefix<128>> inserted;
  std::vector<Ipv6Addr> probes;
  for (int step = 0; step < 500; ++step) {
    Ipv6Addr addr;
    // Cluster prefixes so lookups actually hit.
    addr.bytes[0] = 0x20;
    addr.bytes[1] = static_cast<std::uint8_t>(rng.below(4));
    for (std::size_t i = 2; i < 16; ++i) {
      addr.bytes[i] = static_cast<std::uint8_t>(rng.next());
    }
    Prefix<128> p{addr, static_cast<std::uint8_t>(rng.below(129))};
    p.normalize();
    const NextHop nh = static_cast<NextHop>(rng.below(1000));
    oracle.insert(p, nh);
    this->table_.insert(p, nh);
    inserted.push_back(p);

    Ipv6Addr probe = addr;
    probe.bytes[15] = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(oracle.lookup(probe), this->table_.lookup(probe));
    probes.push_back(addr);
    probes.push_back(probe);
  }
  // The tree bitmap's batched walk over the workload; then with a /128
  // host route; then with every other route removed and re-inserted.
  if constexpr (TestFixture::kProduction) {
    auto& table = this->table_;
    probes.push_back(parse_ipv6("3fff::1").value());  // outside every prefix
    expect_batch_agrees(table, probes, "v6 workload");
    table.insert({probes[3], 128}, 4242);
    expect_batch_agrees(table, probes, "v6 host route");
    for (std::size_t i = 0; i < inserted.size(); i += 2) table.remove(inserted[i]);
    expect_batch_agrees(table, probes, "v6 after removals");
    for (std::size_t i = 0; i < inserted.size(); i += 2) table.insert(inserted[i], 7);
    expect_batch_agrees(table, probes, "v6 after re-insert");
  }
}

TEST(Dir24, RejectsOversizedNextHop) {
  Dir24 table;
  EXPECT_FALSE(table.insert({ipv4_from_u32(0), 8}, Dir24::kMaxNextHop + 1));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(ipv4_from_u32(0)));
}

TEST(Dir24, InsertOverwriteSpansBaseBlocks) {
  // A /14 covers 1024 base-table blocks; overwriting it must report the old
  // next hop and rewrite every block it expanded into.
  Dir24 table;
  const Prefix<32> p{ipv4_from_u32(0x0A000000), 14};
  EXPECT_FALSE(table.insert(p, 5));
  EXPECT_EQ(table.insert(p, 6).value(), 5u);
  EXPECT_EQ(table.size(), 1u);
  // First, middle, and last covered /24 block all see the new hop.
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A000001)).value(), 6u);
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A020001)).value(), 6u);
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A03FFFF)).value(), 6u);
  EXPECT_FALSE(table.lookup(ipv4_from_u32(0x0A040000)));  // beyond the /14
}

TEST(Dir24, OverwriteInsideExtensionBlock) {
  // Prefixes longer than /24 spill the block into a 256-entry extension;
  // overwriting one must update only its sub-range.
  Dir24 table;
  const Prefix<32> p28{ipv4_from_u32(0x0A000010), 28};  // 10.0.0.16/28
  table.insert(p28, 1);
  EXPECT_EQ(table.insert(p28, 2).value(), 1u);
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A000017)).value(), 2u);
  EXPECT_FALSE(table.lookup(ipv4_from_u32(0x0A000020)));  // outside the /28
}

TEST(Dir24, ShadowedPrefixSurvivesRemoval) {
  // A /28 shadows a /26 inside one extension block: removing the /28 must
  // uncover the /26, not leave a hole (the shadow trie is the source of
  // truth for refresh_block).
  Dir24 table;
  table.insert({ipv4_from_u32(0x0A000000), 26}, 1);  // 10.0.0.0/26: .0-.63
  table.insert({ipv4_from_u32(0x0A000010), 28}, 2);  // 10.0.0.16/28: .16-.31
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A000012)).value(), 2u);
  EXPECT_EQ(table.remove({ipv4_from_u32(0x0A000010), 28}).value(), 2u);
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A000012)).value(), 1u);
  EXPECT_EQ(table.lookup(ipv4_from_u32(0x0A000001)).value(), 1u);
}

TEST(Dir24, RemoveFallsBackToNextLongestMatch) {
  // Layered /8, /16, /28 over one address: removals peel down the stack,
  // exercising both the base-table and extension refresh paths.
  Dir24 table;
  const Ipv4Addr probe = ipv4_from_u32(0x0A0A0A05);
  table.insert({ipv4_from_u32(0x0A000000), 8}, 1);
  table.insert({ipv4_from_u32(0x0A0A0000), 16}, 2);
  table.insert({ipv4_from_u32(0x0A0A0A00), 28}, 3);
  EXPECT_EQ(table.lookup(probe).value(), 3u);
  EXPECT_EQ(table.remove({ipv4_from_u32(0x0A0A0A00), 28}).value(), 3u);
  EXPECT_EQ(table.lookup(probe).value(), 2u);
  EXPECT_EQ(table.remove({ipv4_from_u32(0x0A0A0000), 16}).value(), 2u);
  EXPECT_EQ(table.lookup(probe).value(), 1u);
  EXPECT_EQ(table.remove({ipv4_from_u32(0x0A000000), 8}).value(), 1u);
  EXPECT_FALSE(table.lookup(probe));
  EXPECT_EQ(table.size(), 0u);
}

// Property: removal parity across all three tables — install one random
// route set everywhere, then tear it down in a different random order,
// checking agreement at every step (the churn pattern src/ctrl/ drives).
TEST(LpmEngines, RemoveParityAcrossEngines) {
  BinaryTrie<32> trie;
  TreeBitmap<32> tree;
  Dir24 dir24;
  crypto::Xoshiro256 rng(0xD00DF1B);

  std::vector<Prefix<32>> installed;
  for (int i = 0; i < 300; ++i) {
    Prefix<32> p{ipv4_from_u32(rng.u32()), static_cast<std::uint8_t>(rng.below(33))};
    p.normalize();
    const NextHop nh = static_cast<NextHop>(1 + rng.below(1000));
    trie.insert(p, nh);
    tree.insert(p, nh);
    dir24.insert(p, nh);
    installed.push_back(p);
  }
  const auto probe_all = [&](const char* stage) {
    for (int j = 0; j < 64; ++j) {
      const Ipv4Addr addr = ipv4_from_u32(rng.u32());
      const auto want = trie.lookup(addr);
      EXPECT_EQ(tree.lookup(addr), want) << stage << " tree bitmap diverged";
      EXPECT_EQ(dir24.lookup(addr), want) << stage << " dir24 diverged";
    }
  };
  probe_all("after install");

  // Tear down in a shuffled order (duplicate prefixes: later removes no-op
  // identically everywhere).
  for (std::size_t i = installed.size(); i > 1; --i) {
    std::swap(installed[i - 1], installed[rng.below(i)]);
  }
  for (std::size_t i = 0; i < installed.size(); ++i) {
    const auto want = trie.remove(installed[i]);
    EXPECT_EQ(tree.remove(installed[i]), want);
    EXPECT_EQ(dir24.remove(installed[i]), want);
    if (i % 50 == 0) probe_all("mid-teardown");
  }
  probe_all("after teardown");
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(dir24.size(), 0u);
}

// ---------- copies (copy-on-write support for src/ctrl/ snapshots) ----------

TYPED_TEST(LpmEngineTest, CopyIsDeepAndAdoptsGeneration) {
  TypeParam& table = this->table_;
  table.insert({ipv4_from_u32(0x0A000000), 8}, 1);
  table.insert({ipv4_from_u32(0x0A400000), 10}, 2);
  [[maybe_unused]] std::uint64_t gen = 0;
  if constexpr (TestFixture::kProduction) gen = table.generation();

  TypeParam copy = table;
  if constexpr (TestFixture::kProduction) {
    EXPECT_EQ(copy.generation(), gen) << "a copy adopts the source generation";
  }
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.lookup(ipv4_from_u32(0x0A400001)).value(), 2u);

  // Divergence both ways: neither side sees the other's mutations.
  table.remove({ipv4_from_u32(0x0A400000), 10});
  EXPECT_EQ(copy.lookup(ipv4_from_u32(0x0A400001)).value(), 2u);
  copy.insert({ipv4_from_u32(0x0B000000), 8}, 3);
  EXPECT_FALSE(table.lookup(ipv4_from_u32(0x0B000001)));

  // Applied deltas bump the copy past the base — the flow-cache
  // invalidation contract the control plane's snapshot swap relies on.
  if constexpr (TestFixture::kProduction) {
    EXPECT_GT(copy.generation(), gen);
  }
}

TYPED_TEST(Lpm6EngineTest, CopyIsDeepV6) {
  TypeParam& table = this->table_;
  const auto addr = parse_ipv6("2001:db8::1").value();
  table.insert({addr, 32}, 1);
  const TypeParam copy = table;
  EXPECT_EQ(copy.lookup(addr).value(), 1u);
  table.remove({addr, 32});
  EXPECT_FALSE(table.lookup(addr));
  EXPECT_EQ(copy.lookup(addr).value(), 1u) << "a copy must not share nodes";
}

// ---------- synthesized-scale parity (ISSUE 7) ----------
//
// The toy-scale suites above can't see density bugs: run/popcount
// bookkeeping in the tree bitmap and extension-table churn in Dir24 only get
// exercised when prefixes nest and crowd the way a real DFZ table does.
// synth::ipv4_table is the shared generator bench_fib_scale sweeps with, so
// divergence here reproduces with the same seed there.

TEST(LpmEngines, SynthesizedParityAt10kPrefixes) {
  const auto routes = synth::ipv4_table(10'000, 0xD1B);
  BinaryTrie<32> oracle;
  Dir24 dir24;
  TreeBitmap<32> tree;

  // Default route under everything: random probes fall back to it, so the
  // parity check also covers the fallback path end to end.
  oracle.insert({{}, 0}, 9999);
  dir24.insert({{}, 0}, 9999);
  tree.insert({{}, 0}, 9999);

  for (const auto& r : routes) {
    const auto want = oracle.insert(r.prefix, r.nh);
    EXPECT_EQ(dir24.insert(r.prefix, r.nh), want);
    EXPECT_EQ(tree.insert(r.prefix, r.nh), want);
  }
  ASSERT_EQ(dir24.size(), oracle.size());
  ASSERT_EQ(tree.size(), oracle.size());

  const auto probes = synth::probes(routes, 4096, 0xCAFE);
  const auto probe_all = [&](const char* stage) {
    for (const auto& a : probes) {
      const auto want = oracle.lookup(a);
      ASSERT_EQ(dir24.lookup(a), want) << stage << ": dir24 diverged at " << format_ipv4(a);
      ASSERT_EQ(tree.lookup(a), want)
          << stage << ": tree bitmap diverged at " << format_ipv4(a);
    }
    expect_batch_agrees(tree, probes, stage);
  };
  probe_all("after install");

  // Remove a shuffled half — uncovering shadowed less-specifics as we go —
  // then the probes must still agree everywhere.
  crypto::Xoshiro256 rng(0x5EED);
  std::vector<std::size_t> order(routes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    const auto want = oracle.remove(routes[order[i]].prefix);
    EXPECT_EQ(dir24.remove(routes[order[i]].prefix), want);
    EXPECT_EQ(tree.remove(routes[order[i]].prefix), want);
  }
  probe_all("after half teardown");

  // Withdraw the default route: probes outside every remaining prefix flip
  // from 9999 to miss, identically across tables.
  const auto want_def = oracle.remove({{}, 0});
  EXPECT_EQ(dir24.remove({{}, 0}), want_def);
  EXPECT_EQ(tree.remove({{}, 0}), want_def);
  probe_all("after default withdrawal");
}

TEST(Lpm6Engines, SynthesizedParityV6) {
  const auto routes = synth::ipv6_table(3'000, 0x6D1B);
  BinaryTrie<128> oracle;
  TreeBitmap<128> tree;
  for (const auto& r : routes) {
    const auto want = oracle.insert(r.prefix, r.nh);
    EXPECT_EQ(tree.insert(r.prefix, r.nh), want);
  }
  const auto probes = synth::probes(routes, 4096, 0x6CAFE);
  for (const auto& a : probes) {
    const auto want = oracle.lookup(a);
    ASSERT_EQ(tree.lookup(a), want);
  }
  expect_batch_agrees(tree, probes, "synthesized v6");
  tree.insert({probes[0], 128}, 4242);
  tree.insert({{}, 0}, 4343);
  expect_batch_agrees(tree, probes, "synthesized v6, host and default routes");
}

// ---------- tree bitmap structural properties ----------

TEST(TreeBitmap, CopyIsIndependentAtEveryDepth) {
  // A nested chain touching every stride level of the v4 walk: COW bugs
  // that share arena runs between copy and original show up as one side
  // seeing the other's rewrite at *some* depth.
  TreeBitmap<32> table;
  std::vector<Prefix<32>> chain;
  for (std::uint8_t len = 0; len <= 32; len = static_cast<std::uint8_t>(len + 4)) {
    Prefix<32> p{ipv4_from_u32(0x0A0A0A0Au), len};
    p.normalize();
    chain.push_back(p);
    table.insert(p, len + 1u);
  }
  TreeBitmap<32> copy = table;

  // An address whose longest match is exactly `p`: follow the chain for
  // p.length bits, then diverge so no longer chain prefix covers it.
  const auto probe_for = [](const Prefix<32>& p) {
    Ipv4Addr a = ipv4_from_u32(0x0A0A0A0Au);
    if (p.length < 32) a.set_bit(p.length, !a.bit(p.length));
    return a;
  };

  // Rewrite every level in the original; the copy must keep the old hops.
  for (const auto& p : chain) table.insert(p, 500u + p.length);
  for (const auto& p : chain) {
    EXPECT_EQ(copy.lookup(probe_for(p)).value(), p.length + 1u);
    EXPECT_EQ(table.lookup(probe_for(p)).value(), 500u + p.length);
  }
  // Remove odd levels from the copy; the original keeps its rewrites.
  for (std::size_t i = 1; i < chain.size(); i += 2) copy.remove(chain[i]);
  for (const auto& p : chain) {
    EXPECT_EQ(table.lookup(probe_for(p)).value(), 500u + p.length);
  }
}

TEST(TreeBitmap, ArenaReachesSteadyStateUnderFlap) {
  // Run-recycling property: flapping the same route subset must not grow
  // the arenas without bound (the free lists hand runs back by size).
  TreeBitmap<32> table;
  const auto routes = synth::ipv4_table(5'000, 0xF1AB);
  for (const auto& r : routes) table.insert(r.prefix, r.nh);
  // Recycled runs must answer batches exactly as single lookups do.
  const auto probes = synth::probes(routes, 512, 0xF1AC);

  std::size_t after_cycle = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (std::size_t i = 0; i < routes.size(); i += 3) {
      table.remove(routes[i].prefix);
    }
    expect_batch_agrees(table, probes, "mid-flap");
    for (std::size_t i = 0; i < routes.size(); i += 3) {
      table.insert(routes[i].prefix, routes[i].nh);
    }
    expect_batch_agrees(table, probes, "after flap");
    const std::size_t now = table.memory_bytes();
    if (cycle >= 2) {
      EXPECT_EQ(now, after_cycle)
          << "arena grew on flap cycle " << cycle << " — free-list leak";
    }
    after_cycle = now;
  }
  EXPECT_EQ(table.size(), routes.size());
}

TEST(TreeBitmap, MemoryAccountingIsCompressed) {
  // The headline property, on the tables production actually builds: the
  // default environment's FIB and a journal's from-scratch flush must both
  // spend well under the pointer trie's bytes/prefix at synthesized density
  // (exact numbers live in BENCH_fib_scale.json; this guards the order of
  // magnitude).
  const auto routes = synth::ipv4_table(10'000, 0xBEEF);
  BinaryTrie<32> trie;
  for (const auto& r : routes) trie.insert(r.prefix, r.nh);

  std::shared_ptr<Ipv4Lpm> env_fib = netsim::make_basic_env(1).fib32;
  auto tables = std::make_shared<ctrl::ControlTables>();
  ctrl::RouteJournal journal(tables);
  for (const auto& r : routes) {
    env_fib->insert(r.prefix, r.nh);
    journal.add_route32(r.prefix, r.nh);
  }
  journal.flush();
  const Ipv4Lpm* flushed = tables->fib32.read();
  ASSERT_NE(flushed, nullptr);

  const auto bpp = [](const auto& t) {
    return static_cast<double>(t.memory_bytes()) / static_cast<double>(t.size());
  };
  const double trie_bpp = bpp(trie);
  for (const Ipv4Lpm* built : {static_cast<const Ipv4Lpm*>(env_fib.get()), flushed}) {
    ASSERT_EQ(built->size(), trie.size());
    EXPECT_LT(bpp(*built), 32.0) << "the production FIB should be compressed";
    EXPECT_LT(bpp(*built), trie_bpp) << "compression must beat the pointer trie";
    EXPECT_GE(built->lookup_depth(routes[0].prefix.addr), 1u);
  }
}

// ---------- tree bitmap behind the RCU churn path (TSan leg) ----------

std::vector<std::uint8_t> churn_packet(std::uint32_t dst) {
  return core::make_dip32_header(fib::ipv4_from_u32(dst),
                                 fib::ipv4_from_u32(0x7F000001))
      ->serialize();
}

// Mirror of ctrl_test's CtrlRace churn regression with a synthesized
// 10k-route table behind the snapshots, so each flush copies or replays
// onto a realistically sized arena while RouterPool workers forward (scripts/check.sh runs fib_test in the TSan leg for this test).
TEST(TreeBitmapChurn, PoolForwardsDuringTreeBitmapJournalFlush) {
  auto tables = std::make_shared<ctrl::ControlTables>();
  ctrl::RouteJournal journal(tables);
  const auto seed_fib = std::make_unique<Ipv4Lpm>();
  seed_fib->insert({ipv4_from_u32(0x0A000000), 8}, 1);
  for (const auto& r : synth::ipv4_table(10'000, 0x7B)) {
    seed_fib->insert(r.prefix, r.nh);
  }
  journal.seed(seed_fib.get());

  const auto registry = netsim::make_default_registry();
  const auto envf = [&tables](std::size_t worker) {
    core::RouterEnv env;
    env.node_id = static_cast<std::uint32_t>(worker);
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    env.flow_cache = std::make_unique<core::FlowCache>();
    env.default_egress.reset();
    return env;
  };
  core::RouterPoolConfig cfg;
  cfg.workers = 2;

  {
    core::RouterPool pool(registry.get(), envf, cfg);
    const Prefix<32> flap{ipv4_from_u32(0x0A400000), 10};
    std::uint32_t salt = 0;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 16; ++i) {
        pool.submit(churn_packet(0x0A000000 + (salt++ & 0x7fffff)), 0,
                    static_cast<SimTime>(round) * kMicrosecond);
      }
      if (round % 2 == 0) {
        journal.add_route32(flap, 2);
      } else {
        journal.remove_route32(flap);
      }
      journal.flush();
    }
    pool.drain();
    EXPECT_GE(tables->domain.reclaimed_total(), 1u)
        << "grace periods must elapse while traffic flows";
    pool.stop();
  }

  journal.flush();
  EXPECT_EQ(tables->domain.backlog(), 0u);
  const Ipv4Lpm* fib = tables->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(ipv4_from_u32(0x0A000001)), std::uint32_t{1});
  EXPECT_GT(journal.stats().last_flush_ns, 0u)
      << "publishing flushes must record their latency";
}

// ---------- Name ----------

TEST(Name, ParseToString) {
  const Name n = Name::parse("/org/hotnets/prog");
  ASSERT_EQ(n.component_count(), 3u);
  EXPECT_EQ(n.component(0), "org");
  EXPECT_EQ(n.component(2), "prog");
  EXPECT_EQ(n.to_string(), "/org/hotnets/prog");

  EXPECT_EQ(Name::parse("no/leading/slash").component_count(), 3u);
  EXPECT_TRUE(Name::parse("/").empty());
  EXPECT_TRUE(Name::parse("//bad").empty());  // empty component -> rejected
  EXPECT_EQ(Name{}.to_string(), "/");

  EXPECT_EQ(n.prefix(2), Name::parse("/org/hotnets"));
  EXPECT_EQ(n.prefix(9), n);
}

// ---------- XID table ----------

TEST(XidTable, PerTypeNamespaces) {
  XidTable table;
  Xid x;
  x.bytes[0] = 0xAB;
  table.insert(XidType::kAd, x, 1);
  table.insert(XidType::kHid, x, 2);  // same bits, different principal

  EXPECT_EQ(table.lookup(XidType::kAd, x).value(), 1u);
  EXPECT_EQ(table.lookup(XidType::kHid, x).value(), 2u);
  EXPECT_FALSE(table.lookup(XidType::kSid, x));
  EXPECT_EQ(table.size(), 2u);
}

TEST(XidTable, InsertReplaceRemove) {
  XidTable table;
  Xid x;
  x.bytes[19] = 7;
  EXPECT_FALSE(table.insert(XidType::kCid, x, 3));
  EXPECT_EQ(table.insert(XidType::kCid, x, 4).value(), 3u);
  EXPECT_EQ(table.remove(XidType::kCid, x).value(), 4u);
  EXPECT_FALSE(table.remove(XidType::kCid, x));
}

TEST(XidTable, LocalOwnership) {
  XidTable table;
  Xid x;
  x.bytes[5] = 9;
  EXPECT_FALSE(table.is_local(XidType::kSid, x));
  table.set_local(XidType::kSid, x);
  EXPECT_TRUE(table.is_local(XidType::kSid, x));
  EXPECT_FALSE(table.is_local(XidType::kCid, x));
}

}  // namespace
}  // namespace dip::fib
