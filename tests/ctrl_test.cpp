// Control-plane subsystem (ISSUE 5): RCU snapshot tables with QSBR
// grace-period reclamation, the coalescing RouteJournal, and the netsim
// ControlPlane driving convergence under link failure.
//
// The CtrlRace suite is the shared-FIB race regression: before src/ctrl/,
// mutating a shared fib32 while RouterPool workers forwarded was a data
// race TSan flagged; routed through SnapshotTable publishes it must be
// clean (scripts/check.sh runs this binary in the TSan leg).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router_pool.hpp"
#include "dip/ctrl/control_plane.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/ctrl/snapshot.hpp"
#include "dip/crypto/random.hpp"
#include "dip/fib/address.hpp"
#include "dip/mesh/control.hpp"
#include "dip/netsim/topology.hpp"
#include "support/reference_lpm.hpp"

namespace dip {
namespace {

using ctrl::ControlTables;
using ctrl::QsbrDomain;
using ctrl::ReaderSlot;
using ctrl::RouteJournal;
using ctrl::SnapshotTable;

std::vector<std::uint8_t> dip32_packet(std::uint32_t dst) {
  return core::make_dip32_header(fib::ipv4_from_u32(dst),
                                 fib::ipv4_from_u32(0x7F000001))
      ->serialize();
}

// ---------------------------------------------------------------------------
// QSBR snapshot layer
// ---------------------------------------------------------------------------

TEST(Qsbr, SnapshotPublishAndRead) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  EXPECT_EQ(table.read(), nullptr);

  table.publish(std::make_shared<const int>(1), domain);
  ASSERT_NE(table.read(), nullptr);
  EXPECT_EQ(*table.read(), 1);
  EXPECT_EQ(domain.backlog(), 0u) << "first publish retires nothing";

  table.publish(std::make_shared<const int>(2), domain);
  EXPECT_EQ(*table.read(), 2);
  EXPECT_EQ(domain.backlog(), 1u) << "old snapshot awaits its grace period";
}

TEST(Qsbr, GracePeriodBlocksReclaimUntilReaderQuiesces) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);  // join the protocol at the current version

  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);  // retires #1
  table.publish(std::make_shared<const int>(3), domain);  // retires #2

  // The reader announced a version older than both retirement tags: nothing
  // may be freed while it could still hold those pointers.
  EXPECT_EQ(domain.try_reclaim(), 0u);
  EXPECT_EQ(domain.backlog(), 2u);

  domain.quiesce(reader);  // burst boundary: all raw pointers dropped
  EXPECT_EQ(domain.try_reclaim(), 2u);
  EXPECT_EQ(domain.backlog(), 0u);
  EXPECT_EQ(domain.reclaimed_total(), 2u);
}

TEST(Qsbr, ParkedReaderNeverStallsReclamation) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);

  table.publish(std::make_shared<const int>(1), domain);
  QsbrDomain::park(reader);  // blocking with no packets in flight
  table.publish(std::make_shared<const int>(2), domain);
  EXPECT_EQ(domain.try_reclaim(), 1u)
      << "a parked reader holds nothing and must not block the grace period";

  // Waking re-joins at the current version: later retirees wait for it again.
  domain.resume(reader);
  table.publish(std::make_shared<const int>(3), domain);
  EXPECT_EQ(domain.try_reclaim(), 0u);
  domain.quiesce(reader);
  EXPECT_EQ(domain.try_reclaim(), 1u);
}

TEST(Qsbr, DeadReaderIsIgnored) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  ctrl::ReaderHandle reader = domain.register_reader();
  domain.resume(reader);
  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);
  reader.reset();  // worker torn down without a final quiesce
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(domain.backlog(), 0u);
}

TEST(Qsbr, GracePeriodIsPerReaderMinimum) {
  QsbrDomain domain;
  SnapshotTable<int> table;
  const ctrl::ReaderHandle fast = domain.register_reader();
  const ctrl::ReaderHandle slow = domain.register_reader();
  domain.resume(fast);
  domain.resume(slow);

  table.publish(std::make_shared<const int>(1), domain);
  table.publish(std::make_shared<const int>(2), domain);
  domain.quiesce(fast);  // only one of two readers passed the boundary
  EXPECT_EQ(domain.try_reclaim(), 0u) << "slowest reader bounds the horizon";
  domain.quiesce(slow);
  EXPECT_EQ(domain.try_reclaim(), 1u);
}

// ---------------------------------------------------------------------------
// RouteJournal
// ---------------------------------------------------------------------------

TEST(Journal, CoalescesFlapsPerKey) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const fib::Prefix<32> p{fib::ipv4_from_u32(0x0A000000), 8};

  // Ten flaps of one prefix between publishes collapse to the final state.
  for (int i = 0; i < 5; ++i) {
    journal.add_route32(p, 1);
    journal.remove_route32(p);
  }
  journal.add_route32(p, 7);
  EXPECT_EQ(journal.pending(), 1u);
  EXPECT_EQ(journal.stats().ops_enqueued, 11u);
  EXPECT_EQ(journal.stats().ops_coalesced, 10u);

  EXPECT_EQ(journal.flush(), 1u);
  EXPECT_EQ(journal.stats().updates_applied, 1u) << "only the coalesced delta applies";
  const fib::Ipv4Lpm* fib = tables->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(fib::ipv4_from_u32(0x0A123456)), std::uint32_t{7});
}

TEST(Journal, FlushPublishesOnlyDirtyTables) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  EXPECT_EQ(journal.flush(), 0u);

  journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.add_xid_route(fib::XidType::kAd, fib::Xid{}, 2);
  EXPECT_EQ(journal.flush(), 2u) << "fib32 and xid dirty; fib128 untouched";
  EXPECT_EQ(tables->fib128.read(), nullptr);
  EXPECT_EQ(journal.flush(), 0u) << "nothing pending after a flush";
}

// assign_routes32 is the one route-set diff (ControlPlane and the mesh's
// publish_routes both assign through it): it enqueues new and changed
// prefixes and withdraws the ones the previous set had, whatever order the
// set arrives in, and leaves routes enqueued directly alone.
TEST(Journal, AssignRoutesEnqueuesOnlyTheDifference) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const auto prefix = [](std::uint32_t third_octet) {
    return fib::Prefix<32>{fib::ipv4_from_u32(0x0A000000 | (third_octet << 8)), 24};
  };
  const auto route = [&](std::uint32_t third_octet) {
    const fib::Ipv4Addr host = fib::ipv4_from_u32(0x0A000001 | (third_octet << 8));
    return tables->fib32.read()->lookup(host);
  };
  journal.add_route32(prefix(9), 9);  // outside every assigned set

  RouteJournal::RouteDelta d = journal.assign_routes32({{prefix(2), 2}, {prefix(1), 1}});
  EXPECT_EQ(d.installed, 2u);
  EXPECT_EQ(d.withdrawn, 0u);
  journal.flush();

  d = journal.assign_routes32({{prefix(3), 4}, {prefix(1), 1}, {prefix(2), 3}});
  EXPECT_EQ(d.installed, 2u) << "prefix 2 moved, prefix 3 is new";
  EXPECT_EQ(d.withdrawn, 0u);
  EXPECT_EQ(journal.pending(), 2u);
  journal.flush();

  d = journal.assign_routes32({{prefix(2), 3}});
  EXPECT_EQ(d.installed, 0u);
  EXPECT_EQ(d.withdrawn, 2u) << "prefixes 1 and 3 left the set";
  journal.flush();
  EXPECT_EQ(route(1), std::nullopt);
  EXPECT_EQ(route(2), std::optional<fib::NextHop>{3});
  EXPECT_EQ(route(3), std::nullopt);
  EXPECT_EQ(route(9), std::optional<fib::NextHop>{9})
      << "a route enqueued directly is not in the set";

  d = journal.assign_routes32({{prefix(2), 3}});
  EXPECT_EQ(d.installed + d.withdrawn, 0u);
  EXPECT_FALSE(journal.dirty()) << "an unchanged set enqueues nothing";
}

// Entries that normalize to one prefix are one route: the last of them in
// input order wins, as with add_route32. Kept side by side, a later set
// naming the prefix once enqueued an add and then a remove for it; the
// remove won, and every identical set after that reported no change.
TEST(Journal, AssignRoutesKeepsTheLastOfEntriesThatNormalizeAlike) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const fib::Prefix<32> net{fib::ipv4_from_u32(0x0A000100), 24};   // 10.0.1.0/24
  const fib::Prefix<32> host{fib::ipv4_from_u32(0x0A000105), 24};  // 10.0.1.5/24
  const auto route = [&] { return tables->fib32.read()->lookup(fib::ipv4_from_u32(0x0A000101)); };

  RouteJournal::RouteDelta d = journal.assign_routes32({{net, 1}, {host, 2}});
  EXPECT_EQ(d.installed, 1u);
  journal.flush();
  EXPECT_EQ(route(), std::optional<fib::NextHop>{2});

  d = journal.assign_routes32({{net, 2}});
  EXPECT_EQ(d.installed + d.withdrawn, 0u) << "the set still routes 10.0.1.0/24 to 2";
  journal.flush();
  EXPECT_EQ(route(), std::optional<fib::NextHop>{2});

  // Out of prefix order, so the journal sorts; the run keeps its input order.
  const fib::Prefix<32> next{fib::ipv4_from_u32(0x0A000200), 24};  // 10.0.2.0/24
  d = journal.assign_routes32({{next, 7}, {host, 3}, {net, 4}});
  EXPECT_EQ(d.installed, 2u);
  EXPECT_EQ(d.withdrawn, 0u);
  journal.flush();
  EXPECT_EQ(route(), std::optional<fib::NextHop>{4});
  EXPECT_EQ(tables->fib32.read()->lookup(fib::ipv4_from_u32(0x0A000201)),
            std::optional<fib::NextHop>{7});
}

TEST(Journal, SeedClonesStaticTablesDeeply) {
  const auto seed_fib = std::make_unique<fib::Ipv4Lpm>();
  seed_fib->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);

  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.seed(seed_fib.get());

  // Mutating the static seed after the clone must not leak into the
  // published snapshot (that independence IS the shared-FIB race fix).
  seed_fib->insert({fib::ipv4_from_u32(0x0B000000), 8}, 9);
  const fib::Ipv4Lpm* snap = tables->fib32.read();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
  EXPECT_EQ(snap->lookup(fib::ipv4_from_u32(0x0B000001)), std::nullopt);
}

TEST(Journal, CopyOnWriteLeavesTheOldSnapshotIntact) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.add_route32({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.flush();

  const ctrl::ReaderHandle reader = tables->register_reader();
  tables->domain.resume(reader);
  const fib::Ipv4Lpm* old_snap = tables->fib32.read();
  const std::uint64_t old_gen = old_snap->generation();

  journal.remove_route32({fib::ipv4_from_u32(0x0A000000), 8});
  journal.add_route32({fib::ipv4_from_u32(0x0C000000), 8}, 3);
  journal.flush();

  // The reader's raw pointer stays fully valid and unchanged until it
  // quiesces — that is the whole RCU contract.
  EXPECT_EQ(old_snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
  const fib::Ipv4Lpm* new_snap = tables->fib32.read();
  ASSERT_NE(new_snap, old_snap);
  EXPECT_EQ(new_snap->lookup(fib::ipv4_from_u32(0x0A000001)), std::nullopt);
  EXPECT_EQ(new_snap->lookup(fib::ipv4_from_u32(0x0C000001)), std::uint32_t{3});
  // Deltas bump the clone's generation past the base so generation-stamped
  // flow-cache verdicts from the old snapshot cannot be replayed.
  EXPECT_GT(new_snap->generation(), old_gen);

  EXPECT_EQ(tables->domain.backlog(), 1u);
  tables->domain.quiesce(reader);
  journal.flush();  // reclaim piggybacks on flush
  EXPECT_EQ(tables->domain.backlog(), 0u);
}

// ---------------------------------------------------------------------------
// Left-right publish: once no reader can hold the standby (the table the
// last publish retired), flush() replays the delta log and the pending
// deltas onto it instead of cloning the live table.
// ---------------------------------------------------------------------------

/// Prefixes over a four-symbol byte alphabet under 10/8, so churn keeps
/// revisiting keys and routes nest (LPM precedence matters).
template <std::size_t W>
fib::Address<W> churn_address(crypto::Xoshiro256& rng) {
  fib::Address<W> a;
  a.bytes[0] = 10;
  for (std::size_t b = 1; b < a.bytes.size(); ++b) {
    a.bytes[b] = static_cast<std::uint8_t>(rng.below(4));
  }
  return a;
}

template <std::size_t W>
std::vector<fib::Prefix<W>> churn_prefixes(crypto::Xoshiro256& rng, std::size_t n) {
  std::vector<fib::Prefix<W>> out(n);
  for (auto& p : out) {
    p.addr = churn_address<W>(rng);
    p.length = static_cast<std::uint8_t>(8 + rng.below(W - 7));
    p.normalize();
  }
  return out;
}

/// One LPM width under churn: the static seed, the oracle trie, the key
/// universe and the probe set.
template <std::size_t W>
struct LpmChurn {
  explicit LpmChurn(crypto::Xoshiro256& rng)
      : keys(churn_prefixes<W>(rng, 24)) {
    for (std::size_t i = 0; i < keys.size(); i += 3) {
      seed.insert(keys[i], static_cast<fib::NextHop>(1 + i % 5));
      oracle.insert(keys[i], static_cast<fib::NextHop>(1 + i % 5));
    }
    for (const auto& p : keys) probes.push_back(p.addr);
    for (int i = 0; i < 96; ++i) probes.push_back(churn_address<W>(rng));
  }

  /// One random op on a random key (a flap revisits its key at once).
  void churn(crypto::Xoshiro256& rng, RouteJournal& journal, std::set<fib::Prefix<W>>& touched) {
    const fib::Prefix<W>& p = keys[rng.below(keys.size())];
    touched.insert(p);
    const int flaps = rng.below(4) == 0 ? 3 : 1;
    for (int i = 0; i < flaps; ++i) {
      if (rng.below(3) == 0) {
        remove(journal, p);
        oracle.remove(p);
      } else {
        const auto nh = static_cast<fib::NextHop>(1 + rng.below(6));
        add(journal, p, nh);
        oracle.insert(p, nh);
      }
    }
  }

  static void add(RouteJournal& j, const fib::Prefix<W>& p, fib::NextHop nh) {
    if constexpr (W == 32) j.add_route32(p, nh); else j.add_route128(p, nh);
  }
  static void remove(RouteJournal& j, const fib::Prefix<W>& p) {
    if constexpr (W == 32) j.remove_route32(p); else j.remove_route128(p);
  }

  void expect_matches(const fib::TreeBitmap<W>& live) const {
    for (const auto& a : probes) {
      ASSERT_EQ(live.lookup(a), oracle.lookup(a));
    }
  }

  fib::TreeBitmap<W> seed;
  fib::BinaryTrie<W> oracle;
  std::vector<fib::Prefix<W>> keys;
  std::vector<fib::Address<W>> probes;
};

/// The live pointers of one table, oldest first: under left-right each
/// publish after the first must bring back the table published two
/// publishes earlier.
struct Alternation {
  void expect_next(const void* live) {
    ASSERT_FALSE(history.empty());
    EXPECT_NE(live, history.back()) << "a publish must swap in the other copy";
    if (history.size() >= 2) {
      EXPECT_EQ(live, history[history.size() - 2])
          << "the recycled standby must become live";
    }
    history.push_back(live);
  }
  std::vector<const void*> history;
};

TEST(Journal, LeftRightChurnMatchesOracle) {
  crypto::Xoshiro256 rng(0x1EF7'0517);
  LpmChurn<32> v4(rng);
  LpmChurn<128> v6(rng);

  using XidKey = std::pair<fib::XidType, std::uint8_t>;  // (type, xid tag)
  const auto xid_of = [](std::uint8_t tag) {
    fib::Xid x;
    x.bytes.fill(tag);
    return x;
  };
  const fib::XidType kXidTypes[] = {fib::XidType::kAd, fib::XidType::kHid};
  fib::XidTable xid_seed;
  std::map<XidKey, fib::NextHop> xid_routes;
  std::set<XidKey> xid_local;
  xid_seed.insert(fib::XidType::kAd, xid_of(1), 4);
  xid_routes[{fib::XidType::kAd, 1}] = 4;

  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.seed(&v4.seed, &v6.seed, &xid_seed);
  const ctrl::ReaderHandle reader = tables->register_reader();
  tables->domain.resume(reader);

  Alternation alt32{{tables->fib32.read()}};
  Alternation alt128{{tables->fib128.read()}};
  Alternation alt_xid{{tables->xid.read()}};
  std::array<bool, 3> flushed_once{};

  for (int round = 0; round < 80; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    // Round 0 dirties every table; later rounds a random subset.
    const auto dirty = [&rng, round] { return round == 0 || rng.below(2) == 0; };
    std::set<fib::Prefix<32>> touched32;
    std::set<fib::Prefix<128>> touched128;
    std::size_t xid_deltas = 0;
    const bool d32 = dirty(), d128 = dirty(), dxid = dirty();

    if (d32) {
      for (std::uint64_t i = 0, n = 1 + rng.below(5); i < n; ++i) v4.churn(rng, journal, touched32);
    }
    if (d128) {
      for (std::uint64_t i = 0, n = 1 + rng.below(5); i < n; ++i) v6.churn(rng, journal, touched128);
    }
    if (dxid) {
      std::set<std::pair<bool, XidKey>> touched;
      for (std::uint64_t i = 0, n = 1 + rng.below(5); i < n; ++i) {
        const XidKey key{kXidTypes[rng.below(2)], static_cast<std::uint8_t>(rng.below(6))};
        const fib::Xid xid = xid_of(key.second);
        switch (rng.below(5)) {
          case 0:
            journal.remove_xid_route(key.first, xid);
            xid_routes.erase(key);
            touched.insert({false, key});
            break;
          case 1:
            journal.set_xid_local(key.first, xid);
            xid_local.insert(key);
            touched.insert({true, key});
            break;
          default: {
            const auto nh = static_cast<fib::NextHop>(1 + rng.below(6));
            journal.add_xid_route(key.first, xid, nh);
            xid_routes[key] = nh;
            touched.insert({false, key});
          }
        }
      }
      xid_deltas = touched.size();
    }

    const std::uint64_t gen32 = tables->fib32.read()->generation();
    const std::uint64_t gen128 = tables->fib128.read()->generation();
    const std::uint64_t applied = journal.stats().updates_applied;
    const std::size_t published = journal.flush();
    const std::array<bool, 3> dirtied{d32, d128, dxid};
    EXPECT_EQ(published, static_cast<std::size_t>(std::count(dirtied.begin(), dirtied.end(), true)));
    EXPECT_EQ(journal.stats().updates_applied - applied,
              touched32.size() + touched128.size() + xid_deltas);

    // A replay bumps the generation exactly as clone + apply does.
    const fib::Ipv4Lpm* live32 = tables->fib32.read();
    const fib::Ipv6Lpm* live128 = tables->fib128.read();
    EXPECT_EQ(live32->generation(), gen32 + touched32.size());
    EXPECT_EQ(live128->generation(), gen128 + touched128.size());

    if (d32) alt32.expect_next(live32);
    if (d128) alt128.expect_next(live128);
    if (dxid) alt_xid.expect_next(tables->xid.read());

    // Only each table's first flush after seed() cloned.
    for (std::size_t t = 0; t < 3; ++t) flushed_once[t] = flushed_once[t] || dirtied[t];
    EXPECT_EQ(journal.stats().clones,
              static_cast<std::uint64_t>(
                  std::count(flushed_once.begin(), flushed_once.end(), true)));

    v4.expect_matches(*live32);
    v6.expect_matches(*live128);
    const fib::XidTable* xid = tables->xid.read();
    for (const fib::XidType type : kXidTypes) {
      for (std::uint8_t tag = 0; tag < 6; ++tag) {
        const auto want = xid_routes.find({type, tag});
        EXPECT_EQ(xid->lookup(type, xid_of(tag)),
                  want == xid_routes.end() ? std::nullopt
                                           : std::optional<fib::NextHop>{want->second});
        EXPECT_EQ(xid->is_local(type, xid_of(tag)), xid_local.contains({type, tag}));
      }
    }

    // Burst boundary: the reader drops every pointer read above.
    tables->domain.quiesce(reader);
  }
  for (const Alternation* a : {&alt32, &alt128, &alt_xid}) {
    EXPECT_GE(a->history.size(), 10u) << "every table must churn through both copies";
  }

  journal.flush();
  EXPECT_EQ(tables->domain.backlog(), 0u);
}

TEST(Journal, HeldReaderForcesCloneAndSeesNoChange) {
  const auto seed_fib = std::make_unique<fib::Ipv4Lpm>();
  seed_fib->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  journal.seed(seed_fib.get());
  const ctrl::ReaderHandle reader = tables->register_reader();
  tables->domain.resume(reader);

  const fib::Prefix<32> flap{fib::ipv4_from_u32(0x0A400000), 10};
  const fib::Ipv4Addr probe = fib::ipv4_from_u32(0x0A400001);

  journal.add_route32(flap, 2);
  journal.flush();
  EXPECT_EQ(journal.stats().clones, 1u) << "no standby yet: the first flush clones";
  tables->domain.quiesce(reader);

  // The reader takes the live table and keeps it across two flushes.
  const fib::Ipv4Lpm* held = tables->fib32.read();
  const std::uint64_t held_gen = held->generation();
  ASSERT_EQ(held->lookup(probe), std::uint32_t{2});

  journal.add_route32(flap, 3);
  journal.flush();
  EXPECT_EQ(journal.stats().clones, 1u) << "the seed copy is free: recycled";
  EXPECT_NE(tables->fib32.read(), held);

  // The standby is now `held`, and its reader has not quiesced.
  journal.remove_route32(flap);
  journal.flush();
  EXPECT_EQ(journal.stats().clones, 2u) << "a held standby must force a clone";
  const fib::Ipv4Lpm* live = tables->fib32.read();
  EXPECT_NE(live, held);
  EXPECT_EQ(live->lookup(probe), std::uint32_t{1});
  EXPECT_EQ(held->lookup(probe), std::uint32_t{2})
      << "a held snapshot must keep its old answers";
  EXPECT_EQ(held->generation(), held_gen);

  tables->domain.quiesce(reader);  // drops `held`
  journal.add_route32(flap, 4);
  journal.flush();
  EXPECT_EQ(journal.stats().clones, 2u) << "once the reader quiesced, the next flush recycles";
  EXPECT_EQ(tables->fib32.read()->lookup(probe), std::uint32_t{4});
  tables->domain.quiesce(reader);
  journal.flush();
  EXPECT_EQ(tables->domain.backlog(), 0u);
}

// ---------------------------------------------------------------------------
// ControlPlane: convergence under link failure (end to end in netsim).
//
// Diamond topology, all four routers managed:
//
//   source — A(0) — B(1) — D(3) — dest        primary (B has the lower id)
//              \— C(2) ——/                    backup
//
// The A—B link runs a blackout schedule (period 1 ms, dark for the first
// 300 us of each window), so the timeline is: dark at t=0 (routes install
// via C), up at 300 us (routes swap to B), dark again at 1 ms — packets in
// flight blackhole until the control plane detects the failure and
// republishes via C — then up at 1.3 ms. Polls every 70 us, deliberately
// coprime with the schedule so detection latency is nonzero.
// ---------------------------------------------------------------------------

TEST(ControlPlane, ConvergesAfterBlackoutAndResumesDelivery) {
  constexpr SimDuration kPoll = 70 * kMicrosecond;
  constexpr SimTime kDown2 = 1 * kMillisecond;  // second blackout window start

  netsim::Network net;
  const auto registry = netsim::make_default_registry();
  std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto env = netsim::make_basic_env(i);
    env.default_egress.reset();  // no route means blackhole, not fallback
    routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
    net.add_node(*routers[i]);
  }
  auto& a = *routers[0];
  auto& b = *routers[1];
  auto& c = *routers[2];
  auto& d = *routers[3];

  netsim::LinkParams flaky;
  flaky.faults.blackout_period = 1 * kMillisecond;
  flaky.faults.blackout_duration = 300 * kMicrosecond;
  net.connect(a, b, flaky);
  const auto [b_to_d, d_from_b] = net.connect(b, d);
  (void)b_to_d;
  (void)d_from_b;
  net.connect(a, c);
  net.connect(c, d);

  netsim::HostNode source;
  std::vector<SimTime> arrivals;
  netsim::HostNode dest([&arrivals](netsim::FaceId, netsim::PacketBytes, SimTime at) {
    arrivals.push_back(at);
  });
  net.add_node(source);
  net.add_node(dest);
  const auto [source_face, a_host_face] = net.connect(source, a);
  (void)a_host_face;
  const auto [d_delivery_face, dest_face] = net.connect(d, dest);
  (void)dest_face;

  ctrl::ControlPlane cp(net, ctrl::ControlPlaneConfig{.poll_interval = kPoll});
  for (auto& r : routers) cp.manage(*r);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8}, d.id(), d_delivery_face);

  // One packet every 20 us until 1.9 ms (the horizon stays short of the
  // third blackout window at 2 ms).
  for (SimTime t = 5 * kMicrosecond; t < 1900 * kMicrosecond; t += 20 * kMicrosecond) {
    net.loop().schedule_at(t, [&source, source_face] {
      source.send(source_face, dip32_packet(0x0A000001));
    });
  }
  cp.start(/*horizon=*/1950 * kMicrosecond);
  net.run();

  const ctrl::ControlPlaneStats& st = cp.stats();
  EXPECT_EQ(st.link_down_events, 1u);  // t=0 darkness is initial state, not an event
  EXPECT_EQ(st.link_up_events, 2u);
  EXPECT_EQ(st.convergences, 3u);
  EXPECT_GT(st.last_convergence_ns, 0u);
  EXPECT_LE(st.last_convergence_ns, kPoll)
      << "detection + republish must complete within one poll";

  // The failure actually bit (packets in flight blackholed), and every
  // blackhole predates the republish: zero post-convergence blackholes.
  EXPECT_GE(net.stats().blackholed, 1u);
  for (const netsim::FaultEvent& e : net.fault_trace()) {
    if (e.kind != netsim::FaultKind::kBlackout) continue;
    EXPECT_GE(e.at, kDown2);
    EXPECT_LT(e.at, kDown2 + kPoll + 10 * kMicrosecond)
        << "traffic kept flowing into the dark link after convergence";
  }

  // Delivery resumed on the backup path after the failure.
  std::size_t before = 0;
  std::size_t after = 0;
  for (const SimTime at : arrivals) {
    if (at < kDown2) ++before;
    if (at >= kDown2 + kPoll) ++after;
  }
  EXPECT_GT(before, 0u);
  EXPECT_GT(after, 20u) << "backup path must carry the traffic after republish";

  // A's routes flapped C -> B -> C -> B: initial publish + three swaps.
  ASSERT_NE(cp.journal(a.id()), nullptr);
  EXPECT_EQ(cp.journal(a.id())->stats().snapshots_published, 4u);
  // B/C/D's routes never change after the initial install.
  EXPECT_EQ(cp.journal(d.id())->stats().snapshots_published, 1u);

  // All grace periods eventually drain: the simulator thread quiesced after
  // the last burst, so one more reclaim round frees every retired snapshot.
  cp.journal(a.id())->flush();
  EXPECT_EQ(a.env().control->domain.backlog(), 0u);
  EXPECT_GE(a.env().control->domain.reclaimed_total(), 3u);

  // dip_ctrl_* exposition (catalogue in docs/OBSERVABILITY.md).
  telemetry::StatsWriter w;
  cp.write_stats(w);
  const std::string& text = w.text();
  EXPECT_NE(text.find("dip_ctrl_convergences_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("dip_ctrl_link_events_total{dir=\"down\"} 1"), std::string::npos);
  EXPECT_NE(text.find("dip_ctrl_snapshot_generation{node=\"0\"}"), std::string::npos);
  // Only the first flush after seed() cloned: the sim thread quiesces
  // before every flush, so each later publish recycled the standby.
  EXPECT_NE(text.find("dip_ctrl_snapshot_clones_total{node=\"0\"} 1\n"), std::string::npos)
      << text;
}

TEST(ControlPlane, PublishIntervalRateLimitsButConverges) {
  // Same diamond, but publishes are rate-limited well above the poll rate:
  // deltas decided inside the window coalesce and land in one publish.
  netsim::Network net;
  const auto registry = netsim::make_default_registry();
  std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto env = netsim::make_basic_env(i);
    env.default_egress.reset();
    routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
    net.add_node(*routers[i]);
  }
  netsim::LinkParams flaky;
  flaky.faults.blackout_period = 200 * kMicrosecond;
  flaky.faults.blackout_duration = 100 * kMicrosecond;
  net.connect(*routers[0], *routers[1], flaky);
  net.connect(*routers[1], *routers[3]);
  net.connect(*routers[0], *routers[2]);
  net.connect(*routers[2], *routers[3]);

  ctrl::ControlPlane cp(net, ctrl::ControlPlaneConfig{
                                 .poll_interval = 30 * kMicrosecond,
                                 .publish_interval = 500 * kMicrosecond});
  for (auto& r : routers) cp.manage(*r);
  cp.add_destination({fib::ipv4_from_u32(0x0A000000), 8}, routers[3]->id(), 99);
  cp.start(/*horizon=*/2 * kMillisecond);
  net.run();

  const ctrl::ControlPlaneStats& st = cp.stats();
  // ~9 transitions in 2 ms, but publishes stay bounded by the interval.
  EXPECT_GE(st.link_down_events + st.link_up_events, 8u);
  EXPECT_LE(st.publishes, 5u) << "publish_interval must bound the publish rate";
  EXPECT_GE(st.publishes, 2u);
  const ctrl::JournalStats& js = cp.journal(routers[0]->id())->stats();
  EXPECT_GT(js.ops_coalesced, 0u)
      << "flaps inside the publish window must coalesce in the journal";
}

// ---------------------------------------------------------------------------
// SPF next-hop rule: the mesh's LSDB routes and the routes ControlPlane
// installs both pick, toward every destination, the smallest-id neighbour on
// some shortest path. Seeded random graphs with ties, parallel links and one
// failed edge, checked against a brute-force oracle.
// ---------------------------------------------------------------------------

struct RandomGraph {
  std::size_t nodes = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< may repeat
  std::pair<std::uint32_t, std::uint32_t> failed{0, 0};        ///< one of `edges`
};

RandomGraph random_graph(std::uint64_t seed) {
  crypto::Xoshiro256 rng(seed);
  RandomGraph g;
  g.nodes = 5 + rng.below(6);
  const std::size_t edges = g.nodes + rng.below(g.nodes);
  while (g.edges.size() < edges) {
    const auto a = static_cast<std::uint32_t>(rng.below(g.nodes));
    const auto b = static_cast<std::uint32_t>(rng.below(g.nodes));
    if (a == b) continue;
    g.edges.emplace_back(a, b);
    if (rng.below(5) == 0) g.edges.emplace_back(b, a);  // a parallel link
  }
  g.failed = g.edges[rng.below(g.edges.size())];
  return g;
}

/// Usable adjacency (the failed edge and its parallels removed) and the
/// brute-force next hop: smallest neighbour one hop closer to `dst`.
struct SpfOracle {
  explicit SpfOracle(const RandomGraph& g) : adj(g.nodes) {
    for (const auto& [a, b] : g.edges) {
      if (std::minmax(a, b) == std::minmax(g.failed.first, g.failed.second)) continue;
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    constexpr std::size_t kInf = ~std::size_t{0};
    dist.assign(g.nodes, std::vector<std::size_t>(g.nodes, kInf));
    for (std::size_t s = 0; s < g.nodes; ++s) {
      dist[s][s] = 0;
      for (std::size_t round = 0; round < g.nodes; ++round) {
        for (std::size_t u = 0; u < g.nodes; ++u) {
          if (dist[s][u] == kInf) continue;
          for (const std::uint32_t v : adj[u]) {
            dist[s][v] = std::min(dist[s][v], dist[s][u] + 1);
          }
        }
      }
    }
  }

  [[nodiscard]] std::optional<std::uint32_t> next_hop(std::uint32_t u,
                                                      std::uint32_t dst) const {
    std::optional<std::uint32_t> best;
    for (const std::uint32_t w : adj[u]) {
      if (dist[dst][w] + 1 == dist[dst][u] && (!best || w < *best)) best = w;
    }
    return best;
  }

  std::vector<std::vector<std::uint32_t>> adj;
  std::vector<std::vector<std::size_t>> dist;
};

TEST(SpfRule, MeshAndControlPlaneMatchSmallestIdShortestPathOracle) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomGraph g = random_graph(seed);
    const SpfOracle oracle(g);

    // Mesh view: node n is LSDB origin n + 1 (0 is the mesh's unknown-peer
    // sentinel). The failed edge is still advertised by one endpoint only.
    mesh::LinkStateDb lsdb;
    for (std::uint32_t u = 0; u < g.nodes; ++u) lsdb[u + 1].version = 1;
    for (const auto& [a, b] : g.edges) {
      const auto [lo, hi] = std::minmax(a, b);
      lsdb[lo + 1].neighbors.push_back(hi + 1);
      if (std::minmax(a, b) != std::minmax(g.failed.first, g.failed.second)) {
        lsdb[hi + 1].neighbors.push_back(lo + 1);
      }
    }
    for (auto& [origin, lsa] : lsdb) {
      std::sort(lsa.neighbors.begin(), lsa.neighbors.end());
      lsa.neighbors.erase(std::unique(lsa.neighbors.begin(), lsa.neighbors.end()),
                          lsa.neighbors.end());
    }

    // Control-plane view: the failed edge (with its parallels) is dark.
    netsim::Network net;
    const auto registry = netsim::make_default_registry();
    std::vector<std::unique_ptr<netsim::DipRouterNode>> routers;
    for (std::uint32_t i = 0; i < g.nodes; ++i) {
      auto env = netsim::make_basic_env(i);
      env.default_egress.reset();
      routers.push_back(std::make_unique<netsim::DipRouterNode>(std::move(env), registry));
      net.add_node(*routers[i]);
    }
    netsim::LinkParams dark;
    dark.faults.blackout_period = kSecond;
    dark.faults.blackout_duration = kSecond / 2;
    for (const auto& [a, b] : g.edges) {
      const bool failed = std::minmax(a, b) == std::minmax(g.failed.first, g.failed.second);
      net.connect(*routers[a], *routers[b], failed ? dark : netsim::LinkParams{});
    }
    ctrl::ControlPlane cp(net);
    for (auto& r : routers) cp.manage(*r);
    const auto prefix_of = [](std::uint32_t n) {
      return fib::Prefix<32>{fib::ipv4_from_u32((10u << 24) | (n << 16)), 16};
    };
    for (std::uint32_t n = 0; n < g.nodes; ++n) cp.add_destination(prefix_of(n), n, 99);
    cp.refresh(/*force=*/true);

    for (std::uint32_t u = 0; u < g.nodes; ++u) {
      const auto mesh_hops = mesh::compute_next_hops(lsdb, u + 1);
      const fib::Ipv4Lpm* fib = routers[u]->env().control->fib32.read();
      ASSERT_NE(fib, nullptr);
      for (std::uint32_t dst = 0; dst < g.nodes; ++dst) {
        if (dst == u) continue;
        const auto want = oracle.next_hop(u, dst);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " node " << u << " dst " << dst);

        const auto mesh_hop =
            std::ranges::find(mesh_hops, dst + 1, &mesh::NextHop::destination);
        ASSERT_EQ(mesh_hop != mesh_hops.end(), want.has_value());
        if (want) {
          EXPECT_EQ(mesh_hop->via, *want + 1);
        }

        const auto face = fib->lookup(prefix_of(dst).addr);
        ASSERT_EQ(face.has_value(), want.has_value());
        if (!want) continue;
        const auto peer = net.peer_of(*routers[u], *face);
        ASSERT_TRUE(peer.has_value());
        EXPECT_EQ(peer->first, *want);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 400u);
}

// ---------------------------------------------------------------------------
// Shared-FIB race regression (TSan leg): RouterPool workers forward off the
// snapshots while the control thread churns routes and publishes. Before
// src/ctrl/ this exact pattern — post-start mutation of a shared fib32 —
// was a data race; through SnapshotTable it must be TSan-clean AND every
// retired table must eventually be reclaimed.
// ---------------------------------------------------------------------------

// The mesh SPF reads the LSDB in origin order, whatever order the LSAs
// arrived in: the same 40 graphs, each LSDB filled ascending, descending
// and shuffled, give the same hops, and they are the oracle's. An SPF that
// walked arrival order would number the nodes differently and break the
// smallest-id tie-break (or, descending, the SpfGraph's ascending ids).
TEST(SpfRule, MeshSpfIsIndependentOfLsdbInsertionOrder) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomGraph g = random_graph(seed);
    const SpfOracle oracle(g);
    std::vector<mesh::Lsa> lsas(g.nodes);
    for (mesh::Lsa& lsa : lsas) lsa.version = 1;
    for (const auto& [a, b] : g.edges) {
      const auto [lo, hi] = std::minmax(a, b);
      lsas[lo].neighbors.push_back(hi + 1);
      if (std::minmax(a, b) != std::minmax(g.failed.first, g.failed.second)) {
        lsas[hi].neighbors.push_back(lo + 1);
      }
    }
    for (mesh::Lsa& lsa : lsas) {
      std::sort(lsa.neighbors.begin(), lsa.neighbors.end());
      lsa.neighbors.erase(std::unique(lsa.neighbors.begin(), lsa.neighbors.end()),
                          lsa.neighbors.end());
    }

    std::vector<std::uint32_t> ascending(g.nodes);
    for (std::uint32_t u = 0; u < g.nodes; ++u) ascending[u] = u;
    std::vector<std::uint32_t> descending(ascending.rbegin(), ascending.rend());
    std::vector<std::uint32_t> shuffled = ascending;
    crypto::Xoshiro256 rng(seed * 7919);
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    std::vector<mesh::LinkStateDb> dbs(3);
    for (const auto& [db, order] : {std::pair{&dbs[0], &ascending}, std::pair{&dbs[1], &descending},
                                    std::pair{&dbs[2], &shuffled}}) {
      for (const std::uint32_t u : *order) db->insert_or_assign(u + 1, lsas[u]);
    }

    for (std::uint32_t u = 0; u < g.nodes; ++u) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " node " << u);
      const auto hops = mesh::compute_next_hops(dbs[0], u + 1);
      EXPECT_EQ(mesh::compute_next_hops(dbs[1], u + 1), hops) << "descending insertion";
      EXPECT_EQ(mesh::compute_next_hops(dbs[2], u + 1), hops) << "shuffled insertion";
      for (std::uint32_t dst = 0; dst < g.nodes; ++dst) {
        if (dst == u) continue;
        const auto want = oracle.next_hop(u, dst);
        const auto hop = std::ranges::find(hops, dst + 1, &mesh::NextHop::destination);
        ASSERT_EQ(hop != hops.end(), want.has_value()) << "dst " << dst;
        if (want) {
          EXPECT_EQ(hop->via, *want + 1) << "dst " << dst;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 400u);
}

TEST(CtrlRace, ConcurrentChurnAndForwardingIsCleanAndReclaims) {
  auto tables = std::make_shared<ControlTables>();
  RouteJournal journal(tables);
  const auto seed_fib = std::make_unique<fib::Ipv4Lpm>();
  seed_fib->insert({fib::ipv4_from_u32(0x0A000000), 8}, 1);
  journal.seed(seed_fib.get());

  const auto registry = netsim::make_default_registry();
  const auto envf = [&tables](std::size_t worker) {
    core::RouterEnv env;
    env.node_id = static_cast<std::uint32_t>(worker);
    env.control = tables;
    env.ctrl_reader = tables->register_reader();
    // Flow cache on: churned snapshots bump the generation, so memoized
    // verdicts from a retired table must invalidate, concurrently.
    env.flow_cache = std::make_unique<core::FlowCache>();
    env.default_egress.reset();
    return env;
  };
  core::RouterPoolConfig cfg;
  cfg.workers = 2;

  {
    core::RouterPool pool(registry.get(), envf, cfg);
    const fib::Prefix<32> flap{fib::ipv4_from_u32(0x0A400000), 10};
    std::uint32_t salt = 0;
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 16; ++i) {
        pool.submit(dip32_packet(0x0A000000 + (salt++ & 0x7fffff)), 0,
                    static_cast<SimTime>(round) * kMicrosecond);
      }
      // Concurrent churn: flap a more-specific route while workers forward.
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

  // Workers gone: a final round reclaims everything still retired.
  journal.flush();
  EXPECT_EQ(tables->domain.backlog(), 0u);
  const fib::Ipv4Lpm* fib = tables->fib32.read();
  ASSERT_NE(fib, nullptr);
  EXPECT_EQ(fib->lookup(fib::ipv4_from_u32(0x0A000001)), std::uint32_t{1});
}

}  // namespace
}  // namespace dip
