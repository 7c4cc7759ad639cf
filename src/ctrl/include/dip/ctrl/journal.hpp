// RouteJournal — the single writer behind one node's ControlTables.
//
// The control plane enqueues route operations as they are decided; the
// journal *coalesces* them per key (ten flaps of the same prefix between
// two publishes collapse to the final state) and, on flush(), builds each
// dirty table's replacement off to the side, publishes it, and reclaims
// whatever grace periods have elapsed.
//
// Left-right publish: the journal keeps both copies of every table — the
// live one it last published and the standby that publish retired — plus
// the flat log of deltas that took the standby to the live copy. Once QSBR
// says the standby's grace period has elapsed (no reader can still hold
// it), flush() replays the log and then the pending deltas onto the
// standby and publishes it, so a route change costs its delta, not its
// table. Only when there is no standby yet (the first flush after seed(),
// or the second publish of a table built from scratch) or a reader still
// holds it does flush() clone the live table instead
// (JournalStats::clones). Both paths bump the generation by the same
// number of deltas, so flow-cache stamps cannot tell them apart.
// Publishing at a configurable cadence instead of per-operation keeps
// snapshot/reclamation cost proportional to the *publish* rate, not the
// churn rate — the CRAM/BGP-churn regime the bench sweeps.
//
// Thread contract: all methods are single-writer (one control thread);
// data-plane readers never touch the journal.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dip/ctrl/tables.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/fib/xid_table.hpp"

namespace dip::ctrl {

struct JournalStats {
  std::uint64_t ops_enqueued = 0;    ///< every add_/remove_/set_ call
  std::uint64_t ops_coalesced = 0;   ///< ops absorbed by a pending same-key op
  std::uint64_t updates_applied = 0; ///< coalesced deltas applied at flush
  std::uint64_t snapshots_published = 0;  ///< per-table publishes
  std::uint64_t flushes = 0;         ///< flush() calls that published
  /// Per-table publishes built by copying the live table because no
  /// reusable standby was available (telemetry, not a setting).
  std::uint64_t clones = 0;
  // Publish latency: wall time of the rebuild + publish section of a flush()
  // that published at least one table (dip_fib_publish_latency series;
  // swept by bench_fib_scale's churn leg).
  std::uint64_t last_flush_ns = 0;   ///< most recent publishing flush
  std::uint64_t max_flush_ns = 0;    ///< worst publishing flush
  std::uint64_t total_flush_ns = 0;  ///< sum over publishing flushes
};

class RouteJournal {
 public:
  /// A whole IPv4 route set: (prefix, next hop), one entry per prefix.
  using Routes32 = std::vector<std::pair<fib::Prefix<32>, fib::NextHop>>;
  /// What assign_routes32() enqueued.
  struct RouteDelta {
    std::size_t installed = 0;  ///< adds: new prefixes and changed next hops
    std::size_t withdrawn = 0;  ///< removes: prefixes the new set dropped
  };

  explicit RouteJournal(std::shared_ptr<ControlTables> tables);

  /// Publish initial snapshots copied from existing (static) tables; null
  /// arguments are skipped. Call once before traffic if the node starts
  /// with pre-installed routes.
  void seed(const fib::Ipv4Lpm* fib32, const fib::Ipv6Lpm* fib128 = nullptr,
            const fib::XidTable* xid = nullptr);

  // -- pending operations (last write per key wins) ----------------------
  void add_route32(fib::Prefix<32> prefix, fib::NextHop nh);
  void remove_route32(fib::Prefix<32> prefix);
  void add_route128(fib::Prefix<128> prefix, fib::NextHop nh);
  void remove_route128(fib::Prefix<128> prefix);
  void add_xid_route(fib::XidType type, const fib::Xid& xid, fib::NextHop nh);
  void remove_xid_route(fib::XidType type, const fib::Xid& xid);
  void set_xid_local(fib::XidType type, const fib::Xid& xid);

  /// Make `want` the route set this journal last assigned: enqueue an add
  /// for every prefix that is new or changed its next hop, and a remove
  /// for every prefix of the previous assignment that `want` lacks, so an
  /// unchanged set enqueues nothing. Routes enqueued through add_route32/
  /// remove_route32 are not part of the set. Prefixes are normalized, and
  /// entries that normalize to one prefix collapse to the last of them in
  /// input order (the add_route32 rule). Input already in prefix order is
  /// not sorted again.
  RouteDelta assign_routes32(Routes32 want);

  /// Any pending operations not yet published?
  [[nodiscard]] bool dirty() const noexcept;
  /// Number of coalesced pending operations.
  [[nodiscard]] std::size_t pending() const noexcept;

  /// Rebuild + publish every dirty table (left-right, see above), then
  /// reclaim elapsed grace periods. Returns the number of tables published.
  std::size_t flush();

  [[nodiscard]] const JournalStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ControlTables& tables() noexcept { return *tables_; }

  /// An XID delta's key. Route keys sort before local marks, so a flush
  /// applies every route delta first, then the marks.
  struct XidKey {
    bool local = false;  ///< a set_xid_local mark, not a route
    std::uint8_t type = 0;
    std::array<std::uint8_t, 20> bytes{};
    auto operator<=>(const XidKey&) const = default;
  };

 private:
  using Delta = std::optional<fib::NextHop>;  ///< nullopt = remove

  /// One table's write side. Ordered pending keys make the apply order
  /// deterministic (Prefix has operator<=>).
  template <typename T, typename Key>
  struct Lane {
    std::map<Key, Delta> pending;               ///< last write per key wins
    std::vector<std::pair<Key, Delta>> log;     ///< standby -> live deltas
    std::shared_ptr<T> live;                    ///< the copy last published
    std::shared_ptr<T> standby;                 ///< the copy it retired
    std::uint64_t standby_tag = 0;              ///< standby's QSBR tag
  };

  template <typename T, typename Key>
  void put(Lane<T, Key>& lane, Key key, Delta delta);
  template <typename T, typename Key>
  void seed_lane(Lane<T, Key>& lane, SnapshotTable<T>& table, const T* from);
  /// Rebuild and publish one dirty table; returns the tables published
  /// (0 or 1).
  template <typename T, typename Key>
  std::size_t flush_lane(Lane<T, Key>& lane, SnapshotTable<T>& table);

  std::shared_ptr<ControlTables> tables_;
  JournalStats stats_;

  Lane<fib::Ipv4Lpm, fib::Prefix<32>> fib32_;
  Lane<fib::Ipv6Lpm, fib::Prefix<128>> fib128_;
  Lane<fib::XidTable, XidKey> xid_;
  Routes32 assigned32_;  ///< sorted by prefix: the last assign_routes32 set
};

}  // namespace dip::ctrl
