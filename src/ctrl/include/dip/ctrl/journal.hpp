// RouteJournal — the single writer behind one node's ControlTables.
//
// The control plane enqueues route operations as they are decided; the
// journal *coalesces* them per key (ten flaps of the same prefix between
// two publishes collapse to the final state) and, on flush(), builds each
// dirty table's replacement copy-on-write: clone the live snapshot, apply
// the pending deltas, publish, and reclaim whatever grace periods have
// elapsed. Publishing at a configurable cadence instead of per-operation is
// what keeps snapshot/reclamation cost proportional to the *publish* rate,
// not the churn rate — the CRAM/BGP-churn regime the bench sweeps.
//
// Thread contract: all methods are single-writer (one control thread);
// data-plane readers never touch the journal.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "dip/ctrl/tables.hpp"
#include "dip/fib/address.hpp"
#include "dip/fib/lpm.hpp"
#include "dip/fib/name_fib.hpp"
#include "dip/fib/xid_table.hpp"

namespace dip::ctrl {

struct JournalStats {
  std::uint64_t ops_enqueued = 0;    ///< every add_/remove_/set_ call
  std::uint64_t ops_coalesced = 0;   ///< ops absorbed by a pending same-key op
  std::uint64_t updates_applied = 0; ///< coalesced deltas applied at flush
  std::uint64_t snapshots_published = 0;  ///< per-table publishes
  std::uint64_t flushes = 0;         ///< flush() calls that published
  // Publish latency: wall time of the clone + apply + publish section of a
  // flush() that published at least one table. This is the churn-side cost
  // the tree-bitmap engine's cheap clone() exists to bound (dip_fib_publish_
  // latency series; swept by bench_fib_scale's churn leg).
  std::uint64_t last_flush_ns = 0;   ///< most recent publishing flush
  std::uint64_t max_flush_ns = 0;    ///< worst publishing flush
  std::uint64_t total_flush_ns = 0;  ///< sum over publishing flushes
};

class RouteJournal {
 public:
  /// A table built from scratch (no snapshot published yet and no seed) is
  /// a fib::TreeBitmap; clones inherit the seed's engine.
  explicit RouteJournal(std::shared_ptr<ControlTables> tables);

  /// Publish initial snapshots cloned from existing (static) tables; null
  /// arguments are skipped. Call once before traffic if the node starts
  /// with pre-installed routes.
  void seed(const fib::Ipv4Lpm* fib32, const fib::Ipv6Lpm* fib128 = nullptr,
            const fib::XidTable* xid = nullptr,
            const fib::NameFib* names = nullptr);

  // -- pending operations (last write per key wins) ----------------------
  void add_route32(fib::Prefix<32> prefix, fib::NextHop nh);
  void remove_route32(fib::Prefix<32> prefix);
  void add_route128(fib::Prefix<128> prefix, fib::NextHop nh);
  void remove_route128(fib::Prefix<128> prefix);
  void add_xid_route(fib::XidType type, const fib::Xid& xid, fib::NextHop nh);
  void remove_xid_route(fib::XidType type, const fib::Xid& xid);
  void set_xid_local(fib::XidType type, const fib::Xid& xid);
  void add_name_route(const fib::Name& name, fib::NextHop nh);
  void remove_name_route(const fib::Name& name);

  /// Any pending operations not yet published?
  [[nodiscard]] bool dirty() const noexcept;
  /// Number of coalesced pending operations.
  [[nodiscard]] std::size_t pending() const noexcept;

  /// Copy-on-write build + publish for every dirty table, then reclaim
  /// elapsed grace periods. Returns the number of tables published.
  std::size_t flush();

  [[nodiscard]] const JournalStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ControlTables& tables() noexcept { return *tables_; }
  [[nodiscard]] std::shared_ptr<ControlTables> tables_ptr() const noexcept {
    return tables_;
  }

 private:
  template <typename K, typename V>
  void put(std::map<K, V>& map, K key, V value);

  std::shared_ptr<ControlTables> tables_;
  JournalStats stats_;

  // Pending delta maps: nullopt value = remove. Ordered keys make the apply
  // order deterministic (Prefix has operator<=>; Xid keys order by bytes).
  using XidKey = std::pair<std::uint8_t, std::array<std::uint8_t, 20>>;
  std::map<fib::Prefix<32>, std::optional<fib::NextHop>> pending32_;
  std::map<fib::Prefix<128>, std::optional<fib::NextHop>> pending128_;
  std::map<XidKey, std::optional<fib::NextHop>> pending_xid_;
  std::map<XidKey, bool> pending_xid_local_;
  std::map<std::string, std::optional<fib::NextHop>> pending_names_;
};

}  // namespace dip::ctrl
