// ControlTables — one node's control-plane-owned route state.
//
// Bundles an RCU SnapshotTable for each table the six Table-1 compositions
// read (IPv4/IPv6 LPM, XID table, name FIB) behind a single QsbrDomain, so
// a data-plane reader announces quiescence once per burst and covers all
// four. RouterEnv holds a shared_ptr<ControlTables> (nullptr = the static
// pre-PR-5 configuration where tables are fixed at setup time); the
// RouteJournal is the single writer that publishes into it.
#pragma once

#include <memory>

#include "dip/ctrl/snapshot.hpp"
#include "dip/fib/name_fib.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/fib/xid_table.hpp"

namespace dip::ctrl {

struct ControlTables {
  QsbrDomain domain;
  SnapshotTable<fib::Ipv4Lpm> fib32;
  SnapshotTable<fib::Ipv6Lpm> fib128;
  SnapshotTable<fib::XidTable> xid;
  SnapshotTable<fib::NameFib> names;

  /// Register a data-plane reader (one per RouterPool worker, or one for
  /// the calling thread of a scalar Router).
  [[nodiscard]] ReaderHandle register_reader() {
    return domain.register_reader();
  }
};

}  // namespace dip::ctrl
