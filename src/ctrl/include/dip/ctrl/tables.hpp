// ControlTables — one node's control-plane-owned route state.
//
// Bundles an RCU SnapshotTable for each table the six Table-1 compositions
// read (IPv4/IPv6 LPM, XID table; NDN names ride 32-bit codes through the
// IPv4 LPM) behind a single QsbrDomain, so a data-plane reader announces
// quiescence once per burst and covers all three. RouterEnv holds a
// shared_ptr<ControlTables> (nullptr = the static configuration where
// tables are fixed at setup time); the RouteJournal is the single writer
// that publishes into it.
#pragma once

#include <memory>

#include "dip/ctrl/snapshot.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/fib/xid_table.hpp"

namespace dip::ctrl {

struct ControlTables {
  QsbrDomain domain;
  SnapshotTable<fib::Ipv4Lpm> fib32;
  SnapshotTable<fib::Ipv6Lpm> fib128;
  SnapshotTable<fib::XidTable> xid;

  /// Register a data-plane reader (one per RouterPool worker, or one for
  /// the calling thread of a scalar Router).
  [[nodiscard]] ReaderHandle register_reader() {
    return domain.register_reader();
  }
};

}  // namespace dip::ctrl
