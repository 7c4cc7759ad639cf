// RouterEnv — the per-node state that operation modules act on.
//
// Algorithm 1 dispatches FNs to operation modules; the modules themselves
// are (mostly) stateless and read/write the node state collected here:
// forwarding tables, PIT, content store, and the node's cryptographic
// secrets. One RouterEnv == one DIP-capable node's data plane state.
//
// Sharding note (RouterPool): the FIBs and XID table are shared_ptr so N
// worker environments can share one read-mostly route table, while PIT,
// content store, and the flow cache stay strictly per-worker — flow-affine
// sharding guarantees a flow only ever touches one worker's state.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "dip/bytes/time.hpp"
#include "dip/crypto/aes.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/ctrl/tables.hpp"
#include "dip/fib/tree_bitmap.hpp"
#include "dip/fib/xid_table.hpp"
#include "dip/pit/content_store.hpp"
#include "dip/pit/pit.hpp"
#include "dip/core/flow_cache.hpp"
#include "dip/core/fn.hpp"
#include "dip/telemetry/counters.hpp"
#include "dip/telemetry/stats.hpp"

namespace dip::core {

/// §2.4 security: hard limits on per-packet work and per-packet state.
struct ResourceLimits {
  std::uint32_t per_packet_budget = 64;  ///< abstract cost units per packet
  std::uint32_t max_fn_per_packet = 16;  ///< must not exceed HeaderView::kMaxFns
};

struct RouterEnv {
  // ---- identity -------------------------------------------------------
  std::uint32_t node_id = 0;

  // ---- forwarding state -------------------------------------------------
  // Static configuration: tables fixed before traffic starts, shareable
  // across RouterPool workers, and never mutated afterwards. Post-start
  // route churn must go through `control` below — mutating these shared
  // tables while workers forward is a data race.
  std::shared_ptr<fib::Ipv4Lpm> fib32;    ///< used by F_32_match and F_FIB
  std::shared_ptr<fib::Ipv6Lpm> fib128;   ///< used by F_128_match
  std::shared_ptr<fib::XidTable> xid_table;  ///< used by F_DAG / F_intent (XIA)

  // ---- control plane (docs/CONTROL_PLANE.md) ----------------------------
  /// RCU snapshot tables published by the control plane. nullptr (the
  /// default) keeps the static configuration above. When set, the data
  /// path reads exclusively through the *_view() accessors and the static
  /// pointers are ignored for forwarding.
  std::shared_ptr<ctrl::ControlTables> control;
  /// This environment's reader registration with control->domain; every
  /// RouterPool worker env (and the calling thread of a scalar Router)
  /// holds its own. Must be set whenever `control` is.
  ctrl::ReaderHandle ctrl_reader;

  /// Data-path table views: current RCU snapshot when under control-plane
  /// management, else the static table. Raw pointers are valid until this
  /// env's next ctrl_quiesce()/ctrl_park() announcement.
  [[nodiscard]] const fib::Ipv4Lpm* fib32_view() const noexcept {
    return control ? control->fib32.read() : fib32.get();
  }
  [[nodiscard]] const fib::Ipv6Lpm* fib128_view() const noexcept {
    return control ? control->fib128.read() : fib128.get();
  }
  [[nodiscard]] const fib::XidTable* xid_view() const noexcept {
    return control ? control->xid.read() : xid_table.get();
  }

  /// Quiescent-state announcements (no-ops in static configuration). The
  /// router announces at burst boundaries; pool workers park/resume around
  /// their idle wait. See dip/ctrl/snapshot.hpp for the protocol.
  void ctrl_quiesce() const noexcept {
    if (control && ctrl_reader) control->domain.quiesce(ctrl_reader);
  }
  void ctrl_park() const noexcept {
    if (control && ctrl_reader) ctrl::QsbrDomain::park(ctrl_reader);
  }
  void ctrl_resume() const noexcept {
    if (control && ctrl_reader) control->domain.resume(ctrl_reader);
  }
  // Strictly per-worker flow state.
  pit::Pit pit;                           ///< used by F_PIT
  std::optional<pit::ContentStore> content_store;  ///< footnote-2 extension
  /// Exact-match memo in front of F_32_match/F_128_match (nullptr = off).
  std::unique_ptr<FlowCache> flow_cache;
  /// Fallback egress when no match FN decided (models the paper's one-hop
  /// port-wired eval topology); kNoRoute-like nullopt means "drop".
  std::optional<FaceId> default_egress;

  // ---- crypto state (OPT) ----------------------------------------------
  crypto::Block node_secret{};            ///< local secret for DRKey derivation
  crypto::MacKind mac_kind = crypto::MacKind::kEm2;
  /// AS-wide key for F_pass source-label verification (§2.4 security). The
  /// edge AS issues labels with it; every AS router can check them.
  crypto::Block pass_key{};
  /// F_pass enforcement toggle — operators "dynamically adjust security
  /// policies based on network conditions" (§2.4): when false, F_pass FNs
  /// are accepted without the (expensive) check.
  bool enforce_pass = false;

  // ---- disruption tolerance (docs/DTN.md) --------------------------------
  /// Overlay-wide key for F_custody chain-MAC verification and re-stamping
  /// (same trust model as pass_key: every custody-capable node holds it).
  crypto::Block custody_key{};
  /// Whether this node takes custody. When false, F_custody FNs are carried
  /// untouched — the node forwards the bundle but is not part of the DTN
  /// overlay, mirroring the §2.4 heterogeneous-deployment rule.
  bool accept_custody = false;
  /// The node's bounded dtn::CustodyStore, type-erased so core does not
  /// depend on dtn; dtn's node wrappers install and cast it.
  std::shared_ptr<void> custody_store;

  // ---- deployment configuration (§2.4) ----------------------------------
  /// FN keys this node refuses even if a module is linked in (heterogeneous
  /// AS configuration). Empty = support everything registered.
  std::set<OpKey> disabled_keys;

  // ---- security ----------------------------------------------------------
  ResourceLimits limits;

  // ---- bookkeeping ---------------------------------------------------------
  /// Relaxed-atomic counters (see dip/telemetry/counters.hpp): per-worker
  /// routers can expose them to a telemetry thread without data races.
  using Counters = telemetry::RouterCounters;
  Counters counters;

  /// Router-internal stats (latency histograms + trace ring); nullptr (the
  /// default) disables them — the hot path then pays one pointer test per
  /// burst and per FN, no clock reads, no allocation. Install with
  /// telemetry::make_router_stats(); a control thread may read the live
  /// block (see telemetry/stats.hpp for the ownership contract).
  std::unique_ptr<telemetry::RouterStats> stats;

  [[nodiscard]] std::uint64_t executions_of(OpKey key) const {
    return counters.fn_by_key[static_cast<std::size_t>(key) %
                              counters.fn_by_key.size()];
  }

  [[nodiscard]] bool supports(OpKey key) const {
    return !disabled_keys.contains(key);
  }
};

}  // namespace dip::core
