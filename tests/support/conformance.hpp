// Shared fixture for the conformance harness: builds the production RouterEnv
// and the refmodel oracle from the SAME world constants
// (tests/proptest/generators.hpp), and maps both sides' verdicts into one
// comparable image *by name* so an enum renumbering on either side cannot
// mask a divergence.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dip/core/engine.hpp"
#include "dip/core/flow_cache.hpp"
#include "dip/core/registry.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/dtn/custody.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/qos/dps.hpp"
#include "dip/refmodel/refmodel.hpp"
#include "dip/xia/dag.hpp"

#include "../proptest/generators.hpp"

namespace dip::conformance {

namespace w = proptest::world;

// ---------------------------------------------------------------------------
// World construction — both sides from the same constants.
// ---------------------------------------------------------------------------

/// The default registry plus (optionally) the stateful F_dps module and the
/// DTN custody pair (F_custody/F_frag).
inline std::shared_ptr<core::OpRegistry> make_registry(bool with_dps,
                                                       bool with_custody = false) {
  std::shared_ptr<core::OpRegistry> registry = netsim::make_default_registry();
  if (with_dps) {
    registry->add(std::make_unique<qos::DpsOp>(
        qos::FairShareEstimator::Config{w::kDpsCapacity, w::kDpsWindow}, w::kDpsSeed));
  }
  if (with_custody) dtn::add_custody_modules(*registry);
  return registry;
}

/// Route tables shared by every engine worker (read-mostly, per env.hpp).
/// When `control` is set (attach_control), the env factory wires every
/// worker env to the RCU snapshots instead and the static pointers serve
/// only as the seed.
struct SharedTables {
  std::shared_ptr<fib::Ipv4Lpm> fib32;
  std::shared_ptr<fib::Ipv6Lpm> fib128;
  std::shared_ptr<fib::XidTable> xid_table;
  std::shared_ptr<ctrl::ControlTables> control;
};

/// Wrap the static tables in control-plane snapshots (seeded from them) and
/// return the single-writer journal for driving churn.
inline std::shared_ptr<ctrl::RouteJournal> attach_control(SharedTables& t) {
  auto tables = std::make_shared<ctrl::ControlTables>();
  auto journal = std::make_shared<ctrl::RouteJournal>(tables);
  journal->seed(t.fib32.get(), t.fib128.get(), t.xid_table.get());
  t.control = tables;
  return journal;
}

inline SharedTables make_shared_tables() {
  SharedTables t;
  t.fib32 = std::make_shared<fib::Ipv4Lpm>();
  t.fib32->insert({fib::ipv4_from_u32(w::kNet10), 8}, w::kNh10);
  t.fib32->insert({fib::ipv4_from_u32(w::kNet10_64), 10}, w::kNh10_64);
  t.fib128 = std::make_shared<fib::Ipv6Lpm>();
  t.fib128->insert({fib::Ipv6Addr{w::kNet128}, 32}, w::kNh128);
  t.xid_table = std::make_shared<fib::XidTable>();
  t.xid_table->insert(fib::XidType::kAd, w::ad_routed(), w::kNhAd);
  t.xid_table->set_local(fib::XidType::kAd, w::ad_local());
  t.xid_table->set_local(fib::XidType::kHid, w::hid_local());
  t.xid_table->set_local(fib::XidType::kSid, w::sid_local());
  t.xid_table->insert(fib::XidType::kSid, w::sid_local(), w::kNhSid);
  t.xid_table->set_local(fib::XidType::kCid, w::cid_hit());
  t.xid_table->set_local(fib::XidType::kCid, w::cid_miss());
  return t;
}

/// An EnvFactory over one set of shared tables: per-worker PIT/CS/flow-cache,
/// shared FIBs — exactly the RouterPool sharding contract.
inline core::EnvFactory make_env_factory(const SharedTables& tables,
                                         bool with_flow_cache = true) {
  return [tables, with_flow_cache](std::size_t) {
    core::RouterEnv env;
    env.node_id = w::kNodeId;
    env.fib32 = tables.fib32;
    env.fib128 = tables.fib128;
    env.xid_table = tables.xid_table;
    if (tables.control) {
      env.control = tables.control;
      env.ctrl_reader = tables.control->register_reader();
    }
    env.pit = pit::Pit(pit::Pit::Config{w::kPitLifetime, w::kPitMaxEntries});
    env.content_store.emplace(w::kContentStoreCapacity);
    env.content_store->insert(w::kCachedName, w::cached_payload());
    env.content_store->insert(xia::xid_code(w::cid_hit()), w::cached_payload());
    if (with_flow_cache) env.flow_cache = std::make_unique<core::FlowCache>();
    env.default_egress = w::kDefaultEgress;
    env.node_secret = w::node_secret();
    env.pass_key = w::pass_key();
    env.enforce_pass = true;
    // Inert without the custody modules in the registry (the default): the
    // custody streams opt in via make_registry(with_custody).
    env.custody_key = w::custody_key();
    env.accept_custody = true;
    env.limits.per_packet_budget = w::kBudget;
    env.limits.max_fn_per_packet = w::kMaxFnPerPacket;
    return env;
  };
}

/// The refmodel twin of make_env_factory's environment.
inline refmodel::RefNode make_ref_node(
    bool lenient, bool dps_enabled = false,
    refmodel::Mutation mutation = refmodel::Mutation::kNone,
    bool custody_enabled = false) {
  refmodel::RefConfig cfg;
  cfg.node_id = w::kNodeId;
  cfg.node_secret = w::node_secret();
  cfg.pass_key = w::pass_key();
  cfg.enforce_pass = true;
  cfg.lenient = lenient;
  cfg.default_egress = w::kDefaultEgress;
  cfg.per_packet_budget = w::kBudget;
  cfg.max_fn_per_packet = w::kMaxFnPerPacket;
  cfg.pit_lifetime = w::kPitLifetime;
  cfg.pit_max_entries = w::kPitMaxEntries;
  cfg.content_store_capacity = w::kContentStoreCapacity;
  cfg.dps_enabled = dps_enabled;
  cfg.dps_seed = w::kDpsSeed;
  cfg.dps_capacity_bytes_per_sec = w::kDpsCapacity;
  cfg.dps_window = w::kDpsWindow;
  cfg.custody_enabled = custody_enabled;
  cfg.custody_accept = true;
  cfg.custody_key = w::custody_key();
  cfg.mutation = mutation;
  refmodel::RefNode node(cfg);
  node.add_route32(w::kNet10, 8, w::kNh10);
  node.add_route32(w::kNet10_64, 10, w::kNh10_64);
  node.add_route128(w::kNet128, 32, w::kNh128);
  node.add_xid_route(static_cast<std::uint8_t>(fib::XidType::kAd),
                     w::ad_routed().bytes, w::kNhAd);
  node.set_xid_local(static_cast<std::uint8_t>(fib::XidType::kAd), w::ad_local().bytes);
  node.set_xid_local(static_cast<std::uint8_t>(fib::XidType::kHid),
                     w::hid_local().bytes);
  node.set_xid_local(static_cast<std::uint8_t>(fib::XidType::kSid),
                     w::sid_local().bytes);
  node.add_xid_route(static_cast<std::uint8_t>(fib::XidType::kSid),
                     w::sid_local().bytes, w::kNhSid);
  node.set_xid_local(static_cast<std::uint8_t>(fib::XidType::kCid), w::cid_hit().bytes);
  node.set_xid_local(static_cast<std::uint8_t>(fib::XidType::kCid),
                     w::cid_miss().bytes);
  node.store_content(w::kCachedName, w::cached_payload());
  node.store_content(xia::xid_code(w::cid_hit()), w::cached_payload());
  return node;
}

// ---------------------------------------------------------------------------
// Verdict comparison — both enums mapped BY NAME into one image.
// ---------------------------------------------------------------------------

struct VerdictImage {
  int action = 0;  // 0 forward, 1 drop, 2 error
  int reason = 0;  // common DropReason ordinal
  std::vector<std::uint32_t> egress;
  std::uint16_t offending_key = 0;
  bool respond_from_cache = false;

  friend bool operator==(const VerdictImage&, const VerdictImage&) = default;
};

inline int image_of(core::Action a) {
  switch (a) {
    case core::Action::kForward: return 0;
    case core::Action::kDrop: return 1;
    case core::Action::kError: return 2;
  }
  return -1;
}

inline int image_of(refmodel::RefAction a) {
  switch (a) {
    case refmodel::RefAction::kForward: return 0;
    case refmodel::RefAction::kDrop: return 1;
    case refmodel::RefAction::kError: return 2;
  }
  return -1;
}

inline int image_of(core::DropReason r) {
  switch (r) {
    case core::DropReason::kNone: return 0;
    case core::DropReason::kNoRoute: return 1;
    case core::DropReason::kPitMiss: return 2;
    case core::DropReason::kHopLimitExceeded: return 3;
    case core::DropReason::kAuthFailed: return 4;
    case core::DropReason::kBudgetExhausted: return 5;
    case core::DropReason::kUnsupportedFn: return 6;
    case core::DropReason::kMalformed: return 7;
    case core::DropReason::kDuplicate: return 8;
    case core::DropReason::kPolicyDenied: return 9;
    case core::DropReason::kAggregated: return 10;
    case core::DropReason::kRateExceeded: return 11;
    case core::DropReason::kOverloadShed: return 12;
    case core::DropReason::kCorruptQuarantine: return 13;
  }
  return -1;
}

inline int image_of(refmodel::RefDrop r) {
  switch (r) {
    case refmodel::RefDrop::kNone: return 0;
    case refmodel::RefDrop::kNoRoute: return 1;
    case refmodel::RefDrop::kPitMiss: return 2;
    case refmodel::RefDrop::kHopLimitExceeded: return 3;
    case refmodel::RefDrop::kAuthFailed: return 4;
    case refmodel::RefDrop::kBudgetExhausted: return 5;
    case refmodel::RefDrop::kUnsupportedFn: return 6;
    case refmodel::RefDrop::kMalformed: return 7;
    case refmodel::RefDrop::kDuplicate: return 8;
    case refmodel::RefDrop::kPolicyDenied: return 9;
    case refmodel::RefDrop::kAggregated: return 10;
    case refmodel::RefDrop::kRateExceeded: return 11;
    case refmodel::RefDrop::kOverloadShed: return 12;
    case refmodel::RefDrop::kCorruptQuarantine: return 13;
  }
  return -1;
}

inline VerdictImage image_of(const core::ProcessResult& r) {
  VerdictImage v;
  v.action = image_of(r.action);
  v.reason = image_of(r.reason);
  v.egress.assign(r.egress.begin(), r.egress.end());
  v.offending_key = static_cast<std::uint16_t>(r.offending_key);
  v.respond_from_cache = r.respond_from_cache;
  return v;
}

inline VerdictImage image_of(const refmodel::RefVerdict& r) {
  VerdictImage v;
  v.action = image_of(r.action);
  v.reason = image_of(r.reason);
  v.egress = r.egress;
  v.offending_key = r.offending_key;
  v.respond_from_cache = r.respond_from_cache;
  return v;
}

inline std::string to_string(const VerdictImage& v) {
  std::ostringstream os;
  os << "{action=" << v.action << " reason=" << v.reason << " egress=[";
  for (std::size_t i = 0; i < v.egress.size(); ++i) {
    os << (i ? "," : "") << v.egress[i];
  }
  os << "] offending=" << v.offending_key
     << " cache=" << (v.respond_from_cache ? 1 : 0) << "}";
  return os.str();
}

inline std::string dump_packet(const std::vector<std::uint8_t>& p) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(p.size() * 2);
  for (const std::uint8_t b : p) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

}  // namespace dip::conformance
