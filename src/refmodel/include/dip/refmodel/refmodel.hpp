// Executable-spec reference model of the DIP router (Algorithm 1).
//
// This is the *oracle* for the conformance harness: a deliberately simple,
// allocation-happy reimplementation of the fixed router loop and every op
// module, written straight from PAPER.md / DESIGN.md. It shares NO code with
// src/core/ — only the dip::bytes substrate (bit addressing, time) and the
// dip::crypto primitives (AES, CMAC, Xoshiro) which both sides treat as
// axioms. Everything the production router does observably — verdicts, drop
// reasons, egress sets, in-place header rewrites — this model must reproduce
// byte for byte; everything it does for speed (flow cache, batch phases,
// dense module tables, tree bitmaps) this model deliberately omits and
// replaces with the dumbest data structure that is obviously correct
// (linear-scan FIBs, std::map PIT, std::list LRU).
//
// P4's methodology (Bosshart et al.) separates the protocol-independent
// spec from the target; tests/conformance_test.cpp validates the target
// against this spec over generated packet streams.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dip/bytes/time.hpp"
#include "dip/crypto/aes.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/crypto/random.hpp"

namespace dip::refmodel {

// ---------------------------------------------------------------------------
// Verdict vocabulary — redeclared here (not shared with core) so a core enum
// renumbering cannot silently re-align a divergence. The harness maps both
// sides into a common image by *name*.
// ---------------------------------------------------------------------------

enum class RefAction : std::uint8_t { kForward, kDrop, kError };

enum class RefDrop : std::uint8_t {
  kNone,
  kNoRoute,
  kPitMiss,
  kHopLimitExceeded,
  kAuthFailed,
  kBudgetExhausted,
  kUnsupportedFn,
  kMalformed,
  kDuplicate,
  kPolicyDenied,
  kAggregated,
  kRateExceeded,
  kOverloadShed,
  kCorruptQuarantine,
};

/// Everything observable about one packet's fate (the wire bytes themselves
/// are the other half — RefNode::process mutates the packet in place exactly
/// like the production router).
struct RefVerdict {
  RefAction action = RefAction::kForward;
  RefDrop reason = RefDrop::kNone;
  std::vector<std::uint32_t> egress;
  std::uint16_t offending_key = 0;  ///< op key for kUnsupportedFn errors
  bool respond_from_cache = false;

  // Spec: a drop clears the egress set but leaves the rest of the verdict
  // (notably respond_from_cache) untouched — mirrored from the production
  // ProcessResult contract.
  void drop(RefDrop r) {
    action = RefAction::kDrop;
    reason = r;
    egress.clear();
  }
};

/// Deliberate spec mutations for the self-test: the conformance harness
/// seeds one, proves the property test catches it, and shrinks the failing
/// packet to a minimal reproducer (ISSUE 4 acceptance criterion).
enum class Mutation : std::uint8_t {
  kNone,
  /// F_32_match FIB miss reports kMalformed instead of kNoRoute.
  kWrongNoRouteReason,
  /// Hop-limit check off by one (drops at hop_limit == 2).
  kHopOffByOne,
};

/// Spec-level node configuration. Field defaults restate the §2.4 resource
/// limits and the production RouterEnv defaults.
struct RefConfig {
  std::uint32_t node_id = 0;
  crypto::Block node_secret{};
  crypto::MacKind mac_kind = crypto::MacKind::kEm2;
  crypto::Block pass_key{};
  bool enforce_pass = false;
  bool lenient = false;  ///< ValidationMode::kLenient (quarantine byte damage)
  std::optional<std::uint32_t> default_egress;
  std::uint32_t per_packet_budget = 64;
  std::uint32_t max_fn_per_packet = 16;
  // NDN state (spec: PIT entries expire; hard per-node state limit).
  SimDuration pit_lifetime = 4 * kSecond;
  std::size_t pit_max_entries = std::size_t{1} << 20;
  std::size_t content_store_capacity = 0;  ///< 0 = caching disabled
  // F_dps (optional module; off in the default registry).
  bool dps_enabled = false;
  std::uint64_t dps_seed = 1;
  std::uint64_t dps_capacity_bytes_per_sec = 1'000'000;
  SimDuration dps_window = 20 * kMillisecond;
  // F_custody / F_frag (optional DTN modules; off in the default registry).
  bool custody_enabled = false;
  bool custody_accept = false;  ///< this node takes custody (env.accept_custody)
  crypto::Block custody_key{};
  Mutation mutation = Mutation::kNone;
};

// ---------------------------------------------------------------------------
// Coverage ledger — which spec paths a stream actually exercised.
// ---------------------------------------------------------------------------

struct RefLedger {
  std::set<std::uint16_t> op_keys_executed;  ///< router-side FNs that ran
  std::set<std::uint16_t> op_keys_seen;      ///< incl. skipped/unsupported
  std::set<std::uint8_t> actions;
  std::set<std::uint8_t> reasons;

  void note(const RefVerdict& v) {
    actions.insert(static_cast<std::uint8_t>(v.action));
    reasons.insert(static_cast<std::uint8_t>(v.reason));
  }
};

// ---------------------------------------------------------------------------
// The reference node.
// ---------------------------------------------------------------------------

class RefNode {
 public:
  explicit RefNode(RefConfig config) : cfg_(std::move(config)), dps_rng_(cfg_.dps_seed) {
    dps_alpha_ = static_cast<double>(cfg_.dps_capacity_bytes_per_sec);
  }

  // -- table setup (mirrors the production env the harness builds) ----------
  void add_route32(std::uint32_t addr, std::uint8_t prefix_len, std::uint32_t nh);
  void add_route128(const std::array<std::uint8_t, 16>& addr, std::uint8_t prefix_len,
                    std::uint32_t nh);
  /// Route withdrawal (exact prefix); no-op if absent. Mirrors the churn
  /// the conformance harness drives through ctrl::RouteJournal.
  void remove_route32(std::uint32_t addr, std::uint8_t prefix_len);
  void remove_route128(const std::array<std::uint8_t, 16>& addr, std::uint8_t prefix_len);
  void add_xid_route(std::uint8_t type, const std::array<std::uint8_t, 20>& xid,
                     std::uint32_t nh);
  void set_xid_local(std::uint8_t type, const std::array<std::uint8_t, 20>& xid);
  void store_content(std::uint64_t name_code, std::span<const std::uint8_t> payload);

  /// Algorithm 1, spec edition: validate, decrement hop limit, run each FN
  /// front to back (back to front under verified modular parallelism), then
  /// fall back to the default egress. Mutates `packet` in place (hop limit,
  /// checksum, telemetry, PVF/OPV, HVF, DAG cursor) exactly as a conforming
  /// router must.
  RefVerdict process(std::span<std::uint8_t> packet, std::uint32_t ingress,
                     SimTime now);

  [[nodiscard]] const RefLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] std::uint64_t quarantined() const noexcept { return quarantined_; }
  [[nodiscard]] const RefConfig& config() const noexcept { return cfg_; }

 private:
  struct RefFn {
    std::uint16_t loc = 0;
    std::uint16_t len = 0;
    std::uint16_t op = 0;
    [[nodiscard]] bool host_tagged() const { return (op & 0x8000u) != 0; }
    [[nodiscard]] std::uint16_t key() const { return op & 0x7fffu; }
  };
  struct RefHeader {
    std::uint8_t next_header = 0;
    std::uint8_t fn_num = 0;
    std::uint8_t hop_limit = 0;
    bool parallel = false;
    std::uint16_t loc_len = 0;
    std::vector<RefFn> fns;
    std::span<std::uint8_t> raw;        // whole packet
    std::span<std::uint8_t> locations;  // FN-locations block
    std::span<std::uint8_t> payload;    // bytes after the header
  };
  struct Scratch {
    std::optional<crypto::Block> dynamic_key;
    std::optional<crypto::Block> mac;
  };

  // Wire (§2.2 / DESIGN.md §3): 6-byte basic header, 6-byte FN triples,
  // FN-locations block, payload. Returns nullopt on any byte damage.
  static std::optional<RefHeader> bind(std::span<std::uint8_t> packet);

  void dispatch(RefHeader& h, std::uint32_t ingress, SimTime now, RefVerdict& v);
  [[nodiscard]] bool relax_eligible(const RefHeader& h) const;
  /// Runs one FN; returns false when processing must stop.
  bool run_fn(const RefFn& fn, RefHeader& h, std::uint32_t ingress, SimTime now,
              std::uint32_t& budget, Scratch& scratch, RefVerdict& v);

  // Op modules, one method each, written from the spec. Each returns false
  // for a *status error* (malformed composition -> kMalformed drop); verdict
  // changes (drops with a protocol reason, egress sets) go through `v`.
  bool op_match32(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_match128(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_fib(const RefFn& fn, RefHeader& h, std::uint32_t ingress, SimTime now,
              RefVerdict& v);
  bool op_pit(const RefFn& fn, RefHeader& h, SimTime now, RefVerdict& v);
  bool op_parm(const RefFn& fn, RefHeader& h, Scratch& scratch);
  bool op_mac(const RefFn& fn, RefHeader& h, Scratch& scratch);
  bool op_mark(const RefFn& fn, RefHeader& h, Scratch& scratch);
  bool op_dag(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_intent(const RefFn& fn, RefHeader& h, std::uint32_t ingress, RefVerdict& v);
  bool op_pass(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_telemetry(const RefFn& fn, RefHeader& h, std::uint32_t ingress,
                    SimTime now);
  bool op_hvf(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_dps(const RefFn& fn, RefHeader& h, SimTime now, RefVerdict& v);
  bool op_custody(const RefFn& fn, RefHeader& h, RefVerdict& v);
  bool op_bundlefrag(const RefFn& fn, RefHeader& h);

  // Field slicing helpers (spec: FN fields are bit ranges into the
  // locations block; byte-aligned ranges slice in place).
  static std::span<std::uint8_t> field_bytes(const RefFn& fn, RefHeader& h);
  static std::optional<std::uint64_t> field_uint(const RefFn& fn, const RefHeader& h);

  // -- simple-as-possible state ---------------------------------------------
  struct Route32 {
    std::uint32_t addr;
    std::uint8_t len;
    std::uint32_t nh;
  };
  struct Route128 {
    std::array<std::uint8_t, 16> addr;
    std::uint8_t len;
    std::uint32_t nh;
  };
  struct PitEntry {
    std::vector<std::uint32_t> faces;
    SimTime expiry = 0;
  };

  std::optional<std::uint32_t> lookup32(std::uint32_t addr) const;
  std::optional<std::uint32_t> lookup128(const std::array<std::uint8_t, 16>& addr) const;
  void pit_expire(SimTime now);
  bool cs_contains(std::uint64_t code) const;
  void cs_insert(std::uint64_t code, std::span<const std::uint8_t> payload);

  RefConfig cfg_;
  std::vector<Route32> fib32_;
  std::vector<Route128> fib128_;
  std::map<std::pair<std::uint8_t, std::array<std::uint8_t, 20>>, std::uint32_t> xid_routes_;
  std::set<std::pair<std::uint8_t, std::array<std::uint8_t, 20>>> xid_local_;
  std::map<std::uint64_t, PitEntry> pit_;
  std::list<std::pair<std::uint64_t, std::vector<std::uint8_t>>> cs_lru_;  // front = MRU
  // F_dps fair-share estimator state (CSFQ, §5).
  crypto::Xoshiro256 dps_rng_;
  double dps_alpha_ = 0;
  SimTime dps_window_start_ = 0;
  std::uint64_t dps_window_bytes_ = 0;
  std::uint64_t dps_accepted_bytes_ = 0;
  std::uint32_t dps_max_label_ = 0;

  RefLedger ledger_;
  std::uint64_t quarantined_ = 0;
};

}  // namespace dip::refmodel
