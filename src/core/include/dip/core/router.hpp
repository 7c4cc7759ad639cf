// The Algorithm-1 router engine.
//
// Faithful to the paper's pseudocode:
//   1. parse basic DIP header (FN_Num, FN_LocLen)
//   2. parse FN[] according to FN_Num
//   3. extract FN_Loc according to FN_LocLen
//   4. for each FN: skip host-tagged; otherwise slice the target field and
//      dispatch on the operation key
//
// Dispatch is the natural for-loop over FN[] (what the paper wanted). The
// Tofino compromise of §4.1 — a fixed if-else ladder on FN_Num — is a
// hardware constraint; the PISA model enforces it (tna::kMaxUnrolledFns in
// pisa/tna_model.hpp).
//
// The fast path is process_batch: a run-to-completion, two-phase burst
// pipeline. Phase one binds every HeaderView, then validates structure,
// for the whole burst (branch-predictable, cache friendly). Phase two has
// one plan (DESIGN.md §10): it cuts the burst, in arrival order, before
// any packet whose first stateful (not burst_commutes) FN sits at an
// earlier position than the last stateful FN already in the segment. A
// segment of two or more packets runs position-major waves, module-major
// within a position, with a position's stateful FNs as one arrival-order
// group, so every stateful FN still runs in per-packet order. A segment
// of one runs its FNs one at a time: a flow-cached match FN through the
// match kernel as a group of one, the rest through run_fn. A §2.2
// parallel-bit packet that relax_eligible accepts runs its FNs back to
// front, in the waves or alone. process() is a thin batch-of-one wrapper,
// so every entry point shares one semantics. Per-FN module lookup goes
// through a dense, registry-epoch-validated table instead of the hash map,
// and the match FNs consult the RouterEnv flow cache before walking the
// FIB (see flow_cache.hpp); wave_match is the only code that probes, fills
// or applies it. A wave group's FIB walks (its flow-cache misses and its
// F_FIB items) run together as one interleaved batch before the group's
// modules execute.
//
// Observability: when RouterEnv::stats is installed, process_batch records
// bind/validate/dispatch phase latencies (sampled per burst), per-OpKey
// latencies and trace-ring records for sampled packets (see
// telemetry/stats.hpp and docs/OBSERVABILITY.md). A sampled packet runs
// exactly the code an unsampled one runs: run_fn times its module, and a
// batched kernel gives each sampled packet it executed the kernel's wall
// time divided by the packets it executed. With stats disabled the path
// stays clock-free.
//
// A Router is single-threaded by design; RouterPool shards packets across
// N routers for multi-core operation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/bytes/time.hpp"
#include "dip/core/burst.hpp"
#include "dip/core/env.hpp"
#include "dip/core/header.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/verdict.hpp"
#include "dip/crypto/drkey.hpp"

namespace dip::core {

/// How the router treats structurally damaged packets (chaos links flip
/// bytes; see docs/FAULTS.md).
///   * kStrict  — bind failures drop as kMalformed (historical behaviour).
///   * kLenient — bind failures are quarantined: dropped as
///     kCorruptQuarantine, counted in counters.quarantined, and
///     force-recorded into the TraceRing (the sampler is bypassed so no
///     corrupt packet escapes the ledger). An FN slice that overruns the
///     locations block fails bind (HeaderView::bind_into), so it is
///     quarantined here too.
enum class ValidationMode : std::uint8_t { kStrict, kLenient };

/// One slot of a burst handed to Router::process_batch: a view over the
/// full mutable packet bytes (header + payload; tag fields are rewritten
/// in place).
struct PacketRef {
  std::span<std::uint8_t> bytes;

  PacketRef() = default;
  PacketRef(std::span<std::uint8_t> b) : bytes(b) {}
  PacketRef(std::vector<std::uint8_t>& owned) : bytes(owned) {}
};

class Router {
 public:
  Router(RouterEnv env, const OpRegistry* registry)
      : env_(std::move(env)), registry_(registry) {}

  /// Process one DIP packet in place (tag fields may be rewritten).
  /// `packet` is the full DIP packet: header + payload. Thin wrapper over a
  /// batch of one.
  [[nodiscard]] ProcessResult process(std::span<std::uint8_t> packet, FaceId ingress,
                                      SimTime now);

  /// Process a burst run-to-completion; results[i] is packet[i]'s verdict.
  /// `results.size()` must be >= `packets.size()`; slots are reset (their
  /// egress capacity is reused, so a caller that keeps its results buffer
  /// across bursts never allocates on the steady path).
  void process_batch(std::span<const PacketRef> packets, FaceId ingress, SimTime now,
                     std::span<ProcessResult> results);

  /// Convenience overload allocating the result vector.
  [[nodiscard]] std::vector<ProcessResult> process_batch(
      std::span<const PacketRef> packets, FaceId ingress, SimTime now);

  [[nodiscard]] RouterEnv& env() noexcept { return env_; }
  [[nodiscard]] const RouterEnv& env() const noexcept { return env_; }
  [[nodiscard]] ValidationMode validation() const noexcept { return validation_; }
  void set_validation(ValidationMode m) noexcept { validation_ = m; }

 private:
  /// Dense module table size; OpKey values live well below this.
  static constexpr std::size_t kModuleTableSize = 64;

  struct FnRunState {
    std::uint32_t budget = 0;
    OpScratch scratch;
  };

  /// Push one sampled packet's execution record into the stats trace ring.
  void record_trace(const HeaderView& view, FaceId ingress, SimTime now,
                    std::uint64_t t_start, const ProcessResult& result);

  /// Lenient-mode quarantine of a packet that failed bind: tag the result,
  /// bump the quarantined counter, and force a trace-ring record.
  void quarantine(FaceId ingress, SimTime now, ProcessResult& result);

  /// Phase-2 state of one burst: per-packet arrays indexed by burst
  /// position, arena-backed and rewound with the arena at the next burst.
  struct BurstState {
    FaceId ingress = 0;
    SimTime now = 0;
    std::span<ProcessResult> results;
    FnRunState* run = nullptr;        ///< budget and FN scratch
    std::uint8_t* alive = nullptr;    ///< no FN has stopped the packet yet
    std::uint8_t* sampled = nullptr;  ///< the stats sampler picked it
    std::uint8_t* mirror = nullptr;   ///< §2.2 relaxed: FNs run back to front
    std::uint8_t* fn_idx = nullptr;   ///< FN index the packet runs now
    bool timed = false;               ///< the stats sampler picked some packet
  };

  // Wave buckets past the dense keys (a commuting in-table module is its
  // own key): stateful FNs, host-tagged FNs, keys without a module.
  static constexpr std::uint8_t kStatefulBucket = kModuleTableSize;
  static constexpr std::uint8_t kHostBucket = kModuleTableSize + 1;
  static constexpr std::uint8_t kMiscBucket = kModuleTableSize + 2;

  /// Phase 2 of process_batch: cut the burst into arrival-order segments,
  /// run each through waves (or run_alone for a segment of one), then the
  /// default-egress/trace/tally epilogue. Accumulates the phase's action
  /// tallies into the caller's locals.
  void dispatch_burst(std::size_t n, FaceId ingress, SimTime now,
                      std::span<ProcessResult> results, telemetry::RouterStats* stats,
                      std::uint64_t& forwarded, std::uint64_t& dropped,
                      std::uint64_t& errors);

  /// Run packet i's FNs in header order or mirrored: a flow-cached match
  /// FN through wave_match as a group of one, every other FN through run_fn.
  void run_alone(BurstState& b, std::size_t i);

  /// Run the segment [begin, end) (two or more bound packets) as
  /// position-major waves, module-major within each position.
  void run_waves(BurstState& b, std::size_t begin, std::size_t end, std::size_t max_fns);

  /// The wave bucket of `fn`; kStatefulBucket iff the FN is stateful (its
  /// module does not burst_commute).
  [[nodiscard]] std::uint8_t bucket_of(const FnTriple& fn) const noexcept;

  /// The FN packet p runs now (b.fn_idx[p]).
  [[nodiscard]] const FnTriple& wave_fn(const BurstState& b, std::size_t p) const noexcept {
    return views_[p].fns()[b.fn_idx[p]];
  }

  /// Route one wave group to its kernel: host-tag skips, stateful and
  /// module-less FNs per item, the §2.4 unsupported handling once per
  /// group, then flow-cache match / batched crypto / per-item fallback.
  void wave_group(BurstState& b, std::uint8_t bucket, const std::uint32_t* items,
                  std::size_t count);

  // Wave-group kernels (contracts in router.cpp). `items` are packet
  // indices of one same-bucket group, in arrival order. Each hands the
  // items it cannot batch to wave_run_items after its own work.
  void wave_match(BurstState& b, OpKey key, OpModule* module, const std::uint32_t* items,
                  std::size_t count);
  void wave_parm(BurstState& b, OpModule* module, const std::uint32_t* items,
                 std::size_t count);
  void wave_mac(BurstState& b, OpModule* module, const std::uint32_t* items,
                std::size_t count);
  /// Fallback kernel: run each item through run_fn, in arrival order, after
  /// resolving the group's F_FIB lookups together.
  void wave_run_items(BurstState& b, const std::uint32_t* items, std::size_t count);

  /// Whether the stats sampler picked one of the group's items: a kernel
  /// reads the clock only then.
  [[nodiscard]] static bool group_sampled(const BurstState& b, const std::uint32_t* items,
                                          std::size_t count) noexcept;

  /// A batched kernel started at `t0` executed `executed` packets, `sampled`
  /// of them picked by the stats sampler: count the executions, and give
  /// each sampled one an fn_ns sample of the kernel's wall time divided by
  /// `executed`.
  void record_kernel(OpKey key, std::uint64_t t0, std::uint64_t executed,
                     std::uint64_t sampled);

  /// Run packet p's current FN (Algorithm 1's loop body) and clear
  /// b.alive[p] when processing must stop (drop/error). `next_hop` is the
  /// field's FIB answer when the wave group resolved it (resolve_lookups);
  /// it reaches the module through OpContext::next_hop, and `walk_ns`, the
  /// item's share of that walk, joins a sampled packet's fn_ns sample.
  /// Defined inline in router.cpp, its only caller.
  inline void run_fn(BurstState& b, std::size_t p,
                     std::optional<fib::NextHop> next_hop = std::nullopt,
                     std::uint64_t walk_ns = 0);

  /// Resolve a wave group's FIB lookups before the group runs in arrival
  /// order: the fields of the items with want[k] set (F_32_match/F_FIB
  /// fields in `f32`, F_128_match fields in `f128`; the caller checked
  /// width, alignment and that the view exists) are answered by one
  /// lookup_batch per table into answers[k], fib::kNoRoute for no route.
  /// The views are the ones the group read once, so the answers match the
  /// generation its flow-cache probes use; none outlives the burst.
  void resolve_lookups(const BurstState& b, const std::uint32_t* items, std::size_t count,
                       const std::uint8_t* want, const fib::Ipv4Lpm* f32,
                       const fib::Ipv6Lpm* f128, fib::NextHop* answers);

  /// True when every router-side FN is order-independent and their target
  /// fields are pairwise disjoint — the safety condition for relaxing
  /// run_fn order under the parallel bit.
  [[nodiscard]] static bool relax_eligible(const HeaderView& view) noexcept;

  [[nodiscard]] OpModule* find_module(OpKey key) const noexcept;
  void refresh_module_table();

  RouterEnv env_;
  const OpRegistry* registry_;
  ValidationMode validation_ = ValidationMode::kStrict;

  // Dense key->module table rebuilt when the registry epoch moves (the §5
  // runtime-upgrade path keeps working; steady-state lookups are one load).
  std::array<OpModule*, kModuleTableSize> module_table_{};
  std::uint64_t module_epoch_ = ~std::uint64_t{0};

  // Batch scratch, kept across bursts so the steady path never allocates.
  std::vector<HeaderView> views_;
  std::vector<std::uint8_t> bound_;

  /// Per-burst bump arena backing the wave scratch (work items, run states,
  /// crypto lanes); reset at every burst boundary, so warmed-up bursts
  /// never touch the heap.
  BurstArena arena_;

  /// Cached AES schedule for the F_parm wave (K = AES_{node_secret}(sid));
  /// rebuilt lazily when env_.node_secret changes. Router-local (one per
  /// pool worker), so caching here is safe where caching inside the
  /// registry-shared ParmOp module would race.
  std::optional<crypto::DrKey> drkey_;
  crypto::Block drkey_secret_{};
};

}  // namespace dip::core
