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
// hardware constraint; the PISA model enforces it (max_unrolled_fns in
// pisa/dip_program.hpp).
//
// The fast path is process_batch: a run-to-completion, two-phase burst
// pipeline. Phase one binds every HeaderView and validates structure for
// the whole burst (branch-predictable, cache friendly); phase two
// dispatches FNs in module-major waves, with a per-packet path for the
// packets waves cannot take (DESIGN.md §10). Waves and software prefetch
// are always on. process() is a thin batch-of-one wrapper, so both paths
// share one semantics. Per-FN module lookup goes through a dense,
// registry-epoch-validated table instead of the hash map, and the match FNs
// consult the RouterEnv flow cache before walking the FIB (see
// flow_cache.hpp). A wave group's FIB walks (its flow-cache misses and its
// F_FIB items) run together as one interleaved batch before the group's
// modules execute.
//
// Observability: when RouterEnv::stats is installed, process_batch records
// bind/validate/dispatch phase latencies (sampled per burst), per-OpKey
// module latencies, and trace-ring records for sampled packets (see
// telemetry/stats.hpp and docs/OBSERVABILITY.md). With stats disabled the
// path stays clock-free.
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
///   * kLenient — bind failures *and* FN slices that overrun the locations
///     block are quarantined: dropped as kCorruptQuarantine, counted in
///     counters.quarantined, and force-recorded into the TraceRing (the
///     sampler is bypassed so no corrupt packet escapes the ledger).
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

  /// Run one FN; returns false when processing must stop (drop/error).
  /// `next_hop` is the field's FIB answer when the wave group resolved it
  /// (resolve_lookups); it reaches the module through OpContext::next_hop.
  bool run_fn(const FnTriple& fn, HeaderView& view, FaceId ingress, SimTime now,
              FnRunState& state, ProcessResult& result,
              std::optional<fib::NextHop> next_hop = std::nullopt);

  /// Execute a match FN through the flow cache (memoized FIB verdict).
  bool run_match(const FnTriple& fn, OpModule* module, HeaderView& view,
                 FaceId ingress, SimTime now, FnRunState& state,
                 ProcessResult& result);

  /// Push one sampled packet's execution record into the stats trace ring.
  void record_trace(const HeaderView& view, FaceId ingress, SimTime now,
                    std::uint64_t t_start, const ProcessResult& result);

  /// Lenient-mode quarantine: tag the result, bump the quarantined counter,
  /// and force a trace-ring record (`view` may be null when bind failed).
  void quarantine(const HeaderView* view, FaceId ingress, SimTime now,
                  ProcessResult& result);

  /// True when every FN slice fits inside the locations block (lenient-mode
  /// structural check; corrupt loc/len triples fail this).
  [[nodiscard]] static bool fns_fit(const HeaderView& view) noexcept;

  /// Phase 2 of process_batch: classify the burst, run eligible packets
  /// through position-major waves (module-major within each wave), the
  /// rest through the legacy per-packet path. Accumulates the phase's
  /// action tallies into the caller's locals.
  /// `waves_allowed`/`exemplar`/`uniform` carry phase 1's uniform-program
  /// detection (exemplar == packet count when no packet bound).
  void dispatch_burst(std::span<const PacketRef> packets, FaceId ingress, SimTime now,
                      std::span<ProcessResult> results, telemetry::RouterStats* stats,
                      bool waves_allowed, std::size_t exemplar, bool uniform,
                      std::uint64_t& forwarded, std::uint64_t& dropped,
                      std::uint64_t& errors);

  /// Uniform-burst fast plan: every bound packet carries the identical FN
  /// program (same triples, no parallel bit, <=1 stateful FN), so each
  /// wave is one whole-burst group in arrival order — no per-packet
  /// classification and no counting sort. `exemplar` indexes the packet
  /// whose program stands for the burst.
  void dispatch_burst_uniform(std::size_t n, FaceId ingress, SimTime now,
                              std::span<ProcessResult> results,
                              telemetry::RouterStats* stats, std::size_t exemplar,
                              std::uint8_t* smp, std::uint8_t* alive,
                              FnRunState* states, std::uint64_t& forwarded,
                              std::uint64_t& dropped, std::uint64_t& errors);

  /// Route one same-key wave group to its kernel: the §2.4 unsupported
  /// handling once per group, then flow-cache match / batched crypto /
  /// per-item fallback.
  void wave_group(OpKey key, OpModule* module, std::size_t pos,
                  const std::uint16_t* items, std::size_t count, FaceId ingress,
                  SimTime now, FnRunState* states, std::uint8_t* alive,
                  const std::uint8_t* sampled, std::span<ProcessResult> results);

  // Wave-group kernels (contracts in router.cpp). `items` are packet
  // indices of one same-key group at FN position `pos`, in arrival order.
  void wave_match(OpKey key, OpModule* module, std::size_t pos,
                  const std::uint16_t* items, std::size_t count, FaceId ingress,
                  SimTime now, FnRunState* states, std::uint8_t* alive,
                  const std::uint8_t* sampled, std::span<ProcessResult> results);
  void wave_parm(OpModule* module, std::size_t pos, const std::uint16_t* items,
                 std::size_t count, FnRunState* states, std::uint8_t* alive,
                 const std::uint8_t* sampled, std::span<ProcessResult> results,
                 FaceId ingress, SimTime now);
  void wave_mac(OpModule* module, std::size_t pos, const std::uint16_t* items,
                std::size_t count, FnRunState* states, std::uint8_t* alive,
                const std::uint8_t* sampled, std::span<ProcessResult> results,
                FaceId ingress, SimTime now);
  /// Fallback kernel: run each item through run_fn (exact legacy per-FN
  /// semantics), in arrival order, after resolving the group's F_FIB
  /// lookups together.
  void wave_run_items(std::size_t pos, const std::uint16_t* items, std::size_t count,
                      FaceId ingress, SimTime now, FnRunState* states,
                      std::uint8_t* alive, const std::uint8_t* sampled,
                      std::span<ProcessResult> results);

  /// Resolve a wave group's FIB lookups before the group runs in arrival
  /// order: the fields of the items with want[k] set (F_32_match/F_FIB
  /// fields in `f32`, F_128_match fields in `f128`; the caller checked
  /// width, alignment and that the view exists) are answered by one
  /// lookup_batch per table into answers[k], fib::kNoRoute for no route.
  /// The views are the ones the group read once, so the answers match the
  /// generation its flow-cache probes use; none outlives the burst.
  void resolve_lookups(std::size_t pos, const std::uint16_t* items, std::size_t count,
                       const std::uint8_t* want, const fib::Ipv4Lpm* f32,
                       const fib::Ipv6Lpm* f128, fib::NextHop* answers);

  /// Per-packet dispatch: the FN loop in header order, or the relaxed
  /// schedule when the parallel bit is set and safe.
  void dispatch(HeaderView& view, FaceId ingress, SimTime now, ProcessResult& result);
  /// Relaxed-order schedule for the §2.2 parallel bit (any order is legal;
  /// we run the FN list back to front).
  void dispatch_relaxed(HeaderView& view, FaceId ingress, SimTime now,
                        ProcessResult& result);

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
  // True while dispatching a packet the stats sampler picked: run_fn then
  // times module execution into env_.stats->fn_ns. Always false when stats
  // are disabled, so the per-FN cost is a single predictable branch.
  bool sample_this_packet_ = false;
};

}  // namespace dip::core
