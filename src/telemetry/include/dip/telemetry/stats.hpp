// RouterStats — the per-router observability block behind RouterEnv::stats.
//
// A RouterEnv with stats == nullptr (the default) pays exactly one pointer
// test per burst plus one per FN; nothing is allocated and no clock is
// read. Installing a RouterStats turns on:
//
//   * phase latency histograms — bind / validate / dispatch wall time per
//     burst, recorded for 1-in-burst_period bursts;
//   * per-OpKey latency histograms — module execution wall time, recorded
//     for the packets the 1-in-sample_period Sampler picks;
//   * the trace ring — one TraceRecord per sampled packet.
//
// Both samplers are deterministic counters, so a replayed packet stream
// yields the identical sample set (the property stats_test pins down).
// Histograms are relaxed-atomic and the trace ring is drain-safe, so a
// control thread can read a live worker's block — same ownership story as
// RouterCounters.
//
// Dependency-free on purpose (see counters.hpp): dip::core embeds this
// struct inside RouterEnv.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "dip/telemetry/counters.hpp"
#include "dip/telemetry/histogram.hpp"
#include "dip/telemetry/trace_ring.hpp"

namespace dip::telemetry {

struct RouterStatsConfig {
  /// Per-packet sampling period for per-FN timing + trace records
  /// (0 = off, 1 = every packet). Defaults keep the enabled-overhead on the
  /// batch-32 fast path under the 3% budget (DESIGN.md §9): a sampled packet
  /// costs ~6 clock reads plus a trace push, so at 1-in-256 the amortized
  /// per-packet cost stays below one clock read.
  std::uint32_t sample_period = 256;
  /// Per-burst sampling period for the phase histograms.
  std::uint32_t burst_period = 8;
  /// Trace ring capacity (records; rounded up to a power of two).
  std::size_t trace_capacity = 1024;
};

struct RouterStats {
  /// Slot count for the per-OpKey series; keys index modulo this, matching
  /// RouterCounters::fn_by_key.
  static constexpr std::size_t kOpKeySlots = 32;

  explicit RouterStats(RouterStatsConfig cfg = {})
      : trace(cfg.trace_capacity),
        packet_sampler(cfg.sample_period),
        burst_sampler(cfg.burst_period),
        config(cfg) {}

  // ---- recorded series (control-thread readable) ------------------------
  LatencyHistogram phase_bind;      ///< burst HeaderView::bind wall ns
  LatencyHistogram phase_validate;  ///< burst structural-check wall ns
  LatencyHistogram phase_dispatch;  ///< burst FN-dispatch wall ns
  /// Module execution wall ns per operation key (sampled packets only).
  std::array<LatencyHistogram, kOpKeySlots> fn_ns{};
  TraceRing trace;

  // ---- burst-pipeline gauges (dip_burst_* / dip_arena_*) -----------------
  // Per-phase burst occupancy: how many packets entered phase 1a, survived
  // bind+validate into phase 2, and how phase 2 ran them
  // (burst_bound == burst_wave + burst_legacy).
  RelaxedCounter burst_packets;  ///< packets entering phase 1a (bind)
  RelaxedCounter burst_bound;    ///< packets entering phase 2 (dispatch)
  /// Phase-2 packets run in waves: segments of two or more packets.
  RelaxedCounter burst_wave;
  /// Phase-2 packets run alone through the per-packet loop: one-packet
  /// bursts and one-packet segments.
  RelaxedCounter burst_legacy;
  /// Burst-arena footprint (bytes): peak demand of any one burst, and the
  /// retained chunk-chain reserve (monotone; the arena never shrinks).
  MaxGauge arena_high_water;
  MaxGauge arena_capacity;

  // ---- samplers (worker-thread only) ------------------------------------
  Sampler packet_sampler;
  Sampler burst_sampler;

  RouterStatsConfig config;
};

/// Convenience factory for RouterEnv::stats.
[[nodiscard]] inline std::unique_ptr<RouterStats> make_router_stats(
    RouterStatsConfig config = {}) {
  return std::make_unique<RouterStats>(config);
}

}  // namespace dip::telemetry
