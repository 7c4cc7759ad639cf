// RouterStats — the per-router observability block behind RouterEnv::stats.
//
// A RouterEnv with stats == nullptr (the default) pays one pointer test
// per burst plus one flag test per FN; nothing is allocated and no clock
// is read. Installing a RouterStats turns on:
//
//   * phase latency histograms — bind / validate / dispatch wall time per
//     burst, recorded for 1-in-burst_period bursts;
//   * per-OpKey latency histograms — execution wall time, recorded for the
//     packets the 1-in-sample_period Sampler picks (a batched kernel gives
//     each execution its share of the kernel's wall time);
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

#include <algorithm>
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
  /// batch-32 fast path under the 3% budget (DESIGN.md §9): a burst holding
  /// a sampled packet costs a few clock reads (docs/OBSERVABILITY.md counts
  /// them) plus a trace push per sampled packet, so at 1-in-256 the
  /// amortized per-packet cost stays below one clock read.
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
  /// Execution wall ns per operation key (sampled packets only; a batched
  /// kernel records each execution's share of its wall time).
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

  /// Plain-integer image of the recorded series, or the sum of several
  /// routers' images: counts and histograms add, arena_high_water takes
  /// the max, arena_capacity adds the retained reserves.
  struct Snapshot {
    HistogramSnapshot phase_bind;
    HistogramSnapshot phase_validate;
    HistogramSnapshot phase_dispatch;
    std::array<HistogramSnapshot, kOpKeySlots> fn_ns{};
    std::uint64_t trace_sampled = 0;  ///< TraceRing::pushed()
    std::uint64_t trace_dropped = 0;
    std::uint64_t burst_packets = 0;
    std::uint64_t burst_bound = 0;
    std::uint64_t burst_wave = 0;
    std::uint64_t burst_legacy = 0;
    std::uint64_t arena_high_water = 0;
    std::uint64_t arena_capacity = 0;

    Snapshot& operator+=(const Snapshot& o) noexcept {
      phase_bind += o.phase_bind;
      phase_validate += o.phase_validate;
      phase_dispatch += o.phase_dispatch;
      for (std::size_t i = 0; i < fn_ns.size(); ++i) fn_ns[i] += o.fn_ns[i];
      trace_sampled += o.trace_sampled;
      trace_dropped += o.trace_dropped;
      burst_packets += o.burst_packets;
      burst_bound += o.burst_bound;
      burst_wave += o.burst_wave;
      burst_legacy += o.burst_legacy;
      arena_high_water = std::max(arena_high_water, o.arena_high_water);
      arena_capacity += o.arena_capacity;
      return *this;
    }
  };

  /// Safe while the owning router runs (relaxed reads, like the series).
  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.phase_bind = phase_bind.snapshot();
    s.phase_validate = phase_validate.snapshot();
    s.phase_dispatch = phase_dispatch.snapshot();
    for (std::size_t i = 0; i < fn_ns.size(); ++i) s.fn_ns[i] = fn_ns[i].snapshot();
    s.trace_sampled = trace.pushed();
    s.trace_dropped = trace.dropped();
    s.burst_packets = burst_packets.load();
    s.burst_bound = burst_bound.load();
    s.burst_wave = burst_wave.load();
    s.burst_legacy = burst_legacy.load();
    s.arena_high_water = arena_high_water.load();
    s.arena_capacity = arena_capacity.load();
    return s;
  }
};

/// Convenience factory for RouterEnv::stats.
[[nodiscard]] inline std::unique_ptr<RouterStats> make_router_stats(
    RouterStatsConfig config = {}) {
  return std::make_unique<RouterStats>(config);
}

}  // namespace dip::telemetry
