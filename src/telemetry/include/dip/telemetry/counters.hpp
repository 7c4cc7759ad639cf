// Thread-safe data-plane counters.
//
// Per-worker routers in a RouterPool each own a RouterCounters block and
// bump it with relaxed atomics, so a shared sink (or a sampling thread
// reading another worker's block) is race-free. Snapshots are plain
// integers; aggregate() folds the per-worker blocks into one fleet view.
//
// This header is dependency-free on purpose: dip::core embeds
// RouterCounters inside RouterEnv, so it must not pull core headers in.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>

namespace dip::telemetry {

/// A monotonically increasing event counter with relaxed-atomic updates.
///
/// Copy/move load the source value (counters are copied only at setup or
/// snapshot time, never on the hot path), which keeps the containing
/// structs movable — std::atomic alone would delete those operations.
class RelaxedCounter {
 public:
  constexpr RelaxedCounter() noexcept = default;
  constexpr RelaxedCounter(std::uint64_t v) noexcept : value_(v) {}
  RelaxedCounter(const RelaxedCounter& other) noexcept : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) noexcept {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return load(); }

  std::uint64_t operator++() noexcept {
    return value_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  RelaxedCounter& operator+=(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A monotone high-water gauge: record() keeps the maximum ever seen.
/// Relaxed-atomic with the same copy semantics as RelaxedCounter.
class MaxGauge {
 public:
  constexpr MaxGauge() noexcept = default;
  MaxGauge(const MaxGauge& other) noexcept : value_(other.load()) {}
  MaxGauge& operator=(const MaxGauge& other) noexcept {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return load(); }

  void record(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Plain-integer image of one RouterCounters block (or a sum of several).
struct CounterSnapshot {
  std::uint64_t processed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errors = 0;
  std::uint64_t quarantined = 0;  ///< lenient-mode corrupt-FN-list drops
  std::uint64_t fn_executed = 0;
  std::uint64_t fn_skipped_host = 0;
  std::uint64_t fn_skipped_optional = 0;
  std::uint64_t flow_cache_hits = 0;
  std::uint64_t flow_cache_misses = 0;
  std::uint64_t parallel_relaxed = 0;
  std::uint64_t parallel_fallback = 0;
  std::uint64_t batches = 0;
  std::array<std::uint64_t, 32> fn_by_key{};

  CounterSnapshot& operator+=(const CounterSnapshot& o) noexcept {
    processed += o.processed;
    forwarded += o.forwarded;
    dropped += o.dropped;
    errors += o.errors;
    quarantined += o.quarantined;
    fn_executed += o.fn_executed;
    fn_skipped_host += o.fn_skipped_host;
    fn_skipped_optional += o.fn_skipped_optional;
    flow_cache_hits += o.flow_cache_hits;
    flow_cache_misses += o.flow_cache_misses;
    parallel_relaxed += o.parallel_relaxed;
    parallel_fallback += o.parallel_fallback;
    batches += o.batches;
    for (std::size_t i = 0; i < fn_by_key.size(); ++i) fn_by_key[i] += o.fn_by_key[i];
    return *this;
  }

  /// Flow-cache hit rate in [0,1]; 0 when the cache saw no traffic.
  [[nodiscard]] double flow_cache_hit_rate() const noexcept {
    const std::uint64_t total = flow_cache_hits + flow_cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(flow_cache_hits) /
                                  static_cast<double>(total);
  }
};

/// The per-router counter block (embedded in core::RouterEnv).
struct RouterCounters {
  RelaxedCounter processed;
  RelaxedCounter forwarded;
  RelaxedCounter dropped;
  RelaxedCounter errors;
  RelaxedCounter quarantined;  ///< lenient-mode corrupt-FN-list drops
  RelaxedCounter fn_executed;
  RelaxedCounter fn_skipped_host;
  RelaxedCounter fn_skipped_optional;
  RelaxedCounter flow_cache_hits;
  RelaxedCounter flow_cache_misses;
  /// Parallel-bit packets run with relaxed (back-to-front) FN order (§2.2).
  RelaxedCounter parallel_relaxed;
  /// Parallel-bit packets run in header order: an order-dependent FN or
  /// overlapping slices made them ineligible.
  RelaxedCounter parallel_fallback;
  RelaxedCounter batches;            ///< process_batch invocations
  /// Executions per operation key (indexed by the low key bits).
  std::array<RelaxedCounter, 32> fn_by_key{};

  [[nodiscard]] CounterSnapshot snapshot() const noexcept {
    CounterSnapshot s;
    s.processed = processed;
    s.forwarded = forwarded;
    s.dropped = dropped;
    s.errors = errors;
    s.quarantined = quarantined;
    s.fn_executed = fn_executed;
    s.fn_skipped_host = fn_skipped_host;
    s.fn_skipped_optional = fn_skipped_optional;
    s.flow_cache_hits = flow_cache_hits;
    s.flow_cache_misses = flow_cache_misses;
    s.parallel_relaxed = parallel_relaxed;
    s.parallel_fallback = parallel_fallback;
    s.batches = batches;
    for (std::size_t i = 0; i < fn_by_key.size(); ++i) s.fn_by_key[i] = fn_by_key[i];
    return s;
  }
};

/// Fold the per-worker counter blocks into one snapshot (the RouterPool
/// aggregation helper).
[[nodiscard]] inline CounterSnapshot aggregate(
    std::span<const RouterCounters* const> workers) noexcept {
  CounterSnapshot total;
  for (const RouterCounters* w : workers) {
    if (w != nullptr) total += w->snapshot();
  }
  return total;
}

}  // namespace dip::telemetry
