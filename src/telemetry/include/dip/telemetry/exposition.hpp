// Text exposition: Prometheus-style `name{label="v"} value` rendering.
//
// StatsWriter formats individual series lines; the write_* helpers render
// whole snapshots (counters, histograms, a RouterStats snapshot); and
// StatsRegistry collects named render callbacks so a process can compose
// one exposition page from many sources (a RouterPool, simulator nodes,
// app-level gauges) — the shape dump_stats() builds on.
//
// Header-only on purpose: dip::core's RouterPool::dump_stats() uses these
// helpers, and dip_telemetry (the static lib) links dip_core — an
// out-of-line implementation would cycle the link graph.
//
// The metric name catalogue and label conventions are documented in
// docs/OBSERVABILITY.md; the format itself is pinned by the golden test in
// tests/stats_test.cpp.
#pragma once

#include <cstdio>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dip/telemetry/counters.hpp"
#include "dip/telemetry/stats.hpp"

namespace dip::telemetry {

struct Label {
  std::string_view key;
  std::string_view value;
};

/// Maps a fn_by_key slot index to its Table-1 notation ("F_32_match").
/// Provided by the caller (core::op_key_name lives above this layer);
/// nullptr falls back to "key<i>".
using KeyNamer = std::string_view (*)(std::size_t);

class StatsWriter {
 public:
  /// Emit one series line: name{k1="v1",k2="v2"} value
  void line(std::string_view name, std::span<const Label> labels,
            std::string_view value) {
    out_.append(name);
    if (!labels.empty()) {
      out_.push_back('{');
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i != 0) out_.push_back(',');
        out_.append(labels[i].key);
        out_.append("=\"");
        out_.append(labels[i].value);
        out_.push_back('"');
      }
      out_.push_back('}');
    }
    out_.push_back(' ');
    out_.append(value);
    out_.push_back('\n');
  }

  void counter(std::string_view name, std::span<const Label> labels,
               std::uint64_t value) {
    line(name, labels, std::to_string(value));
  }

  void gauge(std::string_view name, std::span<const Label> labels, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    line(name, labels, buf);
  }

  /// Emit a `# ...` comment line (section headers in composed pages).
  void comment(std::string_view text) {
    out_.append("# ");
    out_.append(text);
    out_.push_back('\n');
  }

  void append_raw(std::string_view text) { out_.append(text); }

  [[nodiscard]] const std::string& text() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  std::string out_;
};

namespace detail {
/// base labels + one extra, preserving order (base first).
inline std::vector<Label> with_label(std::span<const Label> base, Label extra) {
  std::vector<Label> l(base.begin(), base.end());
  l.push_back(extra);
  return l;
}
}  // namespace detail

/// Render one counter block. With a `worker` (or `node`) label in `base`
/// these are the per-worker series; without labels, the fleet view.
inline void write_counter_snapshot(StatsWriter& w, const CounterSnapshot& s,
                                   std::span<const Label> base,
                                   KeyNamer namer = nullptr) {
  w.counter("dip_packets_processed_total", base, s.processed);
  w.counter("dip_packets_forwarded_total", base, s.forwarded);
  w.counter("dip_packets_dropped_total", base, s.dropped);
  w.counter("dip_packet_errors_total", base, s.errors);
  w.counter("dip_packets_quarantined_total", base, s.quarantined);
  w.counter("dip_batches_total", base, s.batches);
  w.counter("dip_fn_executed_total", base, s.fn_executed);
  w.counter("dip_fn_skipped_host_total", base, s.fn_skipped_host);
  w.counter("dip_fn_skipped_optional_total", base, s.fn_skipped_optional);
  w.counter("dip_parallel_relaxed_total", base, s.parallel_relaxed);
  w.counter("dip_parallel_fallback_total", base, s.parallel_fallback);
  w.counter("dip_flow_cache_hits_total", base, s.flow_cache_hits);
  w.counter("dip_flow_cache_misses_total", base, s.flow_cache_misses);
  w.gauge("dip_flow_cache_hit_rate", base, s.flow_cache_hit_rate());
  for (std::size_t i = 0; i < s.fn_by_key.size(); ++i) {
    if (s.fn_by_key[i] == 0) continue;
    const std::string fallback = "key" + std::to_string(i);
    const std::string_view name = namer != nullptr ? namer(i) : fallback;
    const auto labels = detail::with_label(base, {"fn", name});
    w.counter("dip_fn_executions_total", labels, s.fn_by_key[i]);
  }
}

/// Render one histogram: p50/p90/p99 quantile gauges, cumulative non-empty
/// buckets (`le` = inclusive upper bound in ns, then "+Inf"), count, sum.
/// Empty histograms emit nothing.
inline void write_histogram(StatsWriter& w, std::string_view name,
                            std::span<const Label> base,
                            const HistogramSnapshot& h) {
  if (h.count == 0) return;
  for (const double q : {0.5, 0.9, 0.99}) {
    char qbuf[16];
    std::snprintf(qbuf, sizeof(qbuf), "%g", q);
    const auto labels = detail::with_label(base, {"quantile", qbuf});
    w.gauge(name, labels, h.quantile(q));
  }
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    cum += h.buckets[i];
    const std::string le = std::to_string(histogram_bucket_upper(i));
    const auto labels = detail::with_label(base, {"le", le});
    w.counter(bucket_name, labels, cum);
  }
  w.counter(bucket_name, detail::with_label(base, {"le", "+Inf"}), h.count);
  w.counter(std::string(name) + "_count", base, h.count);
  w.counter(std::string(name) + "_sum", base, h.sum);
}

/// Render a RouterStats snapshot (one router's, or several merged):
/// phase + per-OpKey latency histograms, the trace ring's sampling meters,
/// and the burst-pipeline occupancy and arena series.
inline void write_router_stats(StatsWriter& w, const RouterStats::Snapshot& stats,
                               std::span<const Label> base,
                               KeyNamer namer = nullptr) {
  struct Phase {
    std::string_view name;
    const HistogramSnapshot& hist;
  };
  const Phase phases[] = {{"bind", stats.phase_bind},
                          {"validate", stats.phase_validate},
                          {"dispatch", stats.phase_dispatch}};
  for (const auto& p : phases) {
    const auto labels = detail::with_label(base, {"phase", p.name});
    write_histogram(w, "dip_phase_latency_ns", labels, p.hist);
  }
  for (std::size_t i = 0; i < stats.fn_ns.size(); ++i) {
    const HistogramSnapshot& h = stats.fn_ns[i];
    if (h.count == 0) continue;
    const std::string fallback = "key" + std::to_string(i);
    const std::string_view name = namer != nullptr ? namer(i) : fallback;
    const auto labels = detail::with_label(base, {"fn", name});
    write_histogram(w, "dip_fn_latency_ns", labels, h);
  }
  w.counter("dip_trace_sampled_total", base, stats.trace_sampled);
  w.counter("dip_trace_dropped_total", base, stats.trace_dropped);
  w.counter("dip_burst_packets_total", base, stats.burst_packets);
  w.counter("dip_burst_bound_total", base, stats.burst_bound);
  w.counter("dip_burst_wave_total", base, stats.burst_wave);
  w.counter("dip_burst_legacy_total", base, stats.burst_legacy);
  w.gauge("dip_arena_high_water_bytes", base,
          static_cast<double>(stats.arena_high_water));
  w.gauge("dip_arena_capacity_bytes", base, static_cast<double>(stats.arena_capacity));
}

/// Named render callbacks composing one exposition page. Registration is
/// mutex-guarded; render() runs the collectors in registration order, each
/// under a `# == <name> ==` comment line.
class StatsRegistry {
 public:
  using Collector = std::function<void(StatsWriter&)>;

  void add(std::string name, Collector collector) {
    std::lock_guard<std::mutex> lk(m_);
    collectors_.emplace_back(std::move(name), std::move(collector));
  }

  [[nodiscard]] std::string render() const {
    std::lock_guard<std::mutex> lk(m_);
    StatsWriter w;
    for (const auto& [name, collector] : collectors_) {
      StatsWriter section;
      collector(section);
      const std::string body = section.take();
      if (body.empty()) continue;
      w.comment("== " + name + " ==");
      w.append_raw(body);
    }
    return w.take();
  }

 private:
  mutable std::mutex m_;
  std::vector<std::pair<std::string, Collector>> collectors_;
};

}  // namespace dip::telemetry
