// Shared plumbing for the dipbench workloads: clocks, windowed statistics,
// the result report, the span tracer and the seam probes (probes.cpp).
//
// Steadiness: the host this benchmark was tuned on runs the same binary at
// rates that differ by up to 2x in phases lasting from tens of seconds to
// minutes, so a whole-run mean mostly measures which phase the run landed
// in. Each run is therefore cut into fixed wall-time windows, every timing
// metric is computed per window, and the report takes a fixed rank across
// windows: a high rank for rates, a low rank for latencies (the windows that
// ran in a fast phase). The all-window median is kept beside it as a
// diagnostic. A run that lies wholly inside a slow phase still reads slow;
// the spread across seeded runs (perfbench/steady.py) shows how often.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile of `v` (copied; linear interpolation between order statistics).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Ranks taken across a run's windows: rates high, latencies (and the
/// per-window median reconvergence time) low.
inline constexpr double kRateRank = 0.95;
inline constexpr double kLatencyRank = 0.05;

/// Log-linear histogram of nanosecond values (32 sub-buckets per octave,
/// ~3% resolution, up to ~9 h). Quantiles interpolate inside the bucket.
/// Kept small: a run holds one per window, and rss_mib counts them.
class LogHist {
 public:
  void add(std::uint64_t v, std::uint64_t weight = 1);
  void merge(const LogHist& o);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 41;
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  [[nodiscard]] static double bucket_low(std::size_t b) noexcept;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kSub * kOctaves, 0);
  std::uint64_t count_ = 0;
};

/// One measurement window: completions, time spent inside the program's
/// calls, the latency samples that completed in it, and the route-change
/// reconvergence times that ended in it.
struct Window {
  std::uint64_t ok = 0;
  std::uint64_t busy_ns = 0;
  LogHist latency;
  std::vector<double> reconverge_ms;
};

/// Fixed wall-time windows from `t0`; the last, partial window is dropped.
/// Rates and latency quantiles come only from windows that spent at least
/// half their span inside the program's calls: a window cut short by a
/// set-up, a flap or a traced segment holds too few samples, and an extreme
/// rank would pick exactly those. Every window with reconvergence samples
/// counts for those.
class WindowSeries {
 public:
  WindowSeries() = default;
  WindowSeries(std::uint64_t window_ns, std::uint64_t t0) : window_ns_(window_ns), t0_(t0) {}

  Window& at(std::uint64_t t);
  /// Close the series at `t_end` (drops a trailing partial window).
  void close(std::uint64_t t_end);

  [[nodiscard]] std::vector<double> rates() const;  ///< ok per busy second
  [[nodiscard]] std::vector<double> latency_quantiles(double q) const;  ///< ns
  [[nodiscard]] std::vector<double> reconverge_medians() const;        ///< ms
  [[nodiscard]] const std::vector<Window>& windows() const noexcept { return windows_; }

 private:
  [[nodiscard]] bool timed(const Window& w) const noexcept;

  std::uint64_t window_ns_ = 50'000'000;
  std::uint64_t t0_ = 0;
  std::vector<Window> windows_;
};

/// What one run reports: metrics by name with unit, diagnostics, counts.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> diag;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) { errors.push_back(what); }
  [[nodiscard]] bool correct() const noexcept { return errors.empty() && failed == 0; }

  /// Throughput, p50/p99 latency and reconvergence (per-window median) from
  /// a window series, each at its rank, plus their all-window medians and
  /// spreads as diagnostics.
  void set_window_metrics(const WindowSeries& series);
};

/// Run parameters shared by all workloads.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< where the traced run writes its spans
};

// ---- seam probes (probes.cpp) ----------------------------------------------

/// Calls and nanoseconds through one wrapped seam.
struct Seam {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  void add(std::uint64_t d) noexcept {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const noexcept {
    const auto c = calls.load(std::memory_order_relaxed);
    return c ? static_cast<double>(ns.load(std::memory_order_relaxed)) / c : 0.0;
  }
};

/// Counters fed by the --wrap wrappers and the operator-new replacement.
/// Everything counts only while `on` is set (traced segments).
struct Probes {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> allocs{0};
  Seam send, recv, encode, decode, impair, batch;
  Seam poll;       ///< zero-timeout readiness polls (syscall cost)
  Seam poll_wait;  ///< timed polls: the loop parked waiting for work
  std::atomic<std::uint64_t> recv_again{0};  ///< recvfrom calls that found nothing
  std::atomic<std::uint64_t> batch_pkts{0};  ///< packets through process_batch
  std::atomic<std::uint64_t> holdbacks{0};   ///< impairer reorder decisions

  void reset() noexcept;
};

[[nodiscard]] Probes& probes() noexcept;

/// Steady-clock start of the last process_batch on this thread (traced
/// segments only); a RouterPool completion reads it to derive ring wait.
[[nodiscard]] std::uint64_t last_batch_start_ns() noexcept;

// ---- span tracer -------------------------------------------------------------

/// In-memory spans (name, start, end, parent, request id) recorded around the
/// benchmark's calls into each layer. Single-threaded: the recording thread
/// is the benchmark thread. Per-name totals and self times are aggregated as
/// spans close; raw spans are kept up to a cap and written at exit.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span; returns a handle for end() (kNone when disabled).
  std::uint32_t begin(const char* name, std::uint64_t request);
  void end(std::uint32_t handle);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Keyed by the span name literal (no allocation while tracing).
  [[nodiscard]] const std::map<const char*, Totals>& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] Totals totals_of(const char* name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? Totals{} : it->second;
  }
  /// Write the kept spans as JSON lines; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint64_t start;
    std::uint64_t end;
  };
  struct Open {
    std::uint32_t kept;  ///< index into spans_, or kNone past the cap
    const char* name;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  static constexpr std::size_t kKeep = 1u << 18;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<const char*, Totals> totals_;
};

/// RAII span; a disabled tracer costs one branch.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t request = 0)
      : tracer_(t), handle_(t.enabled() ? t.begin(name, request) : Tracer::kNone) {}
  ~Scoped() {
    if (handle_ != Tracer::kNone) tracer_.end(handle_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Record self times and the share each top-level span spends in children.
void report_span_totals(const Tracer& tracer, Report& report);

// ---- process context -----------------------------------------------------

[[nodiscard]] double peak_rss_mib();
/// CPU time of the calling thread (ns).
[[nodiscard]] std::uint64_t thread_cpu_ns();
/// Context switches (voluntary + involuntary) of one thread of this process.
[[nodiscard]] std::uint64_t thread_ctx_switches(long tid);
[[nodiscard]] long current_tid();

// ---- workloads -------------------------------------------------------------

int run_router_mix(const RunConfig& cfg, Report& report);
int run_pool_dip32(const RunConfig& cfg, Report& report);
int run_mesh_torus(const RunConfig& cfg, Report& report);

}  // namespace perfbench
