// dipbench — the repository benchmark driver (see perfbench/README.md).
//
//   dipbench --workload router_mix|pool_dip32|mesh_torus --seed N
//            --seconds S --trace 0|1 --out result.json [--spans spans.jsonl]
//
// Runs one seeded workload against the program's public APIs, checks its
// outputs, and writes every metric it measured (with units), the
// attempted/failed counts and diagnostics to --out as one JSON object.
// perfbench/run.py builds this binary and turns that file into the
// benchmark's result line. Exit status: 0 when every check passed, 1 when
// a correctness check failed, 2 on bad arguments, 3 for a non-Release build.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---- LogHist ----------------------------------------------------------------

std::size_t LogHist::bucket_of(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int octave = 63 - __builtin_clzll(v);  // >= kSubBits
  const int shift = octave - kSubBits;
  const auto sub = static_cast<std::size_t>((v >> shift) - kSub);
  const std::size_t b = static_cast<std::size_t>(octave - kSubBits + 1) * kSub + sub;
  return std::min<std::size_t>(b, kSub * kOctaves - 1);
}

double LogHist::bucket_low(std::size_t b) noexcept {
  if (b < kSub) return static_cast<double>(b);
  const std::size_t octave = b / kSub + kSubBits - 1;
  const std::size_t sub = b % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(octave) - kSubBits);
}

void LogHist::add(std::uint64_t v, std::uint64_t weight) {
  buckets_[bucket_of(v)] += weight;
  count_ += weight;
}

void LogHist::merge(const LogHist& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double LogHist::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const double next = cum + static_cast<double>(buckets_[b]);
    if (next >= target) {
      const double lo = bucket_low(b);
      const double hi = bucket_low(b + 1);
      const double frac = (target - cum) / static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return bucket_low(buckets_.size() - 1);
}

// ---- windows ------------------------------------------------------------------

Window& WindowSeries::at(std::uint64_t t) {
  const std::size_t idx = t > t0_ ? static_cast<std::size_t>((t - t0_) / window_ns_) : 0;
  if (idx >= windows_.size()) windows_.resize(idx + 1);
  return windows_[idx];
}

void WindowSeries::close(std::uint64_t t_end) {
  const std::size_t full = t_end > t0_ ? static_cast<std::size_t>((t_end - t0_) / window_ns_) : 0;
  if (windows_.size() > full) windows_.resize(full);
}

bool WindowSeries::timed(const Window& w) const noexcept {
  return w.ok != 0 && w.latency.count() != 0 && 2 * w.busy_ns >= window_ns_;
}

std::vector<double> WindowSeries::rates() const {
  std::vector<double> out;
  out.reserve(windows_.size());
  for (const Window& w : windows_) {
    if (timed(w)) out.push_back(static_cast<double>(w.ok) * 1e9 / static_cast<double>(w.busy_ns));
  }
  return out;
}

std::vector<double> WindowSeries::latency_quantiles(double q) const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    if (timed(w)) out.push_back(w.latency.quantile(q));
  }
  return out;
}

std::vector<double> WindowSeries::reconverge_medians() const {
  std::vector<double> out;
  for (const Window& w : windows_) {
    if (!w.reconverge_ms.empty()) out.push_back(median(w.reconverge_ms));
  }
  return out;
}

namespace {

double spread(const std::vector<double>& v) {
  const double m = median(v);
  return m > 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m : 0.0;
}

}  // namespace

void Report::set_window_metrics(const WindowSeries& series) {
  const std::vector<double> rates = series.rates();
  const std::vector<double> p50 = series.latency_quantiles(0.50);
  const std::vector<double> p99 = series.latency_quantiles(0.99);
  const std::vector<double> reconverge = series.reconverge_medians();
  set("throughput_pps", quantile(rates, kRateRank), "pkt/s");
  set("latency_p50_us", quantile(p50, kLatencyRank) / 1e3, "us");
  set("latency_p99_us", quantile(p99, kLatencyRank) / 1e3, "us");
  set("reconverge_ms", quantile(reconverge, kLatencyRank), "ms");
  diag["windows"] = static_cast<double>(rates.size());
  diag["throughput_pps.window_median"] = median(rates);
  diag["latency_p50_us.window_median"] = median(p50) / 1e3;
  diag["latency_p99_us.window_median"] = median(p99) / 1e3;
  diag["reconverge_ms.window_median"] = median(reconverge);
  diag["throughput_pps.window_spread"] = spread(rates);
  diag["latency_p50_us.window_spread"] = spread(p50);
  diag["latency_p99_us.window_spread"] = spread(p99);
  diag["reconverge_ms.window_spread"] = spread(reconverge);
  std::uint64_t samples = 0;
  for (const Window& w : series.windows()) samples += w.latency.count();
  diag["latency_samples"] = static_cast<double>(samples);
  diag["reconverge_samples"] = static_cast<double>(reconverge.size());
}

// ---- tracer -------------------------------------------------------------------

std::uint32_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::uint64_t t = now_ns();
  std::uint32_t kept = kNone;
  if (spans_.capacity() == 0) spans_.reserve(kKeep);  // no growth inside traced segments
  if (spans_.size() < kKeep) {
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back().kept;
    kept = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, parent, request, t, 0});
  }
  stack_.push_back({kept, name, t, 0});
  return static_cast<std::uint32_t>(stack_.size() - 1);
}

void Tracer::end(std::uint32_t /*handle*/) {
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - open.start;
  if (open.kept != kNone) spans_[open.kept].end = t;
  Totals& tot = totals_[open.name];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":"
        << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

void report_span_totals(const Tracer& tracer, Report& report) {
  for (const auto& [name, t] : tracer.totals()) {
    const std::string key = std::string("span.") + name;
    report.diag[key + ".count"] = static_cast<double>(t.count);
    report.diag[key + ".total_ns"] = static_cast<double>(t.total_ns);
    report.diag[key + ".self_ns"] = static_cast<double>(t.self_ns);
  }
}

// ---- process context ------------------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

long current_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

std::uint64_t thread_ctx_switches(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
        line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      total += std::strtoull(line.substr(line.find(':') + 1).c_str(), nullptr, 10);
    }
  }
  return total;
}

}  // namespace perfbench

namespace {

using perfbench::Report;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream s;
  s << std::setprecision(10) << v;
  return s.str();
}

std::string json_string(std::string_view v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool write_report(const std::string& path, const Report& r, std::string_view workload) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\":" << json_string(workload)
      << ",\"correct\":" << (r.correct() ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"build\":{\"type\":" << json_string(DIPBENCH_BUILD_TYPE)
      << ",\"cxx_flags\":" << json_string(DIPBENCH_CXX_FLAGS)
      << ",\"compiler\":" << json_string(DIPBENCH_COMPILER) << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  out << "},\"diag\":{";
  first = true;
  for (const auto& [name, v] : r.diag) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  out << "},\"errors\":[";
  first = true;
  for (const std::string& e : r.errors) {
    out << (first ? "" : ",") << json_string(e);
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: dipbench --workload router_mix|pool_dip32|mesh_torus --seed N "
               "--seconds S --trace 0|1 --out FILE [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Same rule as bench/bench_guard.hpp: numbers from an assertions build
  // are not baselines.
  std::fprintf(stderr, "dipbench: refusing to run a non-Release build\n");
  return 3;
#endif
  if (std::string_view(DIPBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "dipbench: refusing build type '%s' (Release only)\n",
                 DIPBENCH_BUILD_TYPE);
    return 3;
  }

  std::string workload, out_path;
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::string_view(value) == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      cfg.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || out_path.empty() || cfg.seconds <= 0) return usage();

  Report report;
  int rc = 0;
  if (workload == "router_mix") {
    rc = perfbench::run_router_mix(cfg, report);
  } else if (workload == "pool_dip32") {
    rc = perfbench::run_pool_dip32(cfg, report);
  } else if (workload == "mesh_torus") {
    rc = perfbench::run_mesh_torus(cfg, report);
  } else {
    return usage();
  }
  for (const std::string& e : report.errors) std::fprintf(stderr, "dipbench: %s\n", e.c_str());
  if (!write_report(out_path, report, workload)) {
    std::fprintf(stderr, "dipbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (rc != 0) return rc;
  return report.correct() ? 0 : 1;
}
