// Small measurement helpers shared by the benchmark phases: clocks,
// order statistics, registry-snapshot deltas, resident-set probes, an
// in-memory span recorder, and the named-metric sink every phase reports
// into.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Linear-interpolated quantile of `v` (copied, so callers keep order).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest of the usual percentiles that still has at least ten
/// samples above it; `label` is e.g. "p95". With fewer than 20 samples
/// there is no such percentile and the maximum is reported as "max".
struct Tail {
  std::string label;
  double value = 0;
  std::size_t samples = 0;
};

/// That percentile for `n` samples, as a quantile level and a label.
inline std::pair<double, const char*> tail_level(std::uint64_t n) {
  static const std::pair<double, const char*> kLevels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
      {0.90, "p90"},    {0.75, "p75"}, {0.50, "p50"}};
  for (const auto& level : kLevels) {
    if (static_cast<double>(n) * (1.0 - level.first) >= 10.0) return level;
  }
  return {1.0, "max"};
}

inline Tail tail_of(const std::vector<double>& v) {
  const auto [q, label] = tail_level(v.size());
  return {label, quantile(v, q), v.size()};
}

/// `after` minus `before` for one counter of two registry snapshots.
inline std::uint64_t counter_delta(const ccsig::obs::MetricsSnapshot& before,
                                   const ccsig::obs::MetricsSnapshot& after,
                                   const char* name) {
  const auto* a = after.counter(name);
  const auto* b = before.counter(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

/// `after` minus `before` for one histogram of two registry snapshots.
inline ccsig::obs::HistogramSnapshot histogram_delta(
    const ccsig::obs::MetricsSnapshot& before,
    const ccsig::obs::MetricsSnapshot& after, const char* name) {
  ccsig::obs::HistogramSnapshot d;
  if (const auto* a = after.histogram(name)) d = *a;
  if (const auto* b = before.histogram(name)) {
    for (std::size_t i = 0; i < d.buckets.size() && i < b->buckets.size();
         ++i) {
      d.buckets[i] -= b->buckets[i];
    }
    d.sum -= b->sum;
  }
  return d;
}

/// Resident-set probes over /proc/self (Linux). The peak is reset before
/// each measured pass so the high-water mark covers that pass alone.
long current_rss_kb();
long peak_rss_kb();
void reset_peak_rss();
/// Returns freed heap to the kernel so the next pass starts from the
/// live set rather than from pages an earlier pass left cached.
void release_free_heap();

/// 64-bit FNV-1a over bytes, chained through `h`.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Spans recorded by the benchmark around its calls into the program:
/// name, start, end, parent span, and the flow/rep id they belong to
/// (-1 for phase-level spans). Kept in memory; written once at exit.
/// Single-threaded by design — only the driving thread records.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int64_t id;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, std::int64_t id = -1) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations (ms) and count of spans named `name` whose parent
  /// is `parent` (any parent when -2).
  double total_ms(const std::string& name, int parent = -2) const;
  std::size_t count(const std::string& name, int parent = -2) const;
  double duration_ms(int idx) const {
    const Span& s = spans_[static_cast<std::size_t>(idx)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  /// Sum of the direct children's durations of span `idx`, in ms.
  double children_ms(int idx) const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t id = -1)
      : t_(t), idx_(t.begin(name, id)) {}
  ~ScopedSpan() { t_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return idx_; }

 private:
  Tracer& t_;
  int idx_;
};

/// Named metrics with units, in insertion order of first set.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (values_.find(name) == values_.end()) order_.push_back(name);
    values_[name] = {value, unit};
  }
  const std::vector<std::string>& order() const { return order_; }
  const std::pair<double, std::string>& at(const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

/// Correctness tally: every checked operation (a flow verdict or a rep)
/// is attempted once; failed ones carry a reason for the log.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;  // at most a few, for stderr

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 8) first_failures.push_back(what);
  }
};

}  // namespace perfbench
