// The process-wide metrics registry (the observability layer's §2-style
// "performance recording" counters): named counters, gauges and
// fixed-bucket latency histograms whose hot path is a single atomic add.
//
// Shape:
//   * instruments are created on first use and live forever (references
//     stay valid for the process lifetime — call sites may cache them);
//   * name -> instrument resolution is lock-striped: a short stripe mutex
//     guards the map probe, then the update itself is lock-free;
//   * histograms use one shared exponential bucket layout (~1.58x per
//     bucket, covering 1e-3 .. ~1e10 in whatever unit the caller uses),
//     so p50/p95/p99/max come from bucket interpolation with bounded
//     error and are monotone in the percentile by construction;
//   * exposition: Prometheus-style text and a JSON snapshot.
//
// GlobalMetrics() is the process singleton. On first use it installs
// itself as the ExecContext global sink, so every ctx.Count/Observe call
// site (cache.*, pool.*, tde.*, service.*) feeds the global registry.

#ifndef VIZQUERY_OBS_METRICS_H_
#define VIZQUERY_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/exec_context.h"

namespace vizq::obs {

// Monotonically increasing counter. Hot path: one relaxed atomic add.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins instantaneous value (bytes in cache, pool occupancy).
class Gauge {
 public:
  void Set(double v) { bits_.store(Pack(v), std::memory_order_relaxed); }
  double value() const { return Unpack(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Pack(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Unpack(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{Pack(0.0)};
};

// Fixed-bucket latency/size histogram. Observe() is wait-free: one bucket
// add plus count/sum/min/max updates, no locks. Unit-agnostic — callers
// pick the unit and put it in the name (…_us, …_ms).
class Histogram {
 public:
  // Bucket i counts values in (UpperBound(i-1), UpperBound(i)];
  // bucket 0 additionally absorbs everything <= its bound (and <= 0).
  static constexpr int kNumBuckets = 64;
  // Exponential bounds: kMinBound * kGrowth^i. A quantile landing in
  // bucket i is interpolated linearly between LowerBound(i) and
  // UpperBound(i) by its rank within the bucket — i.e. the reported value
  // approaches the bucket's *upper bound* as the rank approaches the last
  // observation in the bucket.
  static double UpperBound(int bucket);
  static double LowerBound(int bucket);  // 0 for bucket 0

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;
  double mean() const;
  // Interpolated percentile, p in [0, 100]. Clamped to [min, max] so the
  // bucket interpolation never reports a value outside what was observed.
  // Equivalent to Quantiles({p})[0].
  double Percentile(double p) const;

  // Interpolates every requested quantile (each in [0, 100]) over ONE
  // consistent copy of the bucket counts, in a single walk. This is the
  // monotonicity-safe way to report several quantiles of a live
  // histogram: back-to-back Percentile() calls each re-read the atomic
  // buckets, so a concurrent Observe() landing between the p50 and the
  // p95 read could yield p95 < p50. The returned values are monotone in
  // the requested quantile (for sorted `ps`) by construction.
  std::vector<double> Quantiles(const std::vector<double>& ps) const;

  std::vector<int64_t> BucketCounts() const;

 private:
  static int BucketFor(double value);

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double, CAS-accumulated
  std::atomic<uint64_t> min_bits_{0};  // valid when count_ > 0
  std::atomic<uint64_t> max_bits_{0};
};

// Point-in-time view of every instrument, sorted by name.
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    int64_t count = 0;
    double sum = 0, min = 0, max = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<HistogramRow> histograms;
};

// The registry. Thread-safe; implements the ExecContext global sink so
// every ctx.Count/Observe lands here.
class MetricsRegistry : public GlobalMetricsSink {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry() override;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-create. References remain valid forever; call sites on hot
  // paths should resolve once and cache the pointer. A name registered as
  // one instrument kind stays that kind (a counter name never becomes a
  // histogram; the mismatched call is dropped).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // GlobalMetricsSink: string-keyed convenience forms.
  void Add(const std::string& name, int64_t delta) override;
  void Observe(const std::string& name, double value) override;
  void SetGauge(const std::string& name, double value) override;

  MetricsSnapshot TakeSnapshot() const;

  // Prometheus-style exposition: counter/gauge lines plus
  // <name>{quantile="..."} summaries for histograms.
  std::string ToPrometheusText() const;
  // {"counters":{...},"gauges":{...},"histograms":[{...}]}
  std::string ToJson() const;

  // Drops every instrument (tests / tools starting a fresh epoch).
  // Cached Counter/Gauge/Histogram references from before a Reset are
  // invalidated — only the string-keyed API is Reset-safe.
  void Reset();

 private:
  static constexpr int kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
  };
  Stripe& StripeFor(const std::string& name) {
    return stripes_[std::hash<std::string>{}(name) % kStripes];
  }
  const Stripe& StripeFor(const std::string& name) const {
    return stripes_[std::hash<std::string>{}(name) % kStripes];
  }

  std::array<Stripe, kStripes> stripes_;

  // Sink instruments returned for kind-mismatched lookups (the name is
  // already registered as another kind). Writes land here and are never
  // exported, honouring the "mismatched call is dropped" contract while
  // still returning a forever-valid reference.
  Counter dropped_counter_;
  Gauge dropped_gauge_;
  Histogram dropped_histogram_;
};

// The process-wide registry. First call installs it as the ExecContext
// global metrics sink (idempotent, thread-safe).
MetricsRegistry& GlobalMetrics();

// Prometheus-style labeled metric name: Labeled("rpc.calls", "node", "n2")
// == R"(rpc.calls{node="n2"})". The registry is name-keyed, so a label is
// just a naming convention — but one the exposition formats pass through
// unchanged, giving per-node (per-anything) series without a label type.
inline std::string Labeled(const std::string& name, const std::string& key,
                           const std::string& value) {
  return name + '{' + key + "=\"" + value + "\"}";
}

}  // namespace vizq::obs

#endif  // VIZQUERY_OBS_METRICS_H_
