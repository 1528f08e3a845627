#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "src/common/str_util.h"

namespace vizq::obs {

namespace {

// Epoch for the per-thread instrument memo below. Bumped whenever any
// registry's instrument references may have been invalidated (Reset or
// registry destruction), which flushes every thread's memo lazily.
std::atomic<uint64_t> g_memo_epoch{1};

// Per-thread name -> instrument memo for the string-keyed hot path
// (ExecContext forwards every per-request Count/Observe through it).
// After the first use of a name on a thread, a forwarded update is one
// string hash + local map find + atomic add — no stripe lock.
struct TlsMemo {
  uint64_t epoch = 0;
  const void* registry = nullptr;
  std::unordered_map<std::string, Counter*> counters;
  std::unordered_map<std::string, Gauge*> gauges;
  std::unordered_map<std::string, Histogram*> histograms;

  void FlushIfStale(const void* reg) {
    uint64_t now = g_memo_epoch.load(std::memory_order_acquire);
    if (epoch != now || registry != reg) {
      counters.clear();
      gauges.clear();
      histograms.clear();
      epoch = now;
      registry = reg;
    }
  }
};

TlsMemo& Memo() {
  thread_local TlsMemo memo;
  return memo;
}

constexpr double kMinBound = 1e-3;
// 64 buckets spanning 1e-3 .. 1e-3 * kGrowth^63 ≈ 3e9: ~1.58x per bucket
// (5 buckets per decade), so interpolated percentiles are within ~±25%
// of the true value — plenty for latency triage.
const double kGrowth = std::pow(10.0, 0.2);

uint64_t PackDouble(double v) {
  uint64_t bits;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double UnpackDouble(uint64_t bits) {
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names
// (cache.intelligent.exact_hit) map dots and dashes to underscores. An
// obs::Labeled() suffix ({node="n2"}) is NOT part of the name: it is
// split off and re-emitted as a real Prometheus label block, so labeled
// series scrape as first-class dimensions (`name{labels...}`), not as
// per-value metric names.
struct PrometheusParts {
  std::string name;    // sanitized, "vizq_"-prefixed
  std::string labels;  // inner label list, "" when unlabeled
};

PrometheusParts SplitPrometheusName(const std::string& name) {
  PrometheusParts parts;
  size_t brace = name.find('{');
  size_t base_len = brace == std::string::npos ? name.size() : brace;
  parts.name = "vizq_";
  for (size_t i = 0; i < base_len; ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    parts.name.push_back(ok ? c : '_');
  }
  if (brace != std::string::npos) {
    size_t end = name.rfind('}');
    if (end != std::string::npos && end > brace) {
      parts.labels = name.substr(brace + 1, end - brace - 1);
    }
  }
  return parts;
}

}  // namespace

// --- Histogram ---

double Histogram::UpperBound(int bucket) {
  return kMinBound * std::pow(kGrowth, bucket);
}

double Histogram::LowerBound(int bucket) {
  return bucket <= 0 ? 0.0 : UpperBound(bucket - 1);
}

int Histogram::BucketFor(double value) {
  if (!(value > kMinBound)) return 0;  // includes <= 0 and NaN
  int b = static_cast<int>(std::ceil(std::log(value / kMinBound) /
                                     std::log(kGrowth)));
  return std::clamp(b, 0, kNumBuckets - 1);
}

void Histogram::Observe(double value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  int64_t prev_count = count_.fetch_add(1, std::memory_order_acq_rel);
  // sum: CAS-accumulate a double.
  uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      expected, PackDouble(UnpackDouble(expected) + value),
      std::memory_order_relaxed)) {
  }
  // min/max: first observer seeds both; later ones CAS toward extremes.
  if (prev_count == 0) {
    min_bits_.store(PackDouble(value), std::memory_order_relaxed);
    max_bits_.store(PackDouble(value), std::memory_order_relaxed);
    return;
  }
  expected = min_bits_.load(std::memory_order_relaxed);
  while (value < UnpackDouble(expected) &&
         !min_bits_.compare_exchange_weak(expected, PackDouble(value),
                                          std::memory_order_relaxed)) {
  }
  expected = max_bits_.load(std::memory_order_relaxed);
  while (value > UnpackDouble(expected) &&
         !max_bits_.compare_exchange_weak(expected, PackDouble(value),
                                          std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const {
  return UnpackDouble(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::min() const {
  return count() == 0
             ? 0
             : UnpackDouble(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  return count() == 0
             ? 0
             : UnpackDouble(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::mean() const {
  int64_t n = count();
  return n == 0 ? 0 : sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const { return Quantiles({p})[0]; }

std::vector<double> Histogram::Quantiles(const std::vector<double>& ps) const {
  // One consistent copy of the buckets; every quantile interpolates over
  // the same counts, so the results are monotone for sorted `ps` even
  // while writers race. The total is the copy's own sum (not count_):
  // Observe() bumps the bucket before the count, so the two can disagree
  // transiently.
  std::array<int64_t, kNumBuckets> counts;
  int64_t n = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    n += counts[b];
  }
  std::vector<double> out(ps.size(), 0.0);
  if (n == 0) return out;
  // Clamp bounds read once for the same reason.
  const double lo_clamp = min();
  const double hi_clamp = std::max(lo_clamp, max());

  // Walk the buckets once, answering quantiles in ascending-rank order.
  std::vector<size_t> order(ps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&ps](size_t a, size_t b) { return ps[a] < ps[b]; });
  auto rank_of = [n](double p) {
    p = std::clamp(p, 0.0, 100.0);
    return std::max<int64_t>(
        1,
        static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
  };
  size_t qi = 0;
  int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets && qi < order.size(); ++b) {
    int64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    while (qi < order.size() &&
           cumulative + in_bucket >= rank_of(ps[order[qi]])) {
      double lo = LowerBound(b);
      double hi = UpperBound(b);
      double frac =
          static_cast<double>(rank_of(ps[order[qi]]) - cumulative) /
          static_cast<double>(in_bucket);
      out[order[qi]] = std::clamp(lo + (hi - lo) * frac, lo_clamp, hi_clamp);
      ++qi;
    }
    cumulative += in_bucket;
  }
  for (; qi < order.size(); ++qi) out[order[qi]] = hi_clamp;
  return out;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

// --- MetricsRegistry ---

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Stripe& s = StripeFor(name);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.counters.find(name);
  if (it != s.counters.end()) return *it->second;
  // Instrument kinds are sticky: a name already registered as another
  // kind never becomes a counter (duplicate exposition names would make
  // the Prometheus output invalid); the write lands in a dropped sink.
  if (s.histograms.count(name) != 0 || s.gauges.count(name) != 0) {
    return dropped_counter_;
  }
  return *(s.counters[name] = std::make_unique<Counter>());
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Stripe& s = StripeFor(name);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.gauges.find(name);
  if (it != s.gauges.end()) return *it->second;
  if (s.counters.count(name) != 0 || s.histograms.count(name) != 0) {
    return dropped_gauge_;
  }
  return *(s.gauges[name] = std::make_unique<Gauge>());
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  Stripe& s = StripeFor(name);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.histograms.find(name);
  if (it != s.histograms.end()) return *it->second;
  if (s.counters.count(name) != 0 || s.gauges.count(name) != 0) {
    return dropped_histogram_;
  }
  return *(s.histograms[name] = std::make_unique<Histogram>());
}

void MetricsRegistry::Add(const std::string& name, int64_t delta) {
  TlsMemo& memo = Memo();
  memo.FlushIfStale(this);
  auto it = memo.counters.find(name);
  if (it == memo.counters.end()) {
    it = memo.counters.emplace(name, &GetCounter(name)).first;
  }
  it->second->Add(delta);
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  TlsMemo& memo = Memo();
  memo.FlushIfStale(this);
  auto it = memo.histograms.find(name);
  if (it == memo.histograms.end()) {
    it = memo.histograms.emplace(name, &GetHistogram(name)).first;
  }
  it->second->Observe(value);
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  TlsMemo& memo = Memo();
  memo.FlushIfStale(this);
  auto it = memo.gauges.find(name);
  if (it == memo.gauges.end()) {
    it = memo.gauges.emplace(name, &GetGauge(name)).first;
  }
  it->second->Set(value);
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snap;
  std::map<std::string, const Histogram*> hists;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [name, c] : s.counters) {
      snap.counters[name] = c->value();
    }
    for (const auto& [name, g] : s.gauges) {
      snap.gauges[name] = g->value();
    }
    for (const auto& [name, h] : s.histograms) hists[name] = h.get();
  }
  for (const auto& [name, h] : hists) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum = h->sum();
    row.min = h->min();
    row.max = h->max();
    // Single-pass quantiles over one bucket copy: three Percentile()
    // calls could interleave with writers and report p95 < p50.
    std::vector<double> qs = h->Quantiles({50, 95, 99});
    row.p50 = qs[0];
    row.p95 = qs[1];
    row.p99 = qs[2];
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

std::string MetricsRegistry::ToPrometheusText() const {
  MetricsSnapshot snap = TakeSnapshot();
  std::string out;
  auto with_labels = [](const PrometheusParts& p) {
    return p.labels.empty() ? p.name : p.name + '{' + p.labels + '}';
  };
  for (const auto& [name, v] : snap.counters) {
    PrometheusParts p = SplitPrometheusName(name);
    out += "# TYPE " + p.name + " counter\n";
    out += with_labels(p) + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    PrometheusParts p = SplitPrometheusName(name);
    out += "# TYPE " + p.name + " gauge\n";
    out += with_labels(p) + " " + FormatDouble(v) + "\n";
  }
  for (const MetricsSnapshot::HistogramRow& h : snap.histograms) {
    PrometheusParts p = SplitPrometheusName(h.name);
    // Own labels (if any) merge ahead of the quantile label.
    std::string prefix = p.labels.empty() ? "" : p.labels + ",";
    std::string suffix = p.labels.empty() ? "" : "{" + p.labels + "}";
    out += "# TYPE " + p.name + " summary\n";
    out += p.name + "{" + prefix + "quantile=\"0.5\"} " +
           FormatDouble(h.p50) + "\n";
    out += p.name + "{" + prefix + "quantile=\"0.95\"} " +
           FormatDouble(h.p95) + "\n";
    out += p.name + "{" + prefix + "quantile=\"0.99\"} " +
           FormatDouble(h.p99) + "\n";
    out += p.name + "_min" + suffix + " " + FormatDouble(h.min) + "\n";
    out += p.name + "_max" + suffix + " " + FormatDouble(h.max) + "\n";
    out += p.name + "_sum" + suffix + " " + FormatDouble(h.sum) + "\n";
    out += p.name + "_count" + suffix + " " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  MetricsSnapshot snap = TakeSnapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(name, &out);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(name, &out);
    out += "\":" + FormatDouble(v);
  }
  out += "},\"histograms\":[";
  first = true;
  for (const MetricsSnapshot::HistogramRow& h : snap.histograms) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(h.name, &out);
    out += "\",\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + FormatDouble(h.sum);
    out += ",\"min\":" + FormatDouble(h.min);
    out += ",\"max\":" + FormatDouble(h.max);
    out += ",\"p50\":" + FormatDouble(h.p50);
    out += ",\"p95\":" + FormatDouble(h.p95);
    out += ",\"p99\":" + FormatDouble(h.p99);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

void MetricsRegistry::Reset() {
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.counters.clear();
    s.gauges.clear();
    s.histograms.clear();
  }
  // Invalidate every thread's memo (they re-resolve on next use).
  g_memo_epoch.fetch_add(1, std::memory_order_acq_rel);
}

MetricsRegistry::~MetricsRegistry() {
  // A destroyed registry's instruments must never be reached through a
  // thread's stale memo (e.g. a test-local registry at a reused address).
  g_memo_epoch.fetch_add(1, std::memory_order_acq_rel);
}

MetricsRegistry& GlobalMetrics() {
  // Leaked singleton: instruments must outlive every thread.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    SetGlobalMetricsSink(r);
    return r;
  }();
  return *registry;
}

}  // namespace vizq::obs
