// E5 (§4.2.3, Fig. 5): aggregation strategies in parallel plans.
//
//   serial        — no parallelism
//   exchange      — parallel scan, Exchange below a serial hash aggregate
//   local/global  — partial aggregate per fraction + final above Exchange
//   range         — range-partitioned scan on the sorted group-by prefix;
//                   the global aggregate is removed entirely
//
// Sweeps three data shapes: uniform group keys (range partitioning's good
// case), heavily skewed keys, and a 2-value low-cardinality key — the two
// §4.2.3 caveats where range partitioning loses to local/global ("range
// partitioning in the TDE is applied conservatively today").
//
// The reported time is real wall clock on the host's cores.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace {

using namespace vizq;
using tde::ColumnInfo;
using tde::TableBuilder;

constexpr int64_t kRows = 300000;

enum class Shape : int { kUniform = 0, kSkewed = 1, kLowCardinality = 2 };
enum class Strategy : int {
  kSerial = 0,
  kExchangeOnly = 1,
  kLocalGlobal = 2,
  kRangePartition = 3,
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform: return "uniform";
    case Shape::kSkewed: return "skewed";
    case Shape::kLowCardinality: return "lowcard";
  }
  return "?";
}

// A fact table sorted by `key` with the requested distribution.
std::shared_ptr<tde::Database> ShapedDb(Shape shape) {
  static auto* cache = new std::map<int, std::shared_ptr<tde::Database>>();
  auto it = cache->find(static_cast<int>(shape));
  if (it != cache->end()) return it->second;

  Rng rng(7 + static_cast<int>(shape));
  std::vector<int64_t> keys(kRows);
  switch (shape) {
    case Shape::kUniform:
      for (int64_t i = 0; i < kRows; ++i) keys[i] = rng.Range(0, 499);
      break;
    case Shape::kSkewed: {
      // ~70% of rows share one key; the rest spread over 500.
      for (int64_t i = 0; i < kRows; ++i) {
        keys[i] = rng.Chance(0.7) ? 0 : rng.Range(1, 500);
      }
      break;
    }
    case Shape::kLowCardinality:
      for (int64_t i = 0; i < kRows; ++i) keys[i] = rng.Below(2);
      break;
  }
  std::sort(keys.begin(), keys.end());

  TableBuilder builder("fact", {ColumnInfo{"key", DataType::Int64()},
                                ColumnInfo{"val", DataType::Int64()},
                                ColumnInfo{"val2", DataType::Float64()}});
  for (int64_t i = 0; i < kRows; ++i) {
    (void)builder.AddRow({Value(keys[i]), Value(rng.Range(0, 1000)),
                          Value(rng.NextDouble())});
  }
  builder.DeclareSorted({0});
  auto db = std::make_shared<tde::Database>("shapes");
  (void)db->AddTable(*builder.Finish());
  cache->emplace(static_cast<int>(shape), db);
  return db;
}

tde::QueryOptions OptionsFor(Strategy strategy) {
  tde::QueryOptions o;
  o.parallel.max_dop = 4;
  o.parallel.min_rows_per_fraction = 4096;
  o.optimizer.enable_streaming_agg = false;  // isolate the hash strategies
  switch (strategy) {
    case Strategy::kSerial:
      o.parallel.enable_parallel = false;
      break;
    case Strategy::kExchangeOnly:
      o.parallel.enable_local_global_agg = false;
      o.parallel.enable_range_partition = false;
      break;
    case Strategy::kLocalGlobal:
      o.parallel.enable_local_global_agg = true;
      o.parallel.enable_range_partition = false;
      break;
    case Strategy::kRangePartition:
      o.parallel.enable_local_global_agg = false;
      o.parallel.enable_range_partition = true;
      o.parallel.range_partition_min_distinct = 1;  // force it, even when
                                                    // conservative policy
                                                    // would decline
      break;
  }
  return o;
}

void BM_AggregationStrategy(benchmark::State& state) {
  Shape shape = static_cast<Shape>(state.range(0));
  Strategy strategy = static_cast<Strategy>(state.range(1));
  auto db = ShapedDb(shape);
  tde::TdeEngine engine(db);
  tde::QueryOptions options = OptionsFor(strategy);
  const std::string tql =
      "(aggregate ((key key)) ((total sum val) (mean avg val2) (n count*))"
      " (scan fact))";

  bool used_range = false, used_lg = false;
  for (auto _ : state) {
    auto result = engine.Execute(tql, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    used_range = result->stats->used_range_partition;
    used_lg = result->stats->used_local_global_agg;
  }
  state.counters["range"] = used_range ? 1 : 0;
  state.counters["localglobal"] = used_lg ? 1 : 0;
  state.SetLabel(ShapeName(shape));
}

void RegisterAll() {
  for (int shape = 0; shape <= 2; ++shape) {
    for (int strategy = 0; strategy <= 3; ++strategy) {
      std::string name = "BM_AggregationStrategy/";
      name += ShapeName(static_cast<Shape>(shape));
      switch (static_cast<Strategy>(strategy)) {
        case Strategy::kSerial: name += "/serial"; break;
        case Strategy::kExchangeOnly: name += "/exchange"; break;
        case Strategy::kLocalGlobal: name += "/local_global"; break;
        case Strategy::kRangePartition: name += "/range_partition"; break;
      }
      benchmark::RegisterBenchmark(name.c_str(), BM_AggregationStrategy)
          ->Args({shape, strategy})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// Streaming vs hash aggregate on sorted input (§4.2.4's cost-based choice).
void BM_StreamingVsHash(benchmark::State& state) {
  bool streaming = state.range(0) == 1;
  auto db = ShapedDb(Shape::kUniform);
  tde::TdeEngine engine(db);
  tde::QueryOptions options = tde::QueryOptions::Serial();
  options.optimizer.enable_streaming_agg = streaming;
  const std::string tql =
      "(aggregate ((key key)) ((total sum val)) (scan fact))";
  for (auto _ : state) {
    auto result = engine.Execute(tql, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.SetLabel(streaming ? "streaming" : "hash");
}
BENCHMARK(BM_StreamingVsHash)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
