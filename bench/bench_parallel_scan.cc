// E4 (§4.2, Fig. 3): parallel scans via the Exchange operator reduce
// single-query latency. Sweeps the degree of parallelism for an
// aggregation scan over the FAA fact table; the reported time is real wall
// clock on the host's cores.
//
// Also sweeps an expensive-expression variant (§4.2.2's cost profile: the
// parallelizer weighs per-row expression cost when picking the DOP).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

using namespace vizq;

constexpr int64_t kRows = 400000;

void RunPlan(benchmark::State& state, const std::string& tql, int dop) {
  auto db = benchutil::FaaDb(kRows);
  tde::TdeEngine engine(db);
  tde::QueryOptions options;
  if (dop <= 1) {
    options.parallel.enable_parallel = false;
  } else {
    options.parallel.max_dop = dop;
    options.parallel.min_rows_per_fraction = 1024;
  }
  // The aggregate strategies are ablated in bench_aggregation; keep this
  // one on plain exchange plans to isolate the scan parallelism.
  options.parallel.enable_range_partition = false;
  options.optimizer.enable_streaming_agg = false;

  for (auto _ : state) {
    auto result = engine.Execute(tql, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.counters["dop"] = dop;
}

void BM_ParallelScan_Aggregate(benchmark::State& state) {
  RunPlan(state,
          "(aggregate ((carrier carrier)) ((n count*) (delay sum arr_delay))"
          " (scan flights))",
          static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ParallelScan_Aggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ParallelScan_FilteredAggregate(benchmark::State& state) {
  RunPlan(state,
          "(aggregate ((dest dest)) ((n count*))"
          " (select (> arr_delay 60) (scan flights)))",
          static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ParallelScan_FilteredAggregate)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Expensive per-row expressions (string transforms) shift more of the
// runtime into the parallel section, improving the speedup.
void BM_ParallelScan_ExpensiveExpressions(benchmark::State& state) {
  RunPlan(state,
          "(aggregate ((m (substr (lower market) 1 3)))"
          " ((n count*)) (scan flights))",
          static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ParallelScan_ExpensiveExpressions)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
