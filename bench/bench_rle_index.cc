// E7 (§4.3): RLE IndexTable range skipping. A filter on a run-length
// encoded column is pushed onto the run table; surviving runs become
// direct range accesses. Sweeps filter selectivity (how many of the sorted
// key's values are selected).
//
// §4.3's caveat is measured too: "this approach does not always make the
// query execution faster ... it may also reduce the degree of parallelism
// [and] introduce data skew among threads". At low selectivity range
// skipping wins big; BM_RleIndexSkewCaveat isolates the case where the
// index path's lost parallelism makes it the slower parallel plan.
// BM_RleIndex's `par_ms` counter carries the parallel-plan comparison:
// the median wall time of the same query as a DOP-4 plan. All times are
// real wall clock on the host's cores.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"

namespace {

using namespace vizq;

constexpr int64_t kRows = 400000;
constexpr int kKeyCardinality = 64;

// A table sorted by `key` (so key is heavily run-length encoded).
std::shared_ptr<tde::Database> RleDb() {
  static std::shared_ptr<tde::Database> db;
  if (db != nullptr) return db;
  Rng rng(42);
  std::vector<int64_t> keys(kRows);
  for (int64_t i = 0; i < kRows; ++i) keys[i] = rng.Below(kKeyCardinality);
  std::sort(keys.begin(), keys.end());
  tde::TableBuilder builder("fact",
                            {tde::ColumnInfo{"key", DataType::Int64()},
                             tde::ColumnInfo{"val", DataType::Int64()}});
  builder.SetEncodingChoice(0, tde::EncodingChoice::kForceRle);
  for (int64_t i = 0; i < kRows; ++i) {
    (void)builder.AddRow({Value(keys[i]), Value(rng.Range(0, 1000))});
  }
  builder.DeclareSorted({0});
  db = std::make_shared<tde::Database>("rle");
  (void)db->AddTable(*builder.Finish());
  return db;
}

std::string FilterQuery(int selected_keys) {
  // key < selected_keys — selectivity = selected_keys / kKeyCardinality.
  return "(aggregate () ((total sum val) (n count*))"
         " (select (< key " + std::to_string(selected_keys) + ")"
         " (scan fact)))";
}

void BM_RleIndex(benchmark::State& state) {
  int selected = static_cast<int>(state.range(0));
  bool use_index = state.range(1) == 1;
  tde::TdeEngine engine(RleDb());

  // Serial on both sides first (the pure range-skipping effect).
  tde::QueryOptions options = tde::QueryOptions::Serial();
  options.optimizer.rle_index =
      use_index ? tde::OptimizerOptions::RleIndexMode::kForce
                : tde::OptimizerOptions::RleIndexMode::kOff;
  const std::string tql = FilterQuery(selected);

  int64_t rows_scanned = 0;
  for (auto _ : state) {
    auto result = engine.Execute(tql, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows_scanned = result->stats->rows_scanned;
    benchmark::DoNotOptimize(result->table.num_rows());
  }

  // The §4.3 plan-choice comparison: parallel plain scan vs parallel
  // index scan (the index path may have fewer/skewed fractions).
  tde::QueryOptions par = options;
  par.parallel.enable_parallel = true;
  par.parallel.max_dop = 4;
  par.parallel.min_rows_per_fraction = 4096;
  state.counters["par_ms"] = benchutil::TimeQuery(engine, tql, par).median;
  state.counters["selectivity_pct"] = 100.0 * selected / kKeyCardinality;
  state.counters["rows_scanned"] = static_cast<double>(rows_scanned);
  state.SetLabel(use_index ? "index" : "scan");
}

// The §4.3 caveat in isolation: a column with only 4 giant runs. Selecting
// one of them leaves the index path a single range — a DOP of 1 — while
// the plain scan keeps 8 balanced fractions. The index's reduced
// parallelism makes it the slower *parallel* plan despite reading far
// fewer rows ("although it reduces the total amount of data to be read
// from the disk, it may also reduce the degree of parallelism").
std::shared_ptr<tde::Database> GiantRunsDb() {
  static std::shared_ptr<tde::Database> db;
  if (db != nullptr) return db;
  Rng rng(43);
  tde::TableBuilder builder("fact",
                            {tde::ColumnInfo{"key", DataType::Int64()},
                             tde::ColumnInfo{"val", DataType::Int64()},
                             tde::ColumnInfo{"tag", DataType::String()}});
  builder.SetEncodingChoice(0, tde::EncodingChoice::kForceRle);
  const char* tags[] = {"Alpha-One", "Bravo-Two", "Charlie-Three",
                        "Delta-Four", "Echo-Five"};
  for (int64_t i = 0; i < kRows; ++i) {
    (void)builder.AddRow({Value(i / (kRows / 4)), Value(rng.Range(0, 1000)),
                          Value(tags[rng.Below(5)])});
  }
  builder.DeclareSorted({0});
  db = std::make_shared<tde::Database>("rle4");
  (void)db->AddTable(*builder.Finish());
  return db;
}

void BM_RleIndexSkewCaveat(benchmark::State& state) {
  bool use_index = state.range(0) == 1;
  tde::TdeEngine engine(GiantRunsDb());
  tde::QueryOptions par;
  par.optimizer.rle_index = use_index
                                ? tde::OptimizerOptions::RleIndexMode::kForce
                                : tde::OptimizerOptions::RleIndexMode::kOff;
  par.parallel.max_dop = 8;
  par.parallel.min_rows_per_fraction = 4096;
  // The per-selected-row work (a string expression in the aggregation) is
  // what the lost parallelism fails to spread across threads.
  const std::string tql =
      "(aggregate () ((total sum (strlen (lower tag)))) "
      "(select (= key 0) (scan fact)))";
  for (auto _ : state) {
    auto result = engine.Execute(tql, par);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.SetLabel(use_index ? "index (1 giant range, dop 1)"
                           : "scan (8 fractions)");
}

void RegisterAll() {
  for (int use_index : {0, 1}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_RleIndexSkewCaveat/") +
         (use_index ? "index" : "scan"))
            .c_str(),
        BM_RleIndexSkewCaveat)
        ->Arg(use_index)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (int selected : {1, 4, 16, 48, 64}) {
    for (int use_index : {0, 1}) {
      std::string name = "BM_RleIndex/sel:" + std::to_string(selected) + "of" +
                         std::to_string(kKeyCardinality) + "/" +
                         (use_index ? "index" : "scan");
      benchmark::RegisterBenchmark(name.c_str(), BM_RleIndex)
          ->Args({selected, use_index})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
