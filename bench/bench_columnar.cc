// Encoding-aware execution bench (DESIGN.md §11): the Scan→Filter→
// Aggregate hot path on compressed columns vs the decoded row path.
//
// Two workloads on a 2M-row FAA-shaped fact table sorted by a 10-value
// dictionary key (so the key is heavily run-length encoded, like
// `carrier` in the flights extract):
//
//   * group-by — the FAA smoke probe shape: COUNT(*) per dictionary key.
//     The dense path folds whole key runs (one multiply-add per run
//     segment) where the row path hashes every row. A SUM(v) variant over
//     a plain int column is reported alongside (per-row accumulation
//     remains, only the hash probe is saved).
//   * filter — a selective predicate over a second RLE column (~3% of
//     rows survive, whole runs at a time). The encoded filter evaluates
//     once per run and emits a selection vector; the row path evaluates
//     per row and materializes survivors.
//   * int key — SUM(v) per value of a 24-value plain int column (an hour
//     of day): dense grouping over the column's [min, max] domain.
//   * dimension join — SUM(v) per name of a 10-row dimension joined on
//     the dictionary key: the encoded path aggregates below the join, so
//     the join probes 10 partial rows instead of every fact row.
//
// Every comparison flips only enable_encoded_exec. Streaming aggregation
// is disabled on both sides (the sorted key would otherwise claim the
// group-by for a different — also fast — path; E16/engine tests cover
// it), and the RLE IndexTable rewrite is disabled for the filter workload
// (E7 measures that axis; here the scan shape must stay fixed).
//
// --emit-json=PATH writes BENCH_columnar.json and enforces the acceptance
// bars: >=5x on the dictionary-key group-by, >=10x on the selective
// RLE-run filter, and an EXPLAIN ANALYZE plan confirming the encoded
// operators actually ran (exit 2 below bar, exit 1 on malfunction). The
// int-key and dimension-join pairs are reported without a bar.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/common/rng.h"
#include "src/tde/engine.h"
#include "src/tde/storage/database.h"
#include "src/tde/storage/table.h"

namespace {

using namespace vizq;

constexpr int64_t kRows = 2000000;
constexpr int kKeyCardinality = 10;  // carrier-like
constexpr int kRunValues = 64;       // second RLE column's distinct values

std::shared_ptr<tde::Database> ColumnarDb() {
  static std::shared_ptr<tde::Database> db;
  if (db != nullptr) return db;
  Rng rng(2015);
  tde::TableBuilder builder("fact",
                            {tde::ColumnInfo{"k", DataType::String()},
                             tde::ColumnInfo{"r", DataType::Int64()},
                             tde::ColumnInfo{"v", DataType::Int64()},
                             tde::ColumnInfo{"h", DataType::Int64()}});
  // k: sorted 10-value dictionary key -> RLE over tokens (kAuto picks it).
  // r: globally increasing bucket -> RLE, runs of kRows/kRunValues.
  // v: plain random int measure.
  // h: plain random int over 0..23.
  for (int64_t i = 0; i < kRows; ++i) {
    std::string k = "c" + std::to_string(i / (kRows / kKeyCardinality));
    int64_t r = i / (kRows / kRunValues);
    (void)builder.AddRow({Value(k), Value(r), Value(rng.Range(0, 1000)),
                          Value(rng.Range(0, 23))});
  }
  builder.DeclareSorted({0, 1});
  db = std::make_shared<tde::Database>("columnar");
  (void)db->AddTable(*builder.Finish());
  // dim: one row per key value, code -> name.
  tde::TableBuilder dim("dim", {tde::ColumnInfo{"code", DataType::String()},
                                tde::ColumnInfo{"name", DataType::String()}});
  for (int c = 0; c < kKeyCardinality; ++c) {
    (void)dim.AddRow({Value("c" + std::to_string(c)),
                      Value("name " + std::to_string(c))});
  }
  (void)db->AddTable(*dim.Finish());
  return db;
}

const char kGroupByCount[] =
    "(aggregate ((k k)) ((n count*)) (scan fact))";
const char kGroupBySum[] =
    "(aggregate ((k k)) ((n count*) (s sum v)) (scan fact))";
const char kSelectiveFilter[] =
    "(aggregate ((k k)) ((n count*)) (select (< r 2) (scan fact)))";
const char kGroupByIntKey[] =
    "(aggregate ((h h)) ((s sum v)) (scan fact))";
const char kDimJoin[] =
    "(aggregate ((name name)) ((s sum v)) (join inner ((k code)) (scan fact) "
    "(scan dim) referential))";

tde::QueryOptions BenchOptions(bool encoded) {
  tde::QueryOptions o = tde::QueryOptions::Serial();
  o.collect_analysis = false;
  o.optimizer.enable_encoded_exec = encoded;
  o.optimizer.enable_streaming_agg = false;
  o.optimizer.rle_index = tde::OptimizerOptions::RleIndexMode::kOff;
  return o;
}

// Best-of-`reps` wall milliseconds (first run is a discarded warmup).
double TimeQuery(tde::TdeEngine& engine, const std::string& tql,
                 const tde::QueryOptions& options, int reps = 5) {
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto result = engine.Execute(tql, options);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i > 0) best = std::min(best, ms);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Harness benches (quick variants; the acceptance run is --emit-json).

void BM_GroupByDictKey(benchmark::State& state) {
  tde::TdeEngine engine(ColumnarDb());
  tde::QueryOptions options = BenchOptions(state.range(0) == 1);
  for (auto _ : state) {
    auto result = engine.Execute(kGroupByCount, options);
    if (!result.ok()) state.SkipWithError("query failed");
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(state.range(0) == 1 ? "encoded" : "decoded");
}
BENCHMARK(BM_GroupByDictKey)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SelectiveRleFilter(benchmark::State& state) {
  tde::TdeEngine engine(ColumnarDb());
  tde::QueryOptions options = BenchOptions(state.range(0) == 1);
  for (auto _ : state) {
    auto result = engine.Execute(kSelectiveFilter, options);
    if (!result.ok()) state.SkipWithError("query failed");
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(state.range(0) == 1 ? "encoded" : "decoded");
}
BENCHMARK(BM_SelectiveRleFilter)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --emit-json=PATH: the BENCH_columnar.json record (EXPERIMENTS.md E17).

int EmitJson(const std::string& path) {
  tde::TdeEngine engine(ColumnarDb());
  std::fprintf(stderr, "columnar: %lld rows, %d-value dict key, %d-run "
               "filter column\n",
               static_cast<long long>(kRows), kKeyCardinality, kRunValues);

  // Plan check: the encoded run must actually use the encoded operators.
  tde::QueryOptions analyzed = BenchOptions(/*encoded=*/true);
  analyzed.collect_analysis = true;
  auto plan_run = engine.Execute(kSelectiveFilter, analyzed);
  if (!plan_run.ok()) {
    std::fprintf(stderr, "plan run failed: %s\n",
                 plan_run.status().ToString().c_str());
    return 1;
  }
  std::string plan = plan_run->analysis->ToText();
  bool plan_ok = plan.find(" dense") != std::string::npos &&
                 plan.find(" encoded") != std::string::npos &&
                 plan.find("[encoded]") != std::string::npos &&
                 plan_run->stats->used_encoded_path &&
                 plan_run->stats->encoded_fallbacks == 0;
  std::fprintf(stderr, "encoded plan:\n%s", plan.c_str());
  if (!plan_ok) {
    std::fprintf(stderr, "encoded operators missing from the plan\n");
    return 1;
  }

  double gb_dec = TimeQuery(engine, kGroupByCount, BenchOptions(false));
  double gb_enc = TimeQuery(engine, kGroupByCount, BenchOptions(true));
  double gbs_dec = TimeQuery(engine, kGroupBySum, BenchOptions(false));
  double gbs_enc = TimeQuery(engine, kGroupBySum, BenchOptions(true));
  double fl_dec = TimeQuery(engine, kSelectiveFilter, BenchOptions(false));
  double fl_enc = TimeQuery(engine, kSelectiveFilter, BenchOptions(true));
  double ik_dec = TimeQuery(engine, kGroupByIntKey, BenchOptions(false));
  double ik_enc = TimeQuery(engine, kGroupByIntKey, BenchOptions(true));
  double dj_dec = TimeQuery(engine, kDimJoin, BenchOptions(false));
  double dj_enc = TimeQuery(engine, kDimJoin, BenchOptions(true));

  double gb_x = gb_enc > 0 ? gb_dec / gb_enc : 0;
  double gbs_x = gbs_enc > 0 ? gbs_dec / gbs_enc : 0;
  double fl_x = fl_enc > 0 ? fl_dec / fl_enc : 0;
  double ik_x = ik_enc > 0 ? ik_dec / ik_enc : 0;
  double dj_x = dj_enc > 0 ? dj_dec / dj_enc : 0;
  std::fprintf(stderr,
               "  group-by count*: decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  group-by +sum:   decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  selective filter: decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  int key:          decoded %.2f ms, encoded %.2f ms (%.1fx)\n"
               "  dimension join:   decoded %.2f ms, encoded %.2f ms (%.1fx)\n",
               gb_dec, gb_enc, gb_x, gbs_dec, gbs_enc, gbs_x, fl_dec, fl_enc,
               fl_x, ik_dec, ik_enc, ik_x, dj_dec, dj_enc, dj_x);

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"columnar\",\n"
                "  \"workload\": \"%lld rows sorted by %d-value dict key; "
                "%d-run rle filter column; 24-value int key; %d-row "
                "dimension; serial, streaming-agg and rle-index off\",\n"
                "  \"groupby_count\": {\"decoded_ms\": %.3f, \"encoded_ms\": "
                "%.3f, \"speedup_x\": %.2f},\n"
                "  \"groupby_count_sum\": {\"decoded_ms\": %.3f, "
                "\"encoded_ms\": %.3f, \"speedup_x\": %.2f},\n"
                "  \"selective_filter\": {\"decoded_ms\": %.3f, "
                "\"encoded_ms\": %.3f, \"speedup_x\": %.2f},\n"
                "  \"groupby_int_key\": {\"decoded_ms\": %.3f, "
                "\"encoded_ms\": %.3f, \"speedup_x\": %.2f},\n"
                "  \"dimension_join\": {\"decoded_ms\": %.3f, "
                "\"encoded_ms\": %.3f, \"speedup_x\": %.2f},\n"
                "  \"plan_confirms_encoded\": true\n"
                "}\n",
                static_cast<long long>(kRows), kKeyCardinality, kRunValues,
                kKeyCardinality, gb_dec, gb_enc, gb_x, gbs_dec, gbs_enc, gbs_x, fl_dec, fl_enc,
                fl_x, ik_dec, ik_enc, ik_x, dj_dec, dj_enc, dj_x);
  f << buf;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  // Acceptance: >=5x on the dictionary-key group-by, >=10x on the
  // selective RLE-run filter.
  return (gb_x >= 5.0 && fl_x >= 10.0) ? 0 : 2;
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
