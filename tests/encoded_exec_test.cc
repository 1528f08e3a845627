// Tests for encoding-aware execution (DESIGN.md §11): run-encoded scan
// batches, per-token / per-run filter evaluation, dense token-indexed
// grouping, the plan-layer decision gates, and the storage helpers they
// are built on (EmitRuns clipping, DecodeIntsResumable, CompareRows).
//
// The encoded path is always diffed against the row path (the correctness
// baseline) by re-running the same query with enable_encoded_exec off.

#include <gtest/gtest.h>

#include "src/tde/engine.h"
#include "src/tde/exec/scan.h"
#include "src/tde/storage/database.h"
#include "src/tde/storage/table.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

using vizq::testing::TablesEquivalent;

// A table exercising every encoding on the encoded hot path:
//   k   string dict, cardinality 7, *unsorted* (cycling) so streaming
//       aggregation never claims the group-by and dense grouping does
//   s   string dict, cardinality 4, nulls every 13th row
//   r   int64 forced kRle (runs of 100)
//   rf  float64 forced kRle (runs of 300)
//   v   int64 plain
//   f   float64 plain
//   dl  int64 forced kDelta, base beyond int32 (3e9), step 3
std::shared_ptr<Database> MakeEncodedDb(int64_t rows) {
  std::vector<ColumnInfo> schema = {
      {"k", DataType::String()},   {"s", DataType::String()},
      {"r", DataType::Int64()},    {"rf", DataType::Float64()},
      {"v", DataType::Int64()},    {"f", DataType::Float64()},
      {"dl", DataType::Int64()},
  };
  TableBuilder builder("enc", schema);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(3, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(6, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.emplace_back("k" + std::to_string(i % 7));
    if (i % 13 == 0) {
      row.push_back(Value::Null());
    } else {
      row.emplace_back("s" + std::to_string(i % 4));
    }
    row.emplace_back((i / 100) % 5);
    row.emplace_back(static_cast<double>(i / 300) * 1.25);
    row.emplace_back(i % 11);
    row.emplace_back(static_cast<double>(i % 13) * 0.5);
    row.emplace_back(static_cast<int64_t>(3000000000LL + i * 3));
    (void)builder.AddRow(row);
  }
  auto db = std::make_shared<Database>("encdb");
  (void)db->AddTable(*builder.Finish());
  return db;
}

QueryOptions EncodedOn() { return QueryOptions::Serial(); }

QueryOptions EncodedOff() {
  QueryOptions o = QueryOptions::Serial();
  o.optimizer.enable_encoded_exec = false;
  return o;
}

// Runs `tql` with the encoded path on and off and requires equivalent
// tables; returns the encoded-path result for further stats assertions.
QueryResult DiffEncodedVsRow(TdeEngine& engine, const std::string& tql) {
  auto on = engine.Execute(tql, EncodedOn());
  auto off = engine.Execute(tql, EncodedOff());
  EXPECT_TRUE(on.ok()) << on.status() << " for " << tql;
  EXPECT_TRUE(off.ok()) << off.status() << " for " << tql;
  if (on.ok() && off.ok()) {
    EXPECT_TRUE(TablesEquivalent(off->table, on->table)) << tql;
    EXPECT_FALSE(off->stats->used_encoded_path);
  }
  return on.ok() ? std::move(*on) : QueryResult();
}

TEST(EncodedExecTest, DenseGroupByMatchesHashAcrossAggregates) {
  TdeEngine engine(MakeEncodedDb(3000));
  QueryResult on = DiffEncodedVsRow(
      engine,
      "(aggregate ((k k)) ((n count*) (sv sum v) (sr sum r) (ar avg r) "
      "(mf min f) (xf max f) (cd countd r) (af avg rf) (sdl sum dl)) "
      "(scan enc))");
  ASSERT_NE(on.stats, nullptr);
  EXPECT_TRUE(on.stats->used_encoded_path);
  EXPECT_EQ(on.stats->encoded_plans, 1);
  EXPECT_EQ(on.stats->encoded_fallbacks, 0);
  // The two forced-RLE columns stay undecoded through the scan.
  EXPECT_GT(on.stats->encoded_rows_undecoded, 0);
  ASSERT_NE(on.analysis, nullptr);
  std::string text = on.analysis->ToText();
  EXPECT_NE(text.find("dense"), std::string::npos) << text;
  EXPECT_NE(text.find("encoded"), std::string::npos) << text;
}

// Regression: found by the differential fuzzer (AVG(d2) over an RLE int
// column grouped by a dict key returned -nan). The run-encoded accessors
// bit-cast run values unconditionally: DoubleAt of an *int* RLE column
// reinterpreted the integer payload as double bits (int -3 has an all-ones
// exponent, i.e. NaN), and IntAt of a float RLE column returned the raw
// bit pattern. Both must dispatch on the column type; reverting the fix in
// ColumnVector::DoubleAt/IntAt makes these expectations fail.
TEST(EncodedExecTest, RunEncodedAccessorsDispatchOnColumnType) {
  std::vector<ColumnInfo> schema = {{"k", DataType::String()},
                                    {"r", DataType::Int64()},
                                    {"rf", DataType::Float64()}};
  TableBuilder builder("t", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  for (int64_t i = 0; i < 64; ++i) {
    (void)builder.AddRow({Value(i % 2 == 0 ? "a" : "b"),
                          Value(static_cast<int64_t>(-3)), Value(-2.5)});
  }
  auto db = std::make_shared<Database>("regdb");
  (void)db->AddTable(*builder.Finish());
  TdeEngine engine(db);
  auto result = engine.Execute(
      "(aggregate ((k k)) ((ar avg r) (sr sum r) (af avg rf)) (scan t))",
      EncodedOn());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats->used_encoded_path);
  ASSERT_EQ(result->table.num_rows(), 2);
  for (int64_t row = 0; row < 2; ++row) {
    EXPECT_DOUBLE_EQ(result->table.at(row, 1).AsDouble(), -3.0);
    EXPECT_EQ(result->table.at(row, 2).int_value(), -3 * 32);
    EXPECT_DOUBLE_EQ(result->table.at(row, 3).AsDouble(), -2.5);
  }
}

TEST(EncodedExecTest, TokenBitmapFilterMatchesRowFilter) {
  TdeEngine engine(MakeEncodedDb(3000));
  QueryResult on = DiffEncodedVsRow(
      engine,
      "(aggregate ((k k)) ((n count*) (sv sum v)) "
      "(select (= s \"s1\") (scan enc)))");
  ASSERT_NE(on.analysis, nullptr);
  EXPECT_NE(on.analysis->ToText().find("[encoded]"), std::string::npos)
      << on.analysis->ToText();
}

TEST(EncodedExecTest, TokenBitmapFilterExcludesNulls) {
  TdeEngine engine(MakeEncodedDb(3000));
  // `s` is null every 13th row; `(<> s "s1")` must not admit nulls.
  DiffEncodedVsRow(engine,
                   "(aggregate ((k k)) ((n count*)) "
                   "(select (<> s \"s1\") (scan enc)))");
}

TEST(EncodedExecTest, PerRunFilterOnRleColumn) {
  TdeEngine engine(MakeEncodedDb(3000));
  // Selective: keeps 2 of 5 run values; whole runs pass or fail at once.
  // The RLE IndexTable rewrite would claim this predicate first (turning
  // the scan into a ranged scan, a different valid plan); disable it so
  // the per-run encoded filter is what executes.
  const std::string tql =
      "(aggregate ((k k)) ((n count*) (sf sum f)) "
      "(select (< r 2) (scan enc)))";
  QueryOptions on_opts = EncodedOn();
  on_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  QueryOptions off_opts = EncodedOff();
  off_opts.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  auto on = engine.Execute(tql, on_opts);
  auto off = engine.Execute(tql, off_opts);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_TRUE(TablesEquivalent(off->table, on->table));
  EXPECT_EQ(on->stats->encoded_plans, 1);
  EXPECT_NE(on->analysis->ToText().find("[encoded]"), std::string::npos)
      << on->analysis->ToText();
}

TEST(EncodedExecTest, ConjunctionOfEncodedAndPerRowConjuncts) {
  TdeEngine engine(MakeEncodedDb(3000));
  DiffEncodedVsRow(engine,
                   "(aggregate ((k k)) ((n count*)) "
                   "(select (and (= s \"s2\") (and (< r 3) (> v 4))) "
                   "(scan enc)))");
}

TEST(EncodedExecTest, ComputedArgOverRleColumnFallsBack) {
  TdeEngine engine(MakeEncodedDb(3000));
  // (* r 2) touches the RLE column inside a computed expression: the plan
  // is a candidate but fails the flat-args gate and must fall back to the
  // row path — and still be correct.
  QueryResult on = DiffEncodedVsRow(
      engine, "(aggregate ((k k)) ((sr sum (* r 2))) (scan enc))");
  ASSERT_NE(on.stats, nullptr);
  EXPECT_EQ(on.stats->encoded_plans, 0);
  EXPECT_EQ(on.stats->encoded_fallbacks, 1);
  EXPECT_FALSE(on.stats->used_encoded_path);
}

TEST(EncodedExecTest, AllNullDictionaryColumnGroupsToOneNullRow) {
  std::vector<ColumnInfo> schema = {{"an", DataType::String()},
                                    {"v", DataType::Int64()}};
  TableBuilder builder("t", schema);
  builder.SetEncodingChoice(0, EncodingChoice::kForceDictionary);
  for (int64_t i = 0; i < 200; ++i) {
    (void)builder.AddRow({Value::Null(), Value(i)});
  }
  auto db = std::make_shared<Database>("nulldb");
  (void)db->AddTable(*builder.Finish());
  TdeEngine engine(db);
  auto on = engine.Execute(
      "(aggregate ((an an)) ((n count*) (sv sum v)) (scan t))", EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_EQ(on->table.num_rows(), 1);
  EXPECT_TRUE(on->table.at(0, 0).is_null());
  EXPECT_EQ(on->table.at(0, 1).int_value(), 200);
  EXPECT_EQ(on->table.at(0, 2).int_value(), 199 * 200 / 2);
}

TEST(EncodedExecTest, EmptyTableBuilds) {
  auto db = MakeEncodedDb(0);
  auto table = *db->GetTable("enc");
  EXPECT_EQ(table->num_rows(), 0);
}

TEST(EncodedExecTest, EmptyTableDensePath) {
  TdeEngine engine(MakeEncodedDb(0));
  auto on = engine.Execute("(aggregate ((k k)) ((n count*)) (scan enc))",
                           EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(on->table.num_rows(), 0);
}

TEST(EncodedExecTest, DeltaColumnBeyondInt32SumsExactly) {
  TdeEngine engine(MakeEncodedDb(3000));
  auto on = engine.Execute("(aggregate () ((s sum dl)) (scan enc))",
                           EncodedOn());
  ASSERT_TRUE(on.ok()) << on.status();
  // sum(3e9 + 3i) for i in [0,3000)
  int64_t expect = 3000000000LL * 3000 + 3 * (2999LL * 3000 / 2);
  EXPECT_EQ(on->table.at(0, 0).int_value(), expect);
}

// A table of integer group keys over small domains:
//   neg  int64 plain, -4..4, nulls every 11th row (negative min)
//   ri   int64 forced kRle, runs of 50 over 100..105, a null run every 7th
//   b    bool plain, every third row true
//   d    date plain, 16000..16004
//   k    string dict, cardinality 3
//   v    int64 plain measure
std::shared_ptr<Database> MakeIntKeyDb(int64_t rows) {
  std::vector<ColumnInfo> schema = {
      {"neg", DataType::Int64()}, {"ri", DataType::Int64()},
      {"b", DataType::Bool()},    {"d", DataType::Date()},
      {"k", DataType::String()},  {"v", DataType::Int64()},
  };
  TableBuilder builder("ints", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceRle);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(i % 11 == 0 ? Value::Null() : Value(i % 9 - 4));
    row.push_back((i / 50) % 7 == 6 ? Value::Null()
                                    : Value(100 + (i / 50) % 6));
    row.emplace_back(i % 3 == 0);
    row.emplace_back(static_cast<int64_t>(16000 + i % 5));
    static const char* const kKeys[] = {"k0", "k1", "k2"};
    row.emplace_back(kKeys[i % 3]);
    row.emplace_back(i % 17);
    (void)builder.AddRow(row);
  }
  auto db = std::make_shared<Database>("intdb");
  (void)db->AddTable(*builder.Finish());
  return db;
}

TEST(EncodedExecTest, IntegerKeysGroupDense) {
  TdeEngine engine(MakeIntKeyDb(3000));
  for (const char* groups : {"(neg neg)", "(ri ri)", "(b b)", "(d d)",
                             "(k k) (neg neg)", "(ri ri) (k k)"}) {
    std::string tql = "(aggregate (";
    tql.append(groups).append(
        ") ((n count*) (sv sum v) (mv min v)) (scan ints))");
    SCOPED_TRACE(tql);
    QueryResult on = DiffEncodedVsRow(engine, tql);
    ASSERT_NE(on.stats, nullptr);
    EXPECT_EQ(on.stats->encoded_plans, 1);
    EXPECT_EQ(on.stats->encoded_fallbacks, 0);
  }
}

TEST(EncodedExecTest, IntegerKeysUnderEncodedFilter) {
  TdeEngine engine(MakeIntKeyDb(3000));
  QueryResult on = DiffEncodedVsRow(
      engine,
      "(aggregate ((d d) (k k)) ((n count*) (sv sum v)) "
      "(select (and (> ri 101) (= k \"k1\")) (scan ints)))");
  ASSERT_NE(on.stats, nullptr);
  EXPECT_EQ(on.stats->encoded_plans, 1);
}

// `neg` spans 9 values, so it needs 10 cells: at a cap of 10 it groups
// dense, one under it falls back on the cell cap with the same answer.
TEST(EncodedExecTest, IntegerDomainOnePastTheCapFallsBack) {
  TdeEngine engine(MakeIntKeyDb(3000));
  const std::string tql =
      "(aggregate ((neg neg)) ((n count*)) (scan ints))";
  auto off = engine.Execute(tql, EncodedOff());
  ASSERT_TRUE(off.ok()) << off.status();
  for (int64_t cap : {10, 9}) {
    QueryOptions options = EncodedOn();
    options.optimizer.encoded_group_cells_max = cap;
    auto on = engine.Execute(tql, options);
    ASSERT_TRUE(on.ok()) << on.status();
    EXPECT_TRUE(TablesEquivalent(off->table, on->table)) << cap;
    EXPECT_EQ(on->stats->encoded_plans, cap == 10 ? 1 : 0) << cap;
    EXPECT_EQ(on->stats->encoded_fallbacks, cap == 10 ? 0 : 1) << cap;
  }
}

// --- storage helpers ---

TEST(EncodedExecTest, EmitRunsClipsAndRebases) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  const Column& r = *table->column(2);  // runs of 100, values (i/100)%5
  ASSERT_TRUE(r.is_rle());

  std::vector<RleRun> runs;
  auto emit = [&r, &runs](std::vector<RowRange> pieces) {
    Column::DecodeCursor cursor;
    return r.EmitRuns(&cursor, pieces, &runs);
  };
  // Range inside a single run.
  EXPECT_EQ(emit({{120, 30}}), 1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].value, 1);
  EXPECT_EQ(runs[0].start, 0);
  EXPECT_EQ(runs[0].count, 30);

  // Range crossing two boundaries: clipped head and tail, contiguous,
  // covering [0, count).
  runs.clear();
  EXPECT_EQ(emit({{150, 250}}), 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].value, 1);
  EXPECT_EQ(runs[0].start, 0);
  EXPECT_EQ(runs[0].count, 50);
  EXPECT_EQ(runs[1].value, 2);
  EXPECT_EQ(runs[1].start, 50);
  EXPECT_EQ(runs[1].count, 100);
  EXPECT_EQ(runs[2].value, 3);
  EXPECT_EQ(runs[2].start, 150);
  EXPECT_EQ(runs[2].count, 100);

  // Empty range emits no runs.
  runs.clear();
  EXPECT_EQ(emit({{150, 0}}), 0);
  EXPECT_TRUE(runs.empty());

  // Several pieces in one call: each clipped, rebased to where it lands.
  runs.clear();
  EXPECT_EQ(emit({{10, 20}, {190, 20}, {400, 5}}), 4);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].value, 0);
  EXPECT_EQ(runs[0].start, 0);
  EXPECT_EQ(runs[0].count, 20);
  EXPECT_EQ(runs[1].value, 1);
  EXPECT_EQ(runs[1].start, 20);
  EXPECT_EQ(runs[1].count, 10);
  EXPECT_EQ(runs[2].value, 2);
  EXPECT_EQ(runs[2].start, 30);
  EXPECT_EQ(runs[2].count, 10);
  EXPECT_EQ(runs[3].value, 4);
  EXPECT_EQ(runs[3].start, 40);
  EXPECT_EQ(runs[3].count, 5);
}

TEST(EncodedExecTest, DecodeIntsResumableMatchesDecodeIntsAcrossJumps) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  // dl: delta. r: RLE int (runs of 100). rf: RLE float (runs of 300).
  for (int col : {6, 2}) {
    const Column& c = *table->column(col);
    Column::DecodeCursor cursor;
    // Contiguous decode, then a morsel-style jump forward, then contiguous
    // again, then a jump back to an earlier row.
    const int64_t plan[][2] = {
        {0, 100}, {100, 200}, {1500, 100}, {1600, 50}, {700, 30}};
    for (const auto& step : plan) {
      std::vector<int64_t> got, want;
      std::vector<RowRange> piece = {{step[0], step[1]}};
      c.DecodeIntsResumable(&cursor, piece, &got);
      c.DecodeInts(step[0], step[1], &want);
      EXPECT_EQ(got, want) << "column " << col << " at start " << step[0];
    }
    // All of them as the pieces of one call.
    std::vector<RowRange> pieces;
    std::vector<int64_t> want;
    for (const auto& step : plan) {
      pieces.push_back({step[0], step[1]});
      c.DecodeInts(step[0], step[1], &want);
    }
    std::vector<int64_t> got;
    Column::DecodeCursor fresh;
    c.DecodeIntsResumable(&fresh, pieces, &got);
    EXPECT_EQ(got, want) << "column " << col;
  }
  // Float payloads walk the same runs.
  const Column& rf = *table->column(3);
  std::vector<RowRange> pieces = {{250, 100}, {1200, 7}, {10, 3}};
  std::vector<double> got;
  Column::DecodeCursor cursor;
  rf.DecodeDoubles(&cursor, pieces, &got);
  ASSERT_EQ(got.size(), 110u);
  EXPECT_EQ(got[0], 0.0);
  EXPECT_EQ(got[50], 1.25);
  EXPECT_EQ(got[100], 5.0);
  EXPECT_EQ(got[109], 0.0);
}

TEST(EncodedExecTest, CompareRowsAgreesWithValuesAcrossEncodings) {
  auto db = MakeEncodedDb(3000);
  auto table = *db->GetTable("enc");
  // k: dictionary. r: RLE. dl: delta. s: dictionary with nulls.
  for (int col : {0, 1, 2, 6}) {
    const Column& c = *table->column(col);
    const int64_t probes[][2] = {{0, 0},    {0, 1},    {1, 0},   {0, 7},
                                 {99, 100}, {100, 99}, {5, 250}, {13, 26}};
    for (const auto& p : probes) {
      Value a = c.GetValue(p[0]);
      Value b = c.GetValue(p[1]);
      int want = a.Compare(b);  // NULL sorts before everything
      want = want < 0 ? -1 : (want > 0 ? 1 : 0);
      int got = c.CompareRows(p[0], p[1]);
      EXPECT_EQ(got < 0 ? -1 : (got > 0 ? 1 : 0), want)
          << "col " << col << " rows " << p[0] << "," << p[1];
    }
  }
}

TEST(EncodedExecTest, SortedPrefixSplitBreaksOnKeyChanges) {
  // Sorted dict + delta prefix: range partitioning must not split a group
  // of equal keys (the comparator is the encoding-aware CompareRows).
  std::vector<ColumnInfo> schema = {{"g", DataType::String()},
                                    {"t", DataType::Int64()}};
  TableBuilder builder("sorted", schema);
  builder.SetEncodingChoice(1, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < 4000; ++i) {
    (void)builder.AddRow({Value("g" + std::to_string(i / 700)),
                          Value(static_cast<int64_t>(3000000000LL + i))});
  }
  builder.DeclareSorted({0});
  auto table = *builder.Finish();
  std::vector<int64_t> offsets = SplitRowsOnSortedPrefix(*table, 1, 4);
  ASSERT_GE(offsets.size(), 2u);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), 4000);
  for (size_t i = 1; i + 1 < offsets.size(); ++i) {
    int64_t off = offsets[i];
    EXPECT_NE(table->column(0)->CompareRows(off - 1, off), 0)
        << "boundary " << off << " splits equal keys";
  }
}

}  // namespace
}  // namespace vizq::tde
