// End-to-end tests of the TDE engine: TQL text -> results, serial vs
// parallel equivalence, and the §4.2/§4.3 plan features.

#include "src/tde/engine.h"

#include <gtest/gtest.h>

#include "src/tde/plan/tql_parser.h"
#include "src/testing/table_diff.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

using vizq::testing::MakeTestDatabase;

// Order-insensitive with float tolerance: parallel plans (morsel scans,
// exchange interleaving, partial-aggregate merges) accumulate FP measures
// in a different order than the serial plan, which legally perturbs the
// last ulp of AVG results (see src/testing/table_diff.h).
::testing::AssertionResult TablesEquivalent(const ResultTable& expected,
                                            const ResultTable& actual) {
  vizq::testing::DiffResult diff = vizq::testing::DiffTables(expected, actual);
  if (diff.equivalent) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff.message;
}

class TdeEngineTest : public ::testing::Test {
 protected:
  TdeEngineTest() : engine_(MakeTestDatabase(4096)) {}

  ResultTable MustQuery(const std::string& tql) {
    auto result = engine_.Query(tql);
    EXPECT_TRUE(result.ok()) << result.status() << " for " << tql;
    return result.ok() ? *result : ResultTable();
  }

  TdeEngine engine_;
};

TEST_F(TdeEngineTest, ScanCountsRows) {
  ResultTable t = MustQuery("(aggregate () ((n count*)) (scan sales))");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.at(0, 0).int_value(), 4096);
}

TEST_F(TdeEngineTest, SelectFilters) {
  ResultTable all = MustQuery(
      "(aggregate () ((n count*)) (select (= region \"East\") (scan sales)))");
  ASSERT_EQ(all.num_rows(), 1);
  EXPECT_EQ(all.at(0, 0).int_value(), 1024);
}

TEST_F(TdeEngineTest, ProjectComputesExpressions) {
  ResultTable t = MustQuery(
      "(topn 3 ((revenue desc)) (project ((region region) (revenue (* units "
      "price))) (scan sales)))");
  ASSERT_EQ(t.num_rows(), 3);
  EXPECT_TRUE(t.at(0, 1).AsDouble() >= t.at(1, 1).AsDouble());
  EXPECT_TRUE(t.at(1, 1).AsDouble() >= t.at(2, 1).AsDouble());
}

TEST_F(TdeEngineTest, GroupByRegion) {
  ResultTable t = MustQuery(
      "(order ((region asc)) (aggregate ((region region)) ((n count*) (total "
      "sum units)) (scan sales)))");
  ASSERT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.at(0, 0).string_value(), "East");
  EXPECT_EQ(t.at(0, 1).int_value(), 1024);
  EXPECT_EQ(t.at(3, 0).string_value(), "West");
}

TEST_F(TdeEngineTest, AvgMatchesSumOverCount) {
  ResultTable t = MustQuery(
      "(aggregate ((region region)) ((total sum units) (n count units) (mean "
      "avg units)) (scan sales))");
  ASSERT_EQ(t.num_rows(), 4);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    double expect = t.at(r, 1).AsDouble() / t.at(r, 2).AsDouble();
    EXPECT_NEAR(t.at(r, 3).AsDouble(), expect, 1e-9);
  }
}

TEST_F(TdeEngineTest, DistinctIsRewrittenToGroupBy) {
  ResultTable t = MustQuery(
      "(distinct (project ((region region)) (scan sales)))");
  EXPECT_EQ(t.num_rows(), 4);
}

TEST_F(TdeEngineTest, JoinEnrichesRows) {
  ResultTable t = MustQuery(
      "(order ((category asc) (region asc)) (aggregate ((category category) "
      "(region region)) ((n count*)) (join inner ((product name)) (scan "
      "sales) (scan products) referential)))");
  // 4 categories x 4 regions (every category present in every region).
  EXPECT_EQ(t.num_rows(), 16);
}

TEST_F(TdeEngineTest, TopNOrdersAndLimits) {
  ResultTable t = MustQuery(
      "(topn 2 ((total desc)) (aggregate ((product product)) ((total sum "
      "units)) (scan sales)))");
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_GE(t.at(0, 1).int_value(), t.at(1, 1).int_value());
}

TEST_F(TdeEngineTest, InPredicate) {
  ResultTable t = MustQuery(
      "(aggregate () ((n count*)) (select (in region \"East\" \"West\") "
      "(scan sales)))");
  EXPECT_EQ(t.at(0, 0).int_value(), 2048);
}

TEST_F(TdeEngineTest, DateFunctions) {
  ResultTable t = MustQuery(
      "(aggregate ((wd (weekday day))) ((n count*)) (scan sales))");
  EXPECT_EQ(t.num_rows(), 7);
}

TEST_F(TdeEngineTest, EmptyInputScalarAggregateYieldsOneRow) {
  ResultTable t = MustQuery(
      "(aggregate () ((n count*) (s sum units)) (select (= region "
      "\"Nowhere\") (scan sales)))");
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.at(0, 0).int_value(), 0);
  EXPECT_TRUE(t.at(0, 1).is_null());
}

// --- serial vs parallel equivalence, across all §4.2.3 strategies ---

struct ParallelConfig {
  std::string name;
  bool local_global;
  bool range_partition;
};

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<ParallelConfig> {};

TEST_P(ParallelEquivalenceTest, MatchesSerialResults) {
  auto db = MakeTestDatabase(20000);
  TdeEngine engine(db);
  const std::vector<std::string> queries = {
      "(aggregate ((region region)) ((n count*) (total sum units) (mean avg "
      "price) (mn min units) (mx max units)) (scan sales))",
      "(aggregate ((region region) (product product)) ((total sum units)) "
      "(scan sales))",
      "(aggregate () ((total sum units) (n count*)) (scan sales))",
      "(topn 5 ((total desc) (product asc)) (aggregate ((product product)) "
      "((total sum units)) (scan sales)))",
      "(aggregate ((category category)) ((total sum units)) (join inner "
      "((product name)) (scan sales) (scan products) referential))",
      "(order ((region asc)) (aggregate ((region region)) ((n count*)) "
      "(select (> units 50) (scan sales))))",
  };
  for (const std::string& q : queries) {
    QueryOptions serial = QueryOptions::Serial();
    QueryOptions parallel;
    parallel.parallel.max_dop = 4;
    parallel.parallel.min_rows_per_fraction = 1024;
    parallel.parallel.enable_local_global_agg = GetParam().local_global;
    parallel.parallel.enable_range_partition = GetParam().range_partition;

    auto rs = engine.Execute(q, serial);
    auto rp = engine.Execute(q, parallel);
    ASSERT_TRUE(rs.ok()) << rs.status() << " for " << q;
    ASSERT_TRUE(rp.ok()) << rp.status() << " for " << q;
    EXPECT_TRUE(TablesEquivalent(rs->table, rp->table))
        << "config " << GetParam().name << "\nquery " << q << "\nserial:\n"
        << rs->table.ToCsv() << "\nparallel:\n"
        << rp->table.ToCsv() << "\nplan:\n"
        << rp->plan_text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ParallelEquivalenceTest,
    ::testing::Values(
        ParallelConfig{"plain_exchange", false, false},
        ParallelConfig{"local_global", true, false},
        ParallelConfig{"range_partition", true, true},
        ParallelConfig{"range_only", false, true}),
    [](const ::testing::TestParamInfo<ParallelConfig>& info) {
      return info.param.name;
    });

TEST(TdeParallelPlanTest, RangePartitionRemovesGlobalAggregate) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  QueryOptions options;
  options.parallel.max_dop = 4;
  options.parallel.min_rows_per_fraction = 1024;
  options.parallel.range_partition_min_distinct = 2;
  auto result = engine.Execute(
      "(aggregate ((region region)) ((total sum units)) (scan sales))",
      options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats->used_range_partition) << result->plan_text;
  EXPECT_FALSE(result->stats->used_local_global_agg) << result->plan_text;
  EXPECT_EQ(result->table.num_rows(), 4);
}

TEST(TdeParallelPlanTest, LowCardinalityFallsBackToLocalGlobal) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  QueryOptions options;
  options.parallel.max_dop = 4;
  options.parallel.min_rows_per_fraction = 1024;
  options.parallel.range_partition_min_distinct = 100;  // region has 4
  auto result = engine.Execute(
      "(aggregate ((region region)) ((total sum units)) (scan sales))",
      options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->stats->used_range_partition);
  EXPECT_TRUE(result->stats->used_local_global_agg) << result->plan_text;
}

TEST(TdeParallelPlanTest, CountDistinctBlocksLocalGlobal) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  QueryOptions options;
  options.parallel.max_dop = 4;
  options.parallel.min_rows_per_fraction = 1024;
  options.parallel.enable_range_partition = false;
  auto result = engine.Execute(
      "(aggregate ((product product)) ((nd countd units)) (scan sales))",
      options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->stats->used_local_global_agg) << result->plan_text;
  // Cross-check against serial.
  auto serial = engine.Execute(
      "(aggregate ((product product)) ((nd countd units)) (scan sales))",
      QueryOptions::Serial());
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(ResultTable::SameUnordered(result->table, serial->table));
}

TEST(TdeParallelPlanTest, MorselScanMatchesSerialAndClaimsMorsels) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  const std::vector<std::string> queries = {
      "(aggregate ((region region)) ((n count*) (total sum units) (mean avg "
      "price)) (scan sales))",
      "(aggregate () ((total sum units) (n count*)) (scan sales))",
      "(topn 5 ((total desc) (product asc)) (aggregate ((product product)) "
      "((total sum units)) (scan sales)))",
  };
  for (const std::string& q : queries) {
    QueryOptions options;
    options.parallel.max_dop = 4;
    options.parallel.min_rows_per_fraction = 1024;
    options.parallel.enable_range_partition = false;
    // Tiny morsels: every fraction must claim many, so skew between the
    // scheduler-dispatched producers self-balances.
    options.parallel.morsel_rows = 1000;
    auto rp = engine.Execute(q, options);
    auto rs = engine.Execute(q, QueryOptions::Serial());
    ASSERT_TRUE(rp.ok()) << rp.status() << " for " << q;
    ASSERT_TRUE(rs.ok()) << rs.status() << " for " << q;
    EXPECT_TRUE(TablesEquivalent(rs->table, rp->table))
        << "query " << q << "\nserial:\n"
        << rs->table.ToCsv() << "\nmorsel:\n"
        << rp->table.ToCsv() << "\nplan:\n"
        << rp->plan_text;
    EXPECT_TRUE(rp->stats->used_morsel_scan) << rp->plan_text;
    // 40000 rows / 1000-row morsels = 40 claims shared across fractions.
    EXPECT_GE(rp->stats->morsels_claimed, 40) << rp->plan_text;
  }
}

TEST(TdeStreamingAggTest, SortedInputUsesStreamingAggregate) {
  auto db = MakeTestDatabase(4096);
  TdeEngine engine(db);
  QueryOptions options = QueryOptions::Serial();
  auto result = engine.Execute(
      "(aggregate ((region region)) ((n count*)) (scan sales))", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats->used_streaming_agg) << result->plan_text;
  EXPECT_EQ(result->table.num_rows(), 4);
}

TEST(TdeRleIndexTest, RleRewriteMatchesPlainScan) {
  auto db = MakeTestDatabase(20000);
  TdeEngine engine(db);
  const std::string q =
      "(aggregate () ((n count*) (total sum units)) (select (= region "
      "\"South\") (scan sales)))";
  QueryOptions off = QueryOptions::Serial();
  off.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  QueryOptions on = QueryOptions::Serial();
  on.optimizer.rle_index = OptimizerOptions::RleIndexMode::kForce;

  auto r_off = engine.Execute(q, off);
  auto r_on = engine.Execute(q, on);
  ASSERT_TRUE(r_off.ok()) << r_off.status();
  ASSERT_TRUE(r_on.ok()) << r_on.status();
  EXPECT_FALSE(r_off->stats->used_rle_index);
  EXPECT_TRUE(r_on->stats->used_rle_index) << r_on->plan_text;
  EXPECT_TRUE(ResultTable::SameUnordered(r_off->table, r_on->table));
  // Range skipping reads only the matching quarter of the table.
  EXPECT_LT(r_on->stats->rows_scanned, r_off->stats->rows_scanned / 2);

  // A dictionary-key aggregate over the ranged scan takes the encoded
  // path: range skipping picks the rows, then the dense Aggregate runs on
  // them (DESIGN.md §11).
  const std::string by_product =
      "(aggregate ((product product)) ((n count*)) (select (= region "
      "\"South\") (scan sales)))";
  auto e_off = engine.Execute(by_product, off);
  auto e_on = engine.Execute(by_product, on);
  ASSERT_TRUE(e_off.ok()) << e_off.status();
  ASSERT_TRUE(e_on.ok()) << e_on.status();
  EXPECT_TRUE(e_on->stats->used_rle_index) << e_on->plan_text;
  EXPECT_TRUE(e_on->stats->used_encoded_path) << e_on->plan_text;
  EXPECT_TRUE(ResultTable::SameUnordered(e_off->table, e_on->table));

  // Parallel: the matching runs of `product` (RLE, the second sort key)
  // are split across fractions by row count, so one region's runs land in
  // two fractions. Grouping by `region` must not range-partition the
  // ranged scan (each fraction would emit its own partial group); it
  // merges local aggregates instead, and those run dense under the
  // Exchange.
  const std::string grouped =
      "(aggregate ((region region)) ((n count*) (total sum units)) "
      "(select (or (= product \"apple\") (= product \"banana\")) "
      "(scan sales)))";
  QueryOptions par_off;
  par_off.parallel.max_dop = 4;
  par_off.parallel.min_rows_per_fraction = 1024;
  par_off.parallel.range_partition_min_distinct = 1;
  par_off.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;
  QueryOptions par_on = par_off;
  par_on.optimizer.rle_index = OptimizerOptions::RleIndexMode::kForce;
  auto p_off = engine.Execute(grouped, par_off);
  auto p_on = engine.Execute(grouped, par_on);
  ASSERT_TRUE(p_off.ok()) << p_off.status();
  ASSERT_TRUE(p_on.ok()) << p_on.status();
  EXPECT_TRUE(p_on->stats->used_rle_index) << p_on->plan_text;
  EXPECT_TRUE(p_on->stats->used_parallel_plan) << p_on->plan_text;
  EXPECT_TRUE(p_on->stats->used_encoded_path) << p_on->plan_text;
  EXPECT_EQ(p_on->table.num_rows(), 4);
  EXPECT_TRUE(TablesEquivalent(p_off->table, p_on->table))
      << p_on->plan_text;
}

TEST(TdeJoinCullingTest, UnusedDimensionJoinIsRemoved) {
  auto db = MakeTestDatabase(4096);
  TdeEngine engine(db);
  // The join to products contributes no referenced columns.
  auto result = engine.Execute(
      "(aggregate ((region region)) ((total sum units)) (join inner ((product "
      "name)) (scan sales) (scan products) referential))",
      QueryOptions::Serial());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan_text.find("Join"), std::string::npos)
      << result->plan_text;
  // And results match the no-join query.
  auto direct = engine.Execute(
      "(aggregate ((region region)) ((total sum units)) (scan sales))",
      QueryOptions::Serial());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(ResultTable::SameUnordered(result->table, direct->table));
}

TEST(TdeJoinCullingTest, NonReferentialJoinIsKept) {
  auto db = MakeTestDatabase(4096);
  TdeEngine engine(db);
  auto result = engine.Execute(
      "(aggregate ((region region)) ((total sum units)) (join inner ((product "
      "name)) (scan sales) (scan products)))",
      QueryOptions::Serial());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->plan_text.find("Join"), std::string::npos)
      << result->plan_text;
}

TEST(TdeTqlParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseTql("(scan)").ok());
  EXPECT_FALSE(ParseTql("(select (= a 1))").ok());
  EXPECT_FALSE(ParseTql("(frobnicate (scan t))").ok());
  EXPECT_FALSE(ParseTql("(scan t) trailing").ok());
  EXPECT_FALSE(ParseTql("(select (= a 1) (scan t)").ok());
  EXPECT_FALSE(ParseTql("(topn -3 ((x)) (scan t))").ok());
}

TEST(TdeTqlParserTest, ParsesComments) {
  auto plan = ParseTql("; a comment\n(scan sales) ; trailing comment");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*plan)->kind, LogicalKind::kScan);
}

TEST(TdeBinderTest, UnknownColumnFails) {
  auto db = MakeTestDatabase(128);
  TdeEngine engine(db);
  auto result = engine.Query("(select (= nosuch 1) (scan sales))");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(TdeBinderTest, TypeMismatchFails) {
  auto db = MakeTestDatabase(128);
  TdeEngine engine(db);
  EXPECT_FALSE(engine.Query("(select (= region 5) (scan sales))").ok());
  EXPECT_FALSE(engine.Query("(select (+ region 1) (scan sales))").ok());
  EXPECT_FALSE(
      engine.Query("(aggregate () ((s sum region)) (scan sales))").ok());
}

}  // namespace
}  // namespace vizq::tde
