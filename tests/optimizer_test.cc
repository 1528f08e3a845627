// Optimizer pass tests: plan shapes after constant folding, select
// pushdown, column pruning, join culling, order removal, and the
// parallelizer's Exchange placement.

#include "src/tde/plan/optimizer.h"

#include <gtest/gtest.h>

#include "src/tde/engine.h"
#include "src/tde/plan/binder.h"
#include "src/tde/plan/parallelizer.h"
#include "src/tde/plan/rewriter.h"
#include "src/tde/plan/tql_parser.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

using vizq::testing::MakeTestDatabase;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : db_(MakeTestDatabase(4096)) {}

  LogicalOpPtr Prepare(const std::string& tql) {
    auto plan = ParseTql(tql);
    EXPECT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(BindPlan(*plan, *db_).ok());
    EXPECT_TRUE(RewritePlan(&*plan).ok());
    return *plan;
  }

  std::shared_ptr<Database> db_;
};

TEST_F(OptimizerTest, ConstantFoldingSimplifiesPredicates) {
  LogicalOpPtr plan = Prepare(
      "(select (and (> units (+ 1 2)) true) (scan sales))");
  ASSERT_TRUE(FoldConstantsPass(&plan).ok());
  ASSERT_EQ(plan->kind, LogicalKind::kSelect);
  // (and (> units 3) true) -> (> units 3)
  EXPECT_EQ(plan->predicate->binary_op, BinaryOp::kGt);
  ASSERT_EQ(plan->predicate->children[1]->kind, ExprKind::kLiteral);
  EXPECT_EQ(plan->predicate->children[1]->literal.int_value(), 3);
}

TEST_F(OptimizerTest, AlwaysTrueSelectDisappears) {
  LogicalOpPtr plan = Prepare("(select (or true (> units 3)) (scan sales))");
  ASSERT_TRUE(FoldConstantsPass(&plan).ok());
  EXPECT_EQ(plan->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, SingleElementInBecomesEquality) {
  LogicalOpPtr plan = Prepare("(select (in region \"East\") (scan sales))");
  ASSERT_TRUE(FoldConstantsPass(&plan).ok());
  ASSERT_EQ(plan->kind, LogicalKind::kSelect);
  EXPECT_EQ(plan->predicate->kind, ExprKind::kBinary);
  EXPECT_EQ(plan->predicate->binary_op, BinaryOp::kEq);
}

TEST_F(OptimizerTest, SelectPushesThroughProjectAndJoin) {
  LogicalOpPtr plan = Prepare(
      "(select (and (= region \"East\") (= category \"fruit\"))"
      " (join inner ((product name)) (scan sales) (scan products)))");
  ASSERT_TRUE(SelectPushdownPass(&plan).ok());
  // Both conjuncts moved into the join sides; the top Select is gone.
  ASSERT_EQ(plan->kind, LogicalKind::kJoin);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kSelect);  // region: left
  EXPECT_EQ(plan->children[1]->kind, LogicalKind::kSelect);  // category: right
}

TEST_F(OptimizerTest, SelectOnGroupColumnsPushesBelowAggregate) {
  LogicalOpPtr plan = Prepare(
      "(select (= region \"East\")"
      " (aggregate ((region region)) ((n count*)) (scan sales)))");
  ASSERT_TRUE(SelectPushdownPass(&plan).ok());
  ASSERT_EQ(plan->kind, LogicalKind::kAggregate);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kSelect);
}

TEST_F(OptimizerTest, SelectOnAggregateOutputStaysAbove) {
  LogicalOpPtr plan = Prepare(
      "(select (> n 10)"
      " (aggregate ((region region)) ((n count*)) (scan sales)))");
  ASSERT_TRUE(SelectPushdownPass(&plan).ok());
  EXPECT_EQ(plan->kind, LogicalKind::kSelect);  // HAVING-style stays
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kAggregate);
}

TEST_F(OptimizerTest, ColumnPruningNarrowsScans) {
  LogicalOpPtr plan = Prepare(
      "(aggregate ((region region)) ((total sum units)) (scan sales))");
  ASSERT_TRUE(ColumnPruningPass(&plan, true).ok());
  const LogicalOp* scan = plan->children[0].get();
  ASSERT_EQ(scan->kind, LogicalKind::kScan);
  // Only region(0) and units(2) survive out of 5 columns.
  EXPECT_EQ(scan->scan_columns.size(), 2u);
}

TEST_F(OptimizerTest, PruningKeepsPredicateColumns) {
  LogicalOpPtr plan = Prepare(
      "(aggregate ((region region)) ((n count*))"
      " (select (> price 10.0) (scan sales)))");
  ASSERT_TRUE(ColumnPruningPass(&plan, true).ok());
  // Results must still be correct end-to-end.
  TdeEngine engine(db_);
  auto direct = engine.Execute(
      "(aggregate ((region region)) ((n count*))"
      " (select (> price 10.0) (scan sales)))",
      QueryOptions::Serial());
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(direct->table.num_rows(), 4);
}

TEST_F(OptimizerTest, RedundantOrderUnderAggregateRemoved) {
  LogicalOpPtr plan = Prepare(
      "(aggregate ((product product)) ((n count*))"
      " (order ((units asc)) (scan sales)))");
  ASSERT_TRUE(OrderRemovalPass(&plan).ok());
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, OrderFeedingStreamingAggregateKept) {
  LogicalOpPtr plan = Prepare(
      "(aggregate ((units units)) ((n count*))"
      " (order ((units asc)) (scan sales)))");
  ASSERT_TRUE(StreamingAggPass(&plan).ok());
  ASSERT_TRUE(OrderRemovalPass(&plan).ok());
  EXPECT_TRUE(plan->prefer_streaming);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kOrder);
}

TEST_F(OptimizerTest, OrderUnderTopNRemoved) {
  LogicalOpPtr plan = Prepare(
      "(topn 3 ((units desc)) (order ((price asc)) (scan sales)))");
  ASSERT_TRUE(OrderRemovalPass(&plan).ok());
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, RleRewriteMakesOneRangedScan) {
  // Conjuncts on two RLE columns: the rewrite folds one into the Scan's
  // run predicate and leaves the other in the Select. Optimizing again
  // must not fold the other into the ranged scan in place of the first.
  LogicalOpPtr plan = Prepare(
      "(select (and (= region \"East\") (= product \"fig\")) (scan sales))");
  OptimizerOptions options;
  options.rle_index = OptimizerOptions::RleIndexMode::kForce;
  ASSERT_TRUE(OptimizePlan(&plan, options).ok());
  ASSERT_EQ(plan->kind, LogicalKind::kSelect);
  ASSERT_EQ(plan->children[0]->kind, LogicalKind::kScan);
  EXPECT_NE(plan->children[0]->run_predicate, nullptr);
  const std::string once = plan->ToString();
  EXPECT_NE(once.find("runs["), std::string::npos) << once;
  ASSERT_TRUE(OptimizePlan(&plan, options).ok());
  EXPECT_EQ(plan->ToString(), once);
}

TEST_F(OptimizerTest, ParallelizerInsertsExchangeAtRoot) {
  LogicalOpPtr plan = Prepare("(select (> units 50) (scan sales))");
  ParallelOptions options;
  options.max_dop = 4;
  options.min_rows_per_fraction = 256;
  ASSERT_TRUE(ParallelizePlan(&plan, options).ok());
  ASSERT_EQ(plan->kind, LogicalKind::kExchange);
  EXPECT_GT(plan->dop, 1);
  EXPECT_EQ(plan->children[0]->kind, LogicalKind::kSelect);
}

TEST_F(OptimizerTest, ParallelizerBuildsLocalGlobalShape) {
  LogicalOpPtr plan = Prepare(
      "(aggregate ((product product)) ((total sum units)) (scan sales))");
  ParallelOptions options;
  options.max_dop = 4;
  options.min_rows_per_fraction = 256;
  options.enable_range_partition = false;
  ASSERT_TRUE(ParallelizePlan(&plan, options).ok());
  // Final <- Exchange <- Partial <- Scan.
  ASSERT_EQ(plan->kind, LogicalKind::kAggregate);
  EXPECT_EQ(plan->agg_phase, AggPhase::kFinal);
  ASSERT_EQ(plan->children[0]->kind, LogicalKind::kExchange);
  const LogicalOp* partial = plan->children[0]->children[0].get();
  ASSERT_EQ(partial->kind, LogicalKind::kAggregate);
  EXPECT_EQ(partial->agg_phase, AggPhase::kPartial);
}

TEST_F(OptimizerTest, ParallelizerLocalGlobalTopN) {
  LogicalOpPtr plan = Prepare(
      "(topn 3 ((units desc)) (scan sales))");
  ParallelOptions options;
  options.max_dop = 4;
  options.min_rows_per_fraction = 256;
  ASSERT_TRUE(ParallelizePlan(&plan, options).ok());
  // Global TopN over Exchange over local TopN.
  ASSERT_EQ(plan->kind, LogicalKind::kTopN);
  ASSERT_EQ(plan->children[0]->kind, LogicalKind::kExchange);
  EXPECT_EQ(plan->children[0]->children[0]->kind, LogicalKind::kTopN);
}

TEST_F(OptimizerTest, SmallTablesStaySerial) {
  LogicalOpPtr plan = Prepare("(scan products)");  // 8 rows
  ParallelOptions options;
  options.max_dop = 8;
  ASSERT_TRUE(ParallelizePlan(&plan, options).ok());
  EXPECT_EQ(plan->kind, LogicalKind::kScan);
  EXPECT_EQ(plan->scan_dop, 1);
}

// Each non-final Aggregate the encoded decision leaves on the row path
// carries one typed reason; the three gate reasons are the fallbacks.
TEST_F(OptimizerTest, EncodedDecisionNamesOneSkipReasonPerAggregate) {
  // `sales` is sorted on (region, product), both RLE dictionary strings;
  // units, price and day are flat. The join reads a dimension column in
  // its aggregate, so it stays above the join; a float key has no dense
  // domain.
  struct Case {
    std::string tql;
    EncodedSkip want;
    int64_t cells_max = OptimizerOptions().encoded_group_cells_max;
  };
  const std::vector<Case> cases = {
      {"(aggregate () ((n count*)) (scan sales))",
       EncodedSkip::kNoGroupKeys},
      {"(aggregate ((category category)) ((w sum weight)) (join inner "
       "((product name)) (scan sales) (scan products) referential))",
       EncodedSkip::kNotScanChain},
      {"(aggregate ((price price)) ((n count*)) (scan sales))",
       EncodedSkip::kKeyNotDense},
      {"(aggregate ((product product)) ((n count*)) (scan sales))",
       EncodedSkip::kCellCap, /*cells_max=*/4},
      {"(aggregate ((product product)) ((n count (= region \"East\"))) "
       "(scan sales))",
       EncodedSkip::kArgOverRle},
      {"(aggregate ((product product)) ((n count*)) (select (= region "
       "product) (scan sales)))",
       EncodedSkip::kConjunctOverRle},
      {"(aggregate ((region region)) ((n count*)) (scan sales))",
       EncodedSkip::kStreaming},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tql);
    OptimizerOptions options;
    options.encoded_group_cells_max = c.cells_max;
    LogicalOpPtr plan = Prepare(c.tql);
    ASSERT_TRUE(OptimizePlan(&plan, options).ok());
    EncodedExecDecision d = DecideEncodedExec(plan, options);
    ASSERT_EQ(plan->kind, LogicalKind::kAggregate) << plan->ToString();
    EXPECT_EQ(plan->encoded_skip, c.want)
        << EncodedSkipToString(plan->encoded_skip);
    EXPECT_FALSE(plan->use_encoded_agg);
    EXPECT_EQ(d.plans, 0);
    for (int r = 0; r < kNumEncodedSkips; ++r) {
      EXPECT_EQ(d.skipped[r], r == static_cast<int>(c.want) ? 1 : 0)
          << EncodedSkipToString(static_cast<EncodedSkip>(r));
    }
    bool gate = c.want == EncodedSkip::kCellCap ||
                c.want == EncodedSkip::kArgOverRle ||
                c.want == EncodedSkip::kConjunctOverRle;
    EXPECT_EQ(d.fallbacks, gate ? 1 : 0);
  }

  // The reason reaches the Aggregate's EXPLAIN ANALYZE label.
  TdeEngine engine(db_);
  auto result = engine.Execute(cases[2].tql, QueryOptions::Serial());
  ASSERT_TRUE(result.ok()) << result.status();
  std::string text = result->analysis->ToText();
  EXPECT_NE(text.find("skip=key_not_dense]"), std::string::npos) << text;
}

// An aggregate over a join to a small dimension splits in two: a dense
// partial over the fact scan, keyed by the join key, under the join, and a
// final merge above it.
TEST_F(OptimizerTest, AggregateBelowJoinSplitsAroundTheJoin) {
  const std::string tql =
      "(aggregate ((category category)) ((total sum units) (a avg price) "
      "(n count*)) (join inner ((product name)) (scan sales) (scan products) "
      "referential))";
  LogicalOpPtr plan = Prepare(tql);
  OptimizerOptions options;
  ASSERT_TRUE(OptimizePlan(&plan, options).ok());
  const std::string once = plan->ToString();
  ASSERT_EQ(plan->kind, LogicalKind::kAggregate) << once;
  EXPECT_EQ(plan->agg_phase, AggPhase::kFinal) << once;
  const LogicalOp* project = plan->children[0].get();
  ASSERT_EQ(project->kind, LogicalKind::kProject) << once;
  // [category, total, a$sum, a$cnt, n]: the final reads states by position.
  EXPECT_EQ(project->projections.size(), 5u) << once;
  const LogicalOp* join = project->children[0].get();
  ASSERT_EQ(join->kind, LogicalKind::kJoin) << once;
  const LogicalOp* partial = join->children[0].get();
  ASSERT_EQ(partial->kind, LogicalKind::kAggregate) << once;
  EXPECT_EQ(partial->agg_phase, AggPhase::kPartial) << once;
  ASSERT_EQ(partial->group_by.size(), 1u) << once;
  EXPECT_EQ(partial->group_by[0].name, "product") << once;
  EXPECT_EQ(partial->children[0]->kind, LogicalKind::kScan) << once;

  EncodedExecDecision d = DecideEncodedExec(plan, options);
  EXPECT_TRUE(partial->use_encoded_agg) << once;
  EXPECT_EQ(d.plans, 1);
  EXPECT_EQ(d.fallbacks, 0);

  // Optimizing again changes nothing.
  ASSERT_TRUE(OptimizePlan(&plan, options).ok());
  EXPECT_EQ(plan->ToString(), once);

  // Same answer as the plan without encoded execution, serial and with
  // morsels under a partitioned final merge.
  TdeEngine engine(db_);
  QueryOptions off = QueryOptions::Serial();
  off.optimizer.enable_encoded_exec = false;
  auto want = engine.Execute(tql, off);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_FALSE(want->stats->used_agg_below_join);
  QueryOptions parallel;
  parallel.parallel.max_dop = 3;
  parallel.parallel.min_rows_per_fraction = 256;
  parallel.parallel.parallel_merge_min_rows = 1;
  for (const QueryOptions& on : {QueryOptions::Serial(), parallel}) {
    auto got = engine.Execute(tql, on);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->stats->used_agg_below_join) << got->plan_text;
    EXPECT_TRUE(got->stats->used_encoded_path) << got->plan_text;
    EXPECT_TRUE(vizq::testing::TablesEquivalent(want->table, got->table))
        << got->plan_text;
  }
}

TEST_F(OptimizerTest, AggregateBelowJoinRefusals) {
  const std::string join =
      "(join inner ((product name)) (scan sales) (scan products) "
      "referential)";
  struct Case {
    std::string tql;
    bool encoded = true;
    int64_t cells_max = OptimizerOptions().encoded_group_cells_max;
  };
  const std::vector<Case> cases = {
      // COUNTD is not re-aggregable.
      {"(aggregate ((category category)) ((n countd units)) " + join + ")"},
      // The aggregate reads the dimension side.
      {"(aggregate ((category category)) ((w sum weight)) " + join + ")"},
      // A computed join key.
      {"(aggregate ((category category)) ((total sum units)) (join inner "
       "(((lower product) name)) (scan sales) (scan products) "
       "referential))"},
      // The partial (9 cells for `product`) is over the cell cap.
      {"(aggregate ((category category)) ((total sum units)) " + join + ")",
       true, /*cells_max=*/4},
      // Encoded execution is off.
      {"(aggregate ((category category)) ((total sum units)) " + join + ")",
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.tql);
    OptimizerOptions options;
    options.enable_encoded_exec = c.encoded;
    options.encoded_group_cells_max = c.cells_max;
    LogicalOpPtr plan = Prepare(c.tql);
    ASSERT_TRUE(OptimizePlan(&plan, options).ok());
    ASSERT_EQ(plan->kind, LogicalKind::kAggregate) << plan->ToString();
    EXPECT_EQ(plan->agg_phase, AggPhase::kComplete) << plan->ToString();
    EXPECT_EQ(plan->children[0]->kind, LogicalKind::kJoin)
        << plan->ToString();
  }
}

// Property: every optimizer configuration preserves results.
class OptimizerEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalenceTest, PassesPreserveSemantics) {
  int mask = GetParam();
  auto db = MakeTestDatabase(4096);
  TdeEngine engine(db);
  QueryOptions baseline = QueryOptions::Serial();
  baseline.optimizer.enable_constant_folding = false;
  baseline.optimizer.enable_select_pushdown = false;
  baseline.optimizer.enable_column_pruning = false;
  baseline.optimizer.enable_join_culling = false;
  baseline.optimizer.enable_streaming_agg = false;
  baseline.optimizer.enable_order_removal = false;
  baseline.optimizer.rle_index = OptimizerOptions::RleIndexMode::kOff;

  QueryOptions tuned = QueryOptions::Serial();
  tuned.optimizer.enable_constant_folding = mask & 1;
  tuned.optimizer.enable_select_pushdown = mask & 2;
  tuned.optimizer.enable_column_pruning = mask & 4;
  tuned.optimizer.enable_join_culling = mask & 8;
  tuned.optimizer.enable_streaming_agg = mask & 16;
  tuned.optimizer.rle_index = (mask & 32)
                                  ? OptimizerOptions::RleIndexMode::kForce
                                  : OptimizerOptions::RleIndexMode::kOff;

  const std::vector<std::string> queries = {
      "(aggregate ((region region)) ((total sum units) (n count*))"
      " (select (and (= region \"East\") (> units 10)) (scan sales)))",
      "(topn 3 ((total desc)) (aggregate ((category category))"
      " ((total sum units)) (select (> price 5.0) (join inner ((product "
      "name)) (scan sales) (scan products) referential))))",
      "(aggregate ((region region)) ((m max price))"
      " (join inner ((product name)) (scan sales) (scan products)"
      " referential))",
      "(order ((region desc)) (distinct (project ((region region))"
      " (select (in region \"East\" \"West\" \"North\") (scan sales)))))",
  };
  for (const std::string& q : queries) {
    auto a = engine.Execute(q, baseline);
    auto b = engine.Execute(q, tuned);
    ASSERT_TRUE(a.ok()) << a.status() << " for " << q;
    ASSERT_TRUE(b.ok()) << b.status() << " for " << q;
    EXPECT_TRUE(ResultTable::SameUnordered(a->table, b->table))
        << "mask=" << mask << "\nquery " << q << "\nbaseline:\n"
        << a->table.ToCsv() << "tuned:\n"
        << b->table.ToCsv() << "plan:\n"
        << b->plan_text;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPassCombinations, OptimizerEquivalenceTest,
                         ::testing::Range(0, 64));

}  // namespace
}  // namespace vizq::tde
