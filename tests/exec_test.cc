// Execution-layer tests: expression evaluation (null semantics, collation,
// token fast paths), individual Volcano operators, the Exchange operator
// (threaded and serial-measurement modes), and the shared join build.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/str_util.h"
#include "src/tde/exec/aggregate.h"
#include "src/tde/exec/exchange.h"
#include "src/tde/exec/expression.h"
#include "src/tde/exec/join.h"
#include "src/tde/exec/scan.h"
#include "src/tde/exec/sort.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

// One-column int batch.
Batch IntBatch(const std::vector<std::optional<int64_t>>& values) {
  Batch b;
  ColumnVector cv(DataType::Int64());
  for (const auto& v : values) {
    if (v.has_value()) {
      cv.AppendInt(*v);
    } else {
      cv.AppendNull();
    }
  }
  b.columns.push_back(std::move(cv));
  b.num_rows = static_cast<int64_t>(values.size());
  return b;
}

BatchSchema IntSchema(const std::string& name = "x") {
  BatchSchema s;
  s.names = {name};
  s.prototypes.emplace_back(DataType::Int64());
  return s;
}

TEST(ExpressionTest, ArithmeticAndTypePromotion) {
  Batch b = IntBatch({{10}, {20}});
  auto e = *BindExpr(Add(Col("x"), Lit(int64_t{5})), IntSchema());
  auto v = *EvalExpr(*e, b);
  EXPECT_EQ(v.ints[0], 15);

  // Division always yields float.
  auto d = *BindExpr(Div(Col("x"), Lit(int64_t{4})), IntSchema());
  auto dv = *EvalExpr(*d, b);
  EXPECT_EQ(dv.type.kind, TypeKind::kFloat64);
  EXPECT_DOUBLE_EQ(dv.doubles[0], 2.5);

  // Division by zero is NULL.
  auto z = *BindExpr(Div(Col("x"), Lit(int64_t{0})), IntSchema());
  auto zv = *EvalExpr(*z, b);
  EXPECT_TRUE(zv.IsNull(0));
}

TEST(ExpressionTest, NullPropagationAndKleeneLogic) {
  Batch b = IntBatch({{1}, std::nullopt, {3}});
  // x + 1 is null where x is null.
  auto add = *BindExpr(Add(Col("x"), Lit(int64_t{1})), IntSchema());
  auto av = *EvalExpr(*add, b);
  EXPECT_FALSE(av.IsNull(0));
  EXPECT_TRUE(av.IsNull(1));

  // (x > 0) OR TRUE is true even for null x; AND FALSE is false.
  auto or_true =
      *BindExpr(Or(Gt(Col("x"), Lit(int64_t{0})), Lit(true)), IntSchema());
  auto ov = *EvalExpr(*or_true, b);
  EXPECT_EQ(ov.ints[1], 1);
  EXPECT_FALSE(ov.IsNull(1));

  auto and_false =
      *BindExpr(And(Gt(Col("x"), Lit(int64_t{0})), Lit(false)), IntSchema());
  auto fv = *EvalExpr(*and_false, b);
  EXPECT_EQ(fv.ints[1], 0);
  EXPECT_FALSE(fv.IsNull(1));

  // (x > 0) AND TRUE stays null for null x.
  auto and_true =
      *BindExpr(And(Gt(Col("x"), Lit(int64_t{0})), Lit(true)), IntSchema());
  auto tv = *EvalExpr(*and_true, b);
  EXPECT_TRUE(tv.IsNull(1));

  // Comparisons with null are null, and EvalPredicate drops them.
  auto gt = *BindExpr(Gt(Col("x"), Lit(int64_t{0})), IntSchema());
  auto selected = *EvalPredicate(*gt, b);
  EXPECT_EQ(selected.size(), 2u);

  // IS NULL is never null.
  auto isnull = *BindExpr(IsNull(Col("x")), IntSchema());
  auto nv = *EvalExpr(*isnull, b);
  EXPECT_EQ(nv.ints[0], 0);
  EXPECT_EQ(nv.ints[1], 1);
}

TEST(ExpressionTest, CollatedStringComparison) {
  BatchSchema schema;
  schema.names = {"s"};
  schema.prototypes.emplace_back(
      DataType::String(Collation::kCaseInsensitive));
  Batch b;
  ColumnVector cv(DataType::String(Collation::kCaseInsensitive));
  cv.AppendString("Apple");
  cv.AppendString("BANANA");
  b.columns.push_back(std::move(cv));
  b.num_rows = 2;

  auto eq = *BindExpr(Eq(Col("s"), Lit("apple")), schema);
  auto v = *EvalExpr(*eq, b);
  EXPECT_EQ(v.ints[0], 1);  // case-insensitive match
  EXPECT_EQ(v.ints[1], 0);
}

TEST(ExpressionTest, ScalarFunctions) {
  BatchSchema schema;
  schema.names = {"s", "d"};
  schema.prototypes.emplace_back(DataType::String());
  schema.prototypes.emplace_back(DataType::Date());
  Batch b;
  ColumnVector s(DataType::String());
  s.AppendString("Hello");
  ColumnVector d(DataType::Date());
  d.AppendInt(*vizq::ParseDateDays("2014-06-01"));
  b.columns = {std::move(s), std::move(d)};
  b.num_rows = 1;

  auto upper = *BindExpr(Func(ScalarFunc::kUpper, {Col("s")}), schema);
  EXPECT_EQ((*EvalExpr(*upper, b)).GetValue(0).string_value(), "HELLO");
  auto len = *BindExpr(Func(ScalarFunc::kStrLen, {Col("s")}), schema);
  EXPECT_EQ((*EvalExpr(*len, b)).ints[0], 5);
  auto sub = *BindExpr(
      Func(ScalarFunc::kSubstr, {Col("s"), Lit(int64_t{2}), Lit(int64_t{3})}),
      schema);
  EXPECT_EQ((*EvalExpr(*sub, b)).GetValue(0).string_value(), "ell");
  auto year = *BindExpr(Func(ScalarFunc::kYear, {Col("d")}), schema);
  EXPECT_EQ((*EvalExpr(*year, b)).ints[0], 2014);
  auto month = *BindExpr(Func(ScalarFunc::kMonth, {Col("d")}), schema);
  EXPECT_EQ((*EvalExpr(*month, b)).ints[0], 6);
  // 2014-06-01 was a Sunday -> weekday 6 (Monday = 0).
  auto wd = *BindExpr(Func(ScalarFunc::kWeekday, {Col("d")}), schema);
  EXPECT_EQ((*EvalExpr(*wd, b)).ints[0], 6);
  auto iff = *BindExpr(
      Func(ScalarFunc::kIf,
           {Gt(Func(ScalarFunc::kStrLen, {Col("s")}), Lit(int64_t{3})),
            Lit(int64_t{1}), Lit(int64_t{0})}),
      schema);
  EXPECT_EQ((*EvalExpr(*iff, b)).ints[0], 1);
}

TEST(ExpressionTest, StructuralEqualityAndHash) {
  auto a = Gt(Col("x"), Lit(int64_t{5}));
  auto b = Gt(Col("x"), Lit(int64_t{5}));
  auto c = Gt(Col("x"), Lit(int64_t{6}));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_EQ(a->Hash(), b->Hash());
}

TEST(ExchangeTest, MergesAllInputsThreaded) {
  auto table = vizq::testing::MakeSalesTable(4000);
  std::vector<int64_t> offsets = SplitRows(table->num_rows(), 4);
  std::vector<OperatorPtr> inputs;
  for (int f = 0; f < 4; ++f) {
    inputs.push_back(std::make_unique<TableScanOperator>(
        table, std::vector<int>{2},
        std::vector<RowRange>{{offsets[f], offsets[f + 1] - offsets[f]}}));
  }
  ExchangeOperator exchange(std::move(inputs));
  int64_t rows = 0;
  ASSERT_TRUE(exchange.Open().ok());
  Batch batch;
  while (true) {
    auto more = exchange.Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += batch.num_rows;
  }
  ASSERT_TRUE(exchange.Close().ok());
  EXPECT_EQ(rows, 4000);
}

// Emits `total` one-row batches, so producers outpace any slow consumer
// and block on the Exchange's bounded queue.
class ManyBatchesOp : public Operator {
 public:
  explicit ManyBatchesOp(int64_t total)
      : total_(total), schema_(IntSchema()) {}
  const BatchSchema& schema() const override { return schema_; }
  Status Open() override {
    emitted_ = 0;
    return OkStatus();
  }
  StatusOr<bool> Next(Batch* out) override {
    if (emitted_ >= total_) return false;
    *out = IntBatch({{emitted_}});
    ++emitted_;
    return true;
  }
  Status Close() override { return OkStatus(); }

 private:
  int64_t total_;
  int64_t emitted_ = 0;
  BatchSchema schema_;
};

// Regression (satellite 1): cancelling mid-stream while producers are
// blocked on the full queue must surface a typed error promptly — the old
// thread-based producers ignored cancellation while blocked, and a slow
// consumer could hang the query (or worse, see a truncated-OK result).
TEST(ExchangeTest, CancelMidStreamWithSlowConsumer) {
  // Fresh context: copies share cancel state, so cancelling a copy of
  // ExecContext::Background() would poison the whole process.
  ExecContext ctx;
  std::vector<OperatorPtr> inputs;
  for (int f = 0; f < 3; ++f) {
    inputs.push_back(std::make_unique<ManyBatchesOp>(100000));
  }
  ExchangeOperator exchange(std::move(inputs), ctx);
  ASSERT_TRUE(exchange.Open().ok());

  // Read a couple of batches so producers are running, then let them fill
  // the bounded queue and block.
  Batch batch;
  for (int i = 0; i < 2; ++i) {
    auto more = exchange.Next(&batch);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto cancelled_at = std::chrono::steady_clock::now();
  ctx.Cancel();

  // The consumer must see the cancellation as a typed error, not an
  // endless stream or a clean end-of-stream.
  Status seen = OkStatus();
  while (true) {
    auto more = exchange.Next(&batch);
    if (!more.ok()) {
      seen = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "cancelled exchange ended with truncated OK";
  }
  EXPECT_EQ(seen.code(), StatusCode::kAborted) << seen;
  double waited_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - cancelled_at)
                         .count();
  EXPECT_LT(waited_ms, 2000.0) << "cancellation took too long to propagate";
  // Close must join the (cancelled) producers promptly; whether its
  // status carries the producer-recorded error or the consumer-side stop
  // won the race is timing-dependent, so only completion is asserted.
  (void)exchange.Close();
}

// Regression: when every producer wrapper is shed (here: scheduler shut
// down), TaskGroup runs them inline on the consumer thread during Open().
// They must run unbounded there — a bounded producer would fill max_queue_
// and then spin forever, since the consumer cannot drain its own queue
// while it is inside Open().
TEST(ExchangeTest, ShedProducersRunUnboundedOnConsumerThread) {
  Scheduler sched(SchedulerOptions{.num_threads = 1});
  sched.Shutdown();
  std::vector<OperatorPtr> inputs;
  for (int f = 0; f < 2; ++f) {
    // Well past max_queue_ (8) one-row batches per input.
    inputs.push_back(std::make_unique<ManyBatchesOp>(64));
  }
  ExchangeOperator exchange(std::move(inputs), ExecContext::Background(),
                            &sched);
  ASSERT_TRUE(exchange.Open().ok());
  int64_t rows = 0;
  Batch batch;
  while (true) {
    auto more = exchange.Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += batch.num_rows;
  }
  ASSERT_TRUE(exchange.Close().ok());
  EXPECT_EQ(rows, 128);
}

// Regression: a morsel-mode Exchange must be re-openable. The shared
// MorselQueue cursor is rewound by Open(), so a second run re-scans the
// table instead of silently returning zero rows from a drained queue.
TEST(ExchangeTest, MorselModeReopenRescans) {
  auto table = vizq::testing::MakeSalesTable(4000);
  auto queue = std::make_shared<MorselQueue>(table->num_rows(), 512);
  std::vector<OperatorPtr> inputs;
  for (int f = 0; f < 3; ++f) {
    auto scan =
        std::make_unique<TableScanOperator>(table, std::vector<int>{2});
    scan->SetMorselQueue(queue);
    inputs.push_back(std::move(scan));
  }
  ExchangeOperator exchange(std::move(inputs));
  exchange.AddMorselQueue(queue);
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(exchange.Open().ok());
    int64_t rows = 0;
    Batch batch;
    while (true) {
      auto more = exchange.Next(&batch);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      rows += batch.num_rows;
    }
    ASSERT_TRUE(exchange.Close().ok());
    EXPECT_EQ(rows, 4000) << "run " << run;
  }
}

TEST(SharedBuildTest, BuildHappensOnceAcrossProbes) {
  auto dim = vizq::testing::MakeProductDim();
  auto build_scan = std::make_unique<TableScanOperator>(
      dim, std::vector<int>{0, 1});
  BatchSchema dim_schema = build_scan->schema();
  auto key = *BindExpr(Col("name"), dim_schema);
  auto shared = std::make_shared<SharedBuildState>(
      std::move(build_scan), std::vector<ExprPtr>{key});

  auto fact = vizq::testing::MakeSalesTable(512);
  std::vector<int64_t> offsets = SplitRows(fact->num_rows(), 2);
  int64_t total = 0;
  for (int f = 0; f < 2; ++f) {
    auto probe = std::make_unique<TableScanOperator>(
        fact, std::vector<int>{1, 2},
        std::vector<RowRange>{{offsets[f], offsets[f + 1] - offsets[f]}});
    auto probe_key = *BindExpr(Col("product"), probe->schema());
    HashJoinOperator join(std::move(probe), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner);
    auto result = CollectToResultTable(&join);
    ASSERT_TRUE(result.ok()) << result.status();
    total += result->num_rows();
    // Joined output has left + right columns.
    EXPECT_EQ(result->num_columns(), 4);
  }
  EXPECT_EQ(total, 512);  // every sale matches exactly one product
}

TEST(JoinTest, LeftOuterKeepsUnmatched) {
  // Probe values 1..4 against build {2, 4}.
  Batch probe_data = IntBatch({{1}, {2}, {3}, {4}});
  // A scan stub over the probe batch.
  class OneBatchOp : public Operator {
   public:
    OneBatchOp(Batch b, BatchSchema s) : batch_(std::move(b)), schema_(s) {}
    const BatchSchema& schema() const override { return schema_; }
    Status Open() override {
      done_ = false;
      return OkStatus();
    }
    StatusOr<bool> Next(Batch* out) override {
      if (done_) return false;
      *out = batch_;
      done_ = true;
      return true;
    }
    Status Close() override { return OkStatus(); }

   private:
    Batch batch_;
    BatchSchema schema_;
    bool done_ = false;
  };

  auto build_op = std::make_unique<OneBatchOp>(IntBatch({{2}, {4}}),
                                               IntSchema("k"));
  auto build_key = *BindExpr(Col("k"), build_op->schema());
  auto shared = std::make_shared<SharedBuildState>(
      std::move(build_op), std::vector<ExprPtr>{build_key});
  auto probe_op =
      std::make_unique<OneBatchOp>(std::move(probe_data), IntSchema("x"));
  auto probe_key = *BindExpr(Col("x"), probe_op->schema());
  HashJoinOperator join(std::move(probe_op), shared,
                        std::vector<ExprPtr>{probe_key},
                        JoinType::kLeftOuter);
  auto result = *CollectToResultTable(&join);
  ASSERT_EQ(result.num_rows(), 4);
  // Rows 1 and 3 have null right side.
  ResultTable sorted = result;
  sorted.SortRowsByAllColumns();
  EXPECT_TRUE(sorted.at(0, 1).is_null());   // x=1 unmatched
  EXPECT_FALSE(sorted.at(1, 1).is_null());  // x=2 matched
}

TEST(SortTest, TopNAgreesWithFullSort) {
  auto table = vizq::testing::MakeSalesTable(2000);
  auto make_scan = [&] {
    return std::make_unique<TableScanOperator>(table, std::vector<int>{2, 3});
  };
  auto key_expr = *BindExpr(Col("units"), make_scan()->schema());
  std::vector<SortKey> keys = {SortKey{key_expr, false}};

  SortOperator sort(make_scan(), keys);
  auto sorted = *CollectToResultTable(&sort);
  TopNOperator topn(make_scan(), keys, 25);
  auto top = *CollectToResultTable(&topn);
  ASSERT_EQ(top.num_rows(), 25);
  for (int64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(top.at(i, 0).int_value(), sorted.at(i, 0).int_value());
  }
}

TEST(RleIndexExecTest, MatchingRunsRespectPredicate) {
  ColumnBuilder key_builder(DataType::Int64());
  ColumnBuilder val_builder(DataType::Int64());
  for (int64_t i = 0; i < 900; ++i) {
    key_builder.AppendInt(i / 300);  // 3 runs of 300
    val_builder.AppendInt(i);
  }
  TableBuilder table_builder("t", {{"k", DataType::Int64()},
                                   {"v", DataType::Int64()}});
  table_builder.SetEncodingChoice(0, EncodingChoice::kForceRle);
  table_builder.SetEncodingChoice(1, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < 900; ++i) {
    (void)table_builder.AddRow({Value(i / 300), Value(i)});
  }
  auto table = *table_builder.Finish();
  ASSERT_EQ(table->column(1)->encoding(), Encoding::kDelta);

  BatchSchema run_schema;
  run_schema.names = {"k"};
  run_schema.prototypes.emplace_back(DataType::Int64());
  auto pred = *BindExpr(Eq(Col("k"), Lit(int64_t{1})), run_schema);
  auto ranges = ComputeMatchingRuns(*table, 0, pred);
  ASSERT_TRUE(ranges.ok()) << ranges.status();
  ASSERT_EQ(ranges->size(), 1u);
  EXPECT_EQ((*ranges)[0].start, 300);
  EXPECT_EQ((*ranges)[0].count, 300);

  TableScanOperator scan(table, {0, 1}, *ranges);
  auto result = *CollectToResultTable(&scan);
  EXPECT_EQ(result.num_rows(), 300);
  EXPECT_EQ(result.at(0, 1).int_value(), 300);

  // Non-adjacent ranges over the delta column: the scan's resume cursor
  // skips to the second range instead of continuing the first's sum, and
  // both ranges fill one batch.
  auto outer = ComputeMatchingRuns(
      *table, 0, *BindExpr(Ne(Col("k"), Lit(int64_t{1})), run_schema));
  ASSERT_TRUE(outer.ok()) << outer.status();
  ASSERT_EQ(outer->size(), 2u);
  TableScanOperator outer_scan(table, {1}, *outer);
  ASSERT_TRUE(outer_scan.Open().ok());
  std::vector<int64_t> batch_rows;
  std::vector<int64_t> values;
  Batch batch;
  while (true) {
    auto more = outer_scan.Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    batch_rows.push_back(batch.num_rows);
    const std::vector<int64_t>& ints = batch.columns[0].ints;
    values.insert(values.end(), ints.begin(), ints.end());
  }
  EXPECT_TRUE(outer_scan.Close().ok());
  EXPECT_EQ(batch_rows, (std::vector<int64_t>{600}));
  ASSERT_EQ(values.size(), 600u);
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(values[i], i);
    EXPECT_EQ(values[300 + i], 600 + i);
  }

  // An empty range list scans no rows.
  TableScanOperator empty(table, {0, 1}, std::vector<RowRange>{});
  EXPECT_EQ(CollectToResultTable(&empty)->num_rows(), 0);
}

// A ranged scan fills each batch from consecutive ranges: one batch spans
// several ranges, and a batch boundary falls inside a range. Every
// encoding decodes at its piece's offset in the batch, and under encoded
// emission each piece's runs are rebased to that offset.
TEST(RleIndexExecTest, BatchesSpanRanges) {
  const int64_t n = 4000;
  TableBuilder builder("t", {{"s", DataType::String()},
                             {"r", DataType::Int64()},
                             {"d", DataType::Float64()},
                             {"x", DataType::Int64()}});
  builder.SetEncodingChoice(0, EncodingChoice::kForceDictionary);
  builder.SetEncodingChoice(1, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(2, EncodingChoice::kForcePlain);
  builder.SetEncodingChoice(3, EncodingChoice::kForceDelta);
  for (int64_t i = 0; i < n; ++i) {
    // Runs of 70 rows; every fifth run from row 350 on is null, so the
    // first batch's first null lies in its second range.
    Value r = (i / 70) % 5 == 0 && i >= 350 ? Value::Null()
                                            : Value((i / 70) % 3);
    ASSERT_TRUE(builder
                    .AddRow({Value("s" + std::to_string(i % 7)), r,
                             Value(static_cast<double>(i) * 0.5),
                             Value(i * 3 + i / 10)})
                    .ok());
  }
  auto table = *builder.Finish();
  ASSERT_EQ(table->column(0)->encoding(), Encoding::kDictionary);
  ASSERT_EQ(table->column(1)->encoding(), Encoding::kRle);
  ASSERT_GT(table->column(1)->null_count(), 0);
  ASSERT_EQ(table->column(2)->encoding(), Encoding::kPlain);
  ASSERT_EQ(table->column(3)->encoding(), Encoding::kDelta);

  const std::vector<int> cols = {0, 1, 2, 3};
  TableScanOperator full_scan(table, cols);
  auto full = *CollectToResultTable(&full_scan);
  ASSERT_EQ(full.num_rows(), n);
  const std::vector<RowRange> ranges = {{0, 300}, {600, 900}, {2000, 1500}};
  std::vector<int64_t> rows;  // the full scan's rows the ranges select
  for (const RowRange& r : ranges) {
    for (int64_t i = 0; i < r.count; ++i) rows.push_back(r.start + i);
  }

  for (bool encoded : {false, true}) {
    SCOPED_TRACE(encoded ? "encoded emission" : "flat emission");
    TableScanOperator scan(table, cols, ranges);
    scan.SetEmitEncoded(encoded);
    ASSERT_TRUE(scan.Open().ok());
    std::vector<int64_t> batch_rows;
    size_t next = 0;  // index into `rows`
    Batch batch;
    while (true) {
      auto more = scan.Next(&batch);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
      batch_rows.push_back(batch.num_rows);
      const ColumnVector& runs = batch.columns[1];
      EXPECT_EQ(runs.is_run_encoded(), encoded);
      if (encoded) {
        // Contiguous, non-empty runs covering [0, num_rows).
        int64_t end = 0;
        for (const RleRun& run : runs.runs) {
          EXPECT_EQ(run.start, end);
          EXPECT_GT(run.count, 0);
          end = run.start + run.count;
        }
        EXPECT_EQ(end, batch.num_rows);
      }
      for (int64_t j = 0; j < batch.num_rows; ++j, ++next) {
        ASSERT_LT(next, rows.size());
        for (size_t c = 0; c < cols.size(); ++c) {
          Value want = full.at(rows[next], static_cast<int>(c));
          Value got = batch.columns[c].GetValue(j);
          ASSERT_TRUE(got == want)
              << "row " << rows[next] << " col " << c << ": "
              << got.ToString() << " vs " << want.ToString();
        }
      }
    }
    EXPECT_TRUE(scan.Close().ok());
    EXPECT_EQ(next, rows.size());
    EXPECT_EQ(batch_rows, (std::vector<int64_t>{1024, 1024, 652}));
  }
}

TEST(RleIndexExecTest, SplitRangesBalancesLoad) {
  std::vector<RowRange> ranges = {{0, 1000}, {2000, 10},   {3000, 990},
                                  {5000, 500}, {7000, 500}};
  auto groups = SplitRanges(ranges, 3);
  ASSERT_EQ(groups.size(), 3u);
  int64_t total = 0;
  int64_t biggest = 0;
  for (const auto& g : groups) {
    int64_t load = 0;
    for (const RowRange& r : g) load += r.count;
    total += load;
    biggest = std::max(biggest, load);
  }
  EXPECT_EQ(total, 3000);
  EXPECT_LE(biggest, 1100);  // greedy balance keeps the max near 1000
}

TEST(AggregateTest, PartialFinalComposition) {
  auto table = vizq::testing::MakeSalesTable(1024);
  auto scan =
      std::make_unique<TableScanOperator>(table, std::vector<int>{0, 2});
  BatchSchema scan_schema = scan->schema();
  std::vector<GroupExpr> groups = {
      GroupExpr{"region", *BindExpr(Col("region"), scan_schema)}};
  std::vector<AggSpec> specs = {
      AggSpec{AggFunc::kAvg, *BindExpr(Col("units"), scan_schema), "mean"},
      AggSpec{AggFunc::kCountStar, nullptr, "n"}};

  auto partial = std::make_unique<HashAggregateOperator>(
      std::move(scan), groups, specs, AggPhase::kPartial);
  // Final over the partial: group expr is column 0 of the partial output,
  // args are positional.
  BatchSchema partial_schema = partial->schema();
  ASSERT_EQ(partial_schema.num_columns(), 4);  // region, mean$sum, mean$cnt, n
  std::vector<GroupExpr> final_groups = {
      GroupExpr{"region", ColIdx(0, partial_schema.prototypes[0].type)}};
  std::vector<AggSpec> final_specs = {
      AggSpec{AggFunc::kAvg, ColIdx(1, DataType::Float64()), "mean"},
      AggSpec{AggFunc::kCountStar, ColIdx(3, DataType::Int64()), "n"}};
  HashAggregateOperator final_agg(std::move(partial), final_groups,
                                  final_specs, AggPhase::kFinal);
  auto composed = *CollectToResultTable(&final_agg);

  // Ground truth: complete aggregation.
  auto scan2 =
      std::make_unique<TableScanOperator>(table, std::vector<int>{0, 2});
  HashAggregateOperator complete(std::move(scan2), groups, specs,
                                 AggPhase::kComplete);
  auto truth = *CollectToResultTable(&complete);
  EXPECT_TRUE(ResultTable::SameUnordered(composed, truth))
      << composed.ToCsv() << "\nvs\n" << truth.ToCsv();
}

TEST(AggregateTest, StreamingMatchesHashOnSortedInput) {
  auto table = vizq::testing::MakeSalesTable(2048);  // sorted by region
  auto make_scan = [&] {
    return std::make_unique<TableScanOperator>(table,
                                               std::vector<int>{0, 2});
  };
  BatchSchema schema = make_scan()->schema();
  std::vector<GroupExpr> groups = {
      GroupExpr{"region", *BindExpr(Col("region"), schema)}};
  std::vector<AggSpec> specs = {
      AggSpec{AggFunc::kSum, *BindExpr(Col("units"), schema), "total"},
      AggSpec{AggFunc::kMin, *BindExpr(Col("units"), schema), "lo"}};

  StreamingAggregateOperator streaming(make_scan(), groups, specs);
  auto s = *CollectToResultTable(&streaming);
  HashAggregateOperator hash(make_scan(), groups, specs, AggPhase::kComplete);
  auto h = *CollectToResultTable(&hash);
  EXPECT_TRUE(ResultTable::SameUnordered(s, h));
}

}  // namespace
}  // namespace vizq::tde
