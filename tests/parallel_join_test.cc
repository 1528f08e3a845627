// Regression tests for the parallel blocking operators (DESIGN.md §12):
// the partitioned hash-join build, the partitioned kFinal aggregate merge,
// cancellation during/while-waiting-on a build, and the join probe path on
// selection-vector / run-encoded batches.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>

#include "src/common/scheduler.h"
#include "src/tde/engine.h"
#include "src/tde/exec/join.h"
#include "src/tde/exec/operators.h"
#include "src/tde/exec/scan.h"
#include "src/workload/faa_generator.h"
#include "tests/test_util.h"

namespace vizq::tde {
namespace {

using vizq::testing::MakeProductDim;
using vizq::testing::MakeSalesTable;
using vizq::testing::MakeTestDatabase;
using vizq::testing::TablesEquivalent;

BatchSchema IntSchema(const std::string& name) {
  BatchSchema s;
  s.names = {name};
  s.prototypes = {ColumnVector(DataType::Int64())};
  return s;
}

// Emits one fixed batch per Open().
class OneBatchOp : public Operator {
 public:
  OneBatchOp(Batch batch, BatchSchema schema)
      : batch_(std::move(batch)), schema_(std::move(schema)) {}

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

// --- cancellation: mid-build and while waiting on another builder ---

// Emits `total_batches` batches; cancels `ctx` (shared cancel token) after
// `cancel_after` of them, on the first Open() only.
class CancelDuringScanOp : public Operator {
 public:
  CancelDuringScanOp(BatchSchema schema, int total_batches, int cancel_after,
                     ExecContext ctx)
      : schema_(std::move(schema)),
        total_batches_(total_batches),
        cancel_after_(cancel_after),
        ctx_(std::move(ctx)) {}

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override {
    emitted_ = 0;
    return OkStatus();
  }
  StatusOr<bool> Next(Batch* out) override {
    if (emitted_ >= total_batches_) return false;
    if (emitted_ == cancel_after_ && !cancel_fired_) {
      cancel_fired_ = true;
      ctx_.Cancel();
    }
    *out = schema_.NewBatch();
    auto& col = out->columns[0];
    for (int64_t r = 0; r < 1024; ++r) col.AppendInt(r % 997);
    out->num_rows = 1024;
    ++emitted_;
    return true;
  }
  Status Close() override { return OkStatus(); }

 private:
  BatchSchema schema_;
  int total_batches_;
  int cancel_after_;
  ExecContext ctx_;
  int emitted_ = 0;
  bool cancel_fired_ = false;
};

TEST(ParallelJoinTest, CancelMidBuildAbortsOpenAndAllowsRetry) {
  ExecContext ctx;  // copies share the cancel token
  auto build_op = std::make_unique<CancelDuringScanOp>(
      IntSchema("k"), /*total_batches=*/64, /*cancel_after=*/8, ctx);
  auto build_key = *BindExpr(Col("k"), build_op->schema());
  auto shared = std::make_shared<SharedBuildState>(
      std::move(build_op), std::vector<ExprPtr>{build_key});

  Batch probe = IntSchema("x").NewBatch();
  probe.columns[0].AppendInt(5);
  probe.num_rows = 1;
  {
    auto probe_op =
        std::make_unique<OneBatchOp>(probe, IntSchema("x"));
    auto probe_key = *BindExpr(Col("x"), probe_op->schema());
    HashJoinOperator join(std::move(probe_op), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner,
                          ctx);
    // The build-side scan cancels the query partway through the build;
    // EnsureBuilt must notice and abort Open() itself (before this fix the
    // build ignored the context entirely and Open succeeded).
    Status s = join.Open();
    EXPECT_FALSE(s.ok()) << "cancelled build must fail Open";
    (void)join.Close();
  }

  // A failed build releases the build-once latch: a retry under a fresh
  // context succeeds (the stub only cancels on its first Open) and probes
  // see a complete table.
  {
    auto probe_op =
        std::make_unique<OneBatchOp>(probe, IntSchema("x"));
    auto probe_key = *BindExpr(Col("x"), probe_op->schema());
    HashJoinOperator join(std::move(probe_op), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner);
    auto result = CollectToResultTable(&join);
    ASSERT_TRUE(result.ok()) << result.status();
    // 64 batches x 1024 rows, values r % 997: x=5 appears 64 + 2*...; just
    // require matches exist and count equals the build-side occurrences.
    EXPECT_EQ(result->num_rows(), 64 * 2);  // 5 and 5+997 per batch
  }
}

// Blocks inside Next() until released; flags when the build has entered it.
class GatedScanOp : public Operator {
 public:
  explicit GatedScanOp(BatchSchema schema) : schema_(std::move(schema)) {}

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override {
    done_ = false;
    return OkStatus();
  }
  StatusOr<bool> Next(Batch* out) override {
    if (done_) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    *out = schema_.NewBatch();
    out->columns[0].AppendInt(42);
    out->num_rows = 1;
    done_ = true;
    return true;
  }
  Status Close() override { return OkStatus(); }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  BatchSchema schema_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  bool done_ = false;
};

TEST(ParallelJoinTest, CancelledWaiterReturnsWhileBuildRuns) {
  auto gated = std::make_unique<GatedScanOp>(IntSchema("k"));
  GatedScanOp* gate = gated.get();
  auto build_key = *BindExpr(Col("k"), gated->schema());
  auto shared = std::make_shared<SharedBuildState>(
      std::move(gated), std::vector<ExprPtr>{build_key});

  Status builder_status = OkStatus();
  TaskGroup group(&Scheduler::Global(), TaskClass::kInteractive);
  group.Spawn([&] { builder_status = shared->EnsureBuilt(ExecContext()); },
              "test-builder");
  gate->AwaitEntered();  // the spawned builder is now mid-build

  // A second fraction opens with an already-cancelled context: before this
  // fix it blocked on the build mutex for the whole build; now it polls its
  // own context and leaves while the builder keeps running.
  ExecContext cancelled;
  cancelled.Cancel();
  Status waiter = shared->EnsureBuilt(cancelled);
  EXPECT_FALSE(waiter.ok());

  gate->Release();
  group.Wait();
  EXPECT_TRUE(builder_status.ok()) << builder_status;
  // The completed build is usable by later (uncancelled) fractions.
  Batch probe = IntSchema("x").NewBatch();
  probe.columns[0].AppendInt(42);
  probe.num_rows = 1;
  auto probe_op = std::make_unique<OneBatchOp>(probe, IntSchema("x"));
  auto probe_key = *BindExpr(Col("x"), probe_op->schema());
  HashJoinOperator join(std::move(probe_op), shared,
                        std::vector<ExprPtr>{probe_key}, JoinType::kInner);
  auto result = CollectToResultTable(&join);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 1);  // matches the gated build's lone row
}

// --- probe-side batch shapes: selection vectors and run-encoded keys ---

TEST(ParallelJoinTest, SelectionVectorUnderJoinProbesOnlyLiveRows) {
  auto sales = MakeSalesTable(512);
  auto dim = MakeProductDim();

  auto run_join = [&](bool encoded_filter) {
    auto scan = std::make_unique<TableScanOperator>(
        sales, std::vector<int>{0, 1, 2});  // region, product, units
    auto predicate = *BindExpr(Gt(Col("units"), Lit(int64_t{50})),
                               scan->schema());
    auto filter =
        std::make_unique<FilterOperator>(std::move(scan), predicate);
    static ExecStats stats;
    if (encoded_filter) {
      // A per-row conjunct: the filter passes batches through with a
      // selection vector instead of materializing survivors.
      EncodedConjunct conjunct;
      conjunct.expr = predicate;
      conjunct.kind = EncodedConjunct::Kind::kPerRow;
      filter->EnableEncodedFilter({conjunct}, &stats);
    }
    auto build_scan =
        std::make_unique<TableScanOperator>(dim, std::vector<int>{0, 1});
    auto build_key = *BindExpr(Col("name"), build_scan->schema());
    auto shared = std::make_shared<SharedBuildState>(
        std::move(build_scan), std::vector<ExprPtr>{build_key});
    auto probe_key = *BindExpr(Col("product"), filter->schema());
    HashJoinOperator join(std::move(filter), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner);
    return CollectToResultTable(&join);
  };

  auto materialized = run_join(false);
  auto selected = run_join(true);
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  ASSERT_TRUE(selected.ok()) << selected.status();
  // The filter keeps roughly half the rows; if the join ignored the
  // selection vector it would emit every physical row.
  EXPECT_LT(materialized->num_rows(), 512);
  EXPECT_GT(materialized->num_rows(), 0);
  EXPECT_TRUE(TablesEquivalent(*materialized, *selected));
}

TEST(ParallelJoinTest, RunEncodedProbeKeysAreDecodedBeforeEval) {
  // A run-encoded probe column under a *computed* key expression: the bulk
  // expression path indexes flat payloads, so the join must flatten the
  // referenced columns first.
  Batch encoded = IntSchema("k").NewBatch();
  auto& col = encoded.columns[0];
  col.runs = {{2, 0, 5}, {4, 5, 4}};  // value, start, count
  col.run_encoded = true;
  encoded.num_rows = 9;

  Batch flat = IntSchema("k").NewBatch();
  for (int64_t r = 0; r < 9; ++r) flat.columns[0].AppendInt(r < 5 ? 2 : 4);
  flat.num_rows = 9;

  Batch build = IntSchema("b").NewBatch();
  build.columns[0].AppendInt(2);
  build.columns[0].AppendInt(4);
  build.num_rows = 2;

  auto run_join = [&](const Batch& probe_batch) {
    auto build_op = std::make_unique<OneBatchOp>(build, IntSchema("b"));
    auto build_key = *BindExpr(Col("b"), build_op->schema());
    auto shared = std::make_shared<SharedBuildState>(
        std::move(build_op), std::vector<ExprPtr>{build_key});
    auto probe_op =
        std::make_unique<OneBatchOp>(probe_batch, IntSchema("k"));
    auto probe_key = *BindExpr(Add(Col("k"), Lit(int64_t{0})),
                               probe_op->schema());
    HashJoinOperator join(std::move(probe_op), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner);
    return CollectToResultTable(&join);
  };

  auto from_flat = run_join(flat);
  auto from_encoded = run_join(encoded);
  ASSERT_TRUE(from_flat.ok()) << from_flat.status();
  ASSERT_TRUE(from_encoded.ok()) << from_encoded.status();
  EXPECT_EQ(from_flat->num_rows(), 9);
  EXPECT_TRUE(TablesEquivalent(*from_flat, *from_encoded));
}

// --- the partitioned build itself: correctness + build-once ---

TEST(ParallelJoinTest, PartitionedBuildMatchesSerialProbeResults) {
  auto sales = MakeSalesTable(4096);
  auto dim = MakeProductDim();

  auto run_join = [&](JoinBuildOptions options, ExecStats* stats) {
    options.stats = stats;
    auto build_scan =
        std::make_unique<TableScanOperator>(dim, std::vector<int>{0, 1, 2});
    auto build_key = *BindExpr(Col("name"), build_scan->schema());
    auto shared = std::make_shared<SharedBuildState>(
        std::move(build_scan), std::vector<ExprPtr>{build_key}, options);
    auto probe_scan = std::make_unique<TableScanOperator>(
        sales, std::vector<int>{1, 2});
    auto probe_key = *BindExpr(Col("product"), probe_scan->schema());
    HashJoinOperator join(std::move(probe_scan), shared,
                          std::vector<ExprPtr>{probe_key}, JoinType::kInner);
    return CollectToResultTable(&join);
  };

  JoinBuildOptions serial;  // defaults: build_dop = 1
  JoinBuildOptions parallel;
  parallel.build_dop = 4;
  parallel.min_parallel_rows = 1;  // force the partitioned path at 8 rows
  ExecStats stats;

  auto rs = run_join(serial, nullptr);
  auto rp = run_join(parallel, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_TRUE(rp.ok()) << rp.status();
  EXPECT_EQ(rs->num_rows(), 4096);
  EXPECT_TRUE(TablesEquivalent(*rs, *rp));
  EXPECT_TRUE(stats.used_parallel_build);
  EXPECT_GE(stats.join_build_morsels, 1);
}

TEST(ParallelJoinTest, ConcurrentOpensBuildExactlyOnce) {
  // All fractions race EnsureBuilt on one shared state with a parallel
  // build configured; the build must happen once and every probe must see
  // the complete sealed table.
  auto sales = MakeSalesTable(4096);
  auto dim = MakeProductDim();
  JoinBuildOptions options;
  options.build_dop = 4;
  options.min_parallel_rows = 1;
  auto build_scan =
      std::make_unique<TableScanOperator>(dim, std::vector<int>{0, 1});
  auto build_key = *BindExpr(Col("name"), build_scan->schema());
  auto shared = std::make_shared<SharedBuildState>(
      std::move(build_scan), std::vector<ExprPtr>{build_key}, options);

  constexpr int kFractions = 4;
  std::vector<int64_t> rows(kFractions, 0);
  std::vector<Status> status(kFractions, OkStatus());
  const int64_t per = 4096 / kFractions;
  TaskGroup group(&Scheduler::Global(), TaskClass::kInteractive);
  for (int f = 0; f < kFractions; ++f) {
    group.Spawn([&, f] {
      auto probe_scan = std::make_unique<TableScanOperator>(
          sales, std::vector<int>{1, 2}, std::vector<RowRange>{{f * per, per}});
      auto probe_key = *BindExpr(Col("product"), probe_scan->schema());
      HashJoinOperator join(std::move(probe_scan), shared,
                            std::vector<ExprPtr>{probe_key},
                            JoinType::kInner);
      auto result = CollectToResultTable(&join);
      if (!result.ok()) {
        status[f] = result.status();
        return;
      }
      rows[f] = result->num_rows();
    });
  }
  group.Wait();
  int64_t total = 0;
  for (int f = 0; f < kFractions; ++f) {
    ASSERT_TRUE(status[f].ok()) << status[f];
    total += rows[f];
  }
  EXPECT_EQ(total, 4096);  // every sale matched exactly once
}

// --- engine-level: parallel build / parallel merge vs the serial plan ---

TEST(ParallelJoinTest, EngineParallelBuildMatchesSerialResults) {
  auto db = MakeTestDatabase(20000);
  TdeEngine engine(db);
  const std::vector<std::string> queries = {
      "(aggregate ((category category)) ((n count*) (total sum units)) "
      "(join inner ((product name)) (scan sales) (scan products)))",
      "(aggregate ((category category) (region region)) ((mean avg price)) "
      "(join inner ((product name)) (scan sales) (scan products)))",
  };
  for (const std::string& q : queries) {
    QueryOptions parallel;
    parallel.parallel.max_dop = 4;
    parallel.parallel.min_rows_per_fraction = 1024;
    parallel.parallel.parallel_build_min_rows = 1;  // 8-row dim: force it
    auto rs = engine.Execute(q, QueryOptions::Serial());
    auto rp = engine.Execute(q, parallel);
    ASSERT_TRUE(rs.ok()) << rs.status() << " for " << q;
    ASSERT_TRUE(rp.ok()) << rp.status() << " for " << q;
    EXPECT_TRUE(TablesEquivalent(rs->table, rp->table))
        << "query " << q << "\nserial:\n"
        << rs->table.ToCsv() << "\nparallel:\n"
        << rp->table.ToCsv() << "\nplan:\n"
        << rp->plan_text;
    EXPECT_TRUE(rp->stats->used_parallel_build) << rp->plan_text;
    EXPECT_GE(rp->stats->join_build_morsels, 1);
    EXPECT_FALSE(rs->stats->used_parallel_build);
  }
}

TEST(ParallelJoinTest, EngineParallelMergeMatchesSerialResults) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  const std::vector<std::string> queries = {
      "(aggregate ((product product)) ((n count*) (total sum units) (mean "
      "avg price) (mn min units) (mx max units)) (scan sales))",
      "(aggregate ((region region) (product product)) ((total sum units) "
      "(mean avg price)) (scan sales))",
  };
  for (const std::string& q : queries) {
    QueryOptions parallel;
    parallel.parallel.max_dop = 4;
    parallel.parallel.min_rows_per_fraction = 1024;
    parallel.parallel.enable_range_partition = false;  // force local/global
    parallel.parallel.parallel_merge_min_rows = 1;
    auto rs = engine.Execute(q, QueryOptions::Serial());
    auto rp = engine.Execute(q, parallel);
    ASSERT_TRUE(rs.ok()) << rs.status() << " for " << q;
    ASSERT_TRUE(rp.ok()) << rp.status() << " for " << q;
    EXPECT_TRUE(TablesEquivalent(rs->table, rp->table))
        << "query " << q << "\nserial:\n"
        << rs->table.ToCsv() << "\nparallel:\n"
        << rp->table.ToCsv() << "\nplan:\n"
        << rp->plan_text;
    EXPECT_TRUE(rp->stats->used_local_global_agg) << rp->plan_text;
    EXPECT_TRUE(rp->stats->used_parallel_merge) << rp->plan_text;
    EXPECT_GE(rp->stats->merge_partitions, 4);
    EXPECT_FALSE(rs->stats->used_parallel_merge);
  }
}

// The Airlines zone's plan aggregates below the carriers join: a dense
// partial per morsel fraction, the join probing partial rows, and a
// partitioned final merge. It must equal the serial plan, and both the
// plan without encoded execution.
TEST(ParallelJoinTest, AggregateBelowJoinUnderMorselsMatchesSerial) {
  workload::FaaOptions faa;
  faa.num_flights = 30000;
  auto db = workload::GenerateFaaDatabase(faa);
  ASSERT_TRUE(db.ok()) << db.status();
  TdeEngine engine(*db);
  const std::string q =
      "(aggregate ((airline airline_name) (hour dep_hour)) ((n count*) "
      "(delay avg arr_delay) (worst max arr_delay)) (join inner ((carrier "
      "code)) (select (> dep_hour 8) (scan flights)) (scan carriers) "
      "referential))";
  QueryOptions parallel;
  parallel.parallel.max_dop = 4;
  parallel.parallel.min_rows_per_fraction = 1024;
  parallel.parallel.enable_range_partition = false;
  parallel.parallel.enable_morsel = true;
  parallel.parallel.morsel_rows = 1000;
  parallel.parallel.parallel_merge_min_rows = 1;
  QueryOptions row_path = QueryOptions::Serial();
  row_path.optimizer.enable_encoded_exec = false;
  auto rs = engine.Execute(q, QueryOptions::Serial());
  auto rp = engine.Execute(q, parallel);
  auto rr = engine.Execute(q, row_path);
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_TRUE(rp.ok()) << rp.status();
  ASSERT_TRUE(rr.ok()) << rr.status();
  EXPECT_TRUE(TablesEquivalent(rs->table, rp->table))
      << "serial:\n" << rs->table.ToCsv() << "\nparallel:\n"
      << rp->table.ToCsv() << "\nplan:\n" << rp->plan_text;
  EXPECT_TRUE(TablesEquivalent(rr->table, rs->table)) << rs->plan_text;
  EXPECT_TRUE(rs->stats->used_agg_below_join) << rs->plan_text;
  EXPECT_TRUE(rp->stats->used_agg_below_join) << rp->plan_text;
  EXPECT_TRUE(rp->stats->used_morsel_scan) << rp->plan_text;
  EXPECT_TRUE(rp->stats->used_parallel_merge) << rp->plan_text;
  EXPECT_FALSE(rr->stats->used_agg_below_join) << rr->plan_text;
}

TEST(ParallelJoinTest, AblationKnobsKeepBlockingOperatorsSerial) {
  auto db = MakeTestDatabase(40000);
  TdeEngine engine(db);
  const std::string q =
      "(aggregate ((category category)) ((total sum units)) (join inner "
      "((product name)) (scan sales) (scan products)))";
  QueryOptions options;
  options.parallel.max_dop = 4;
  options.parallel.min_rows_per_fraction = 1024;
  options.parallel.enable_range_partition = false;
  options.parallel.parallel_build_min_rows = 1;
  options.parallel.parallel_merge_min_rows = 1;
  options.parallel.enable_parallel_build = false;
  options.parallel.enable_parallel_merge = false;
  auto r = engine.Execute(q, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->stats->used_parallel_build) << r->plan_text;
  EXPECT_FALSE(r->stats->used_parallel_merge) << r->plan_text;
  auto rs = engine.Execute(q, QueryOptions::Serial());
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(TablesEquivalent(rs->table, r->table));
}

}  // namespace
}  // namespace vizq::tde
