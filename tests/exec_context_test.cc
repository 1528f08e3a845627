// ExecContext end-to-end: deadline/cancellation propagation through the
// query stack (scan operators, connection pool, simulated backends, the
// batch pipeline), trace span coverage, and the metrics each layer
// forwards to the global registry.

#include "src/common/exec_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/dashboard/query_service.h"
#include "src/federation/connection_pool.h"
#include "src/federation/simulated_source.h"
#include "src/obs/metrics.h"
#include "src/tde/exec/scan.h"
#include "src/workload/faa_generator.h"
#include "src/workload/flights_dashboards.h"
#include "tests/test_util.h"

namespace vizq {
namespace {

using query::AbstractQuery;
using query::QueryBuilder;

// The global registry's current value of counter `name` (installing the
// registry as the ExecContext sink on first use).
int64_t GlobalCount(const std::string& name) {
  return obs::GlobalMetrics().GetCounter(name).value();
}

// --- primitives ---

TEST(ExecContextTest, DeadlineExpiryAndRemaining) {
  ExecContext ctx = ExecContext::WithDeadlineMs(60000);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.deadline_expired());
  EXPECT_GT(ctx.remaining_ms(), 1000.0);
  EXPECT_TRUE(ctx.CheckContinue("test").ok());

  ExecContext expired = ExecContext::WithDeadlineMs(0);
  EXPECT_TRUE(expired.deadline_expired());
  Status s = expired.CheckContinue("step");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("step"), std::string::npos);
}

TEST(ExecContextTest, CancellationIsSharedAndSticky) {
  ExecContext ctx;
  ExecContext copy = ctx;  // copies share the token
  EXPECT_FALSE(ctx.cancelled());
  copy.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_EQ(ctx.CheckContinue("work").code(), StatusCode::kAborted);
}

TEST(ExecContextTest, BackgroundHasNoTraceOrMetrics) {
  const ExecContext& bg = ExecContext::Background();
  EXPECT_FALSE(bg.tracing_enabled());
  EXPECT_EQ(bg.StartSpan("x"), nullptr);
  bg.Count("nope");  // no-op, must not crash
  EXPECT_TRUE(bg.CheckContinue("bg").ok());
}

TEST(ExecContextTest, SpanTreeRendersTextAndJson) {
  ExecContext ctx;
  {
    ScopedSpan outer(ctx.StartSpan("outer"));
    ExecContext inner_ctx = ctx.WithSpan(outer.get());
    ScopedSpan inner(inner_ctx.StartSpan("inner"));
  }
  std::vector<std::string> names = ctx.trace()->SpanNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "request");
  EXPECT_EQ(names[1], "outer");
  EXPECT_EQ(names[2], "inner");

  std::string text = ctx.trace()->ToText();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("  inner"), std::string::npos);  // indented child
  std::string json = ctx.trace()->ToJson();
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

// --- TDE operators ---

TEST(ExecContextTdeTest, ExpiredDeadlineStopsScan) {
  auto db = vizq::testing::MakeTestDatabase(8192);
  tde::TdeEngine engine(db);
  ExecContext ctx = ExecContext::WithDeadlineMs(0);
  auto result =
      engine.Execute("(aggregate ((region region)) ((total sum units)) "
                     "(scan sales))",
                     tde::QueryOptions(), ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTdeTest, CancellationStopsScanMidStream) {
  auto db = vizq::testing::MakeTestDatabase(16384);
  auto table = *db->GetTable("sales");
  // The whole table, and a ranged scan (RLE range skipping) over
  // non-adjacent ranges.
  const std::vector<std::vector<tde::RowRange>> inputs = {
      {{0, table->num_rows()}}, {{0, 4096}, {8192, 4096}}};
  for (const std::vector<tde::RowRange>& ranges : inputs) {
    ExecContext ctx;
    tde::TableScanOperator scan(table, {0, 2}, ranges, nullptr, ctx);
    ASSERT_TRUE(scan.Open().ok());
    tde::Batch batch;
    auto first = scan.Next(&batch);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(*first);
    ctx.Cancel();
    // The poll fires within the next few batches.
    Status err = OkStatus();
    for (int i = 0; i < 8; ++i) {
      auto next = scan.Next(&batch);
      if (!next.ok()) {
        err = next.status();
        break;
      }
      ASSERT_TRUE(*next) << "scan drained before the cancellation poll fired";
    }
    EXPECT_EQ(err.code(), StatusCode::kAborted) << ranges.size() << " ranges";
    EXPECT_TRUE(scan.Close().ok());
  }
}

TEST(ExecContextTdeTest, EngineRecordsOperatorSpansAndMetrics) {
  auto db = vizq::testing::MakeTestDatabase(4096);
  tde::TdeEngine engine(db);
  ExecContext ctx;
  const int64_t rows_before = GlobalCount("tde.rows_scanned");
  auto result =
      engine.Execute("(aggregate ((region region)) ((total sum units)) "
                     "(scan sales))",
                     tde::QueryOptions(), ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<std::string> names = ctx.trace()->SpanNames();
  auto has = [&](const std::string& prefix) {
    return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
      return n.rfind(prefix, 0) == 0;
    });
  };
  EXPECT_TRUE(has("tde:compile"));
  EXPECT_TRUE(has("tde:run"));
  EXPECT_TRUE(has("op:scan(sales)"));
  // The table is sorted by the group key, so the optimizer may pick either
  // aggregate flavor.
  EXPECT_TRUE(has("op:aggregate") || has("op:streaming-aggregate"));
  EXPECT_GT(GlobalCount("tde.rows_scanned"), rows_before);
}

// --- connection pool ---

TEST(ExecContextPoolTest, AcquireHonorsDeadlineAndCountsTimeouts) {
  auto db = vizq::testing::MakeTestDatabase(512);
  auto source = std::make_shared<federation::TdeDataSource>("tde", db);
  federation::ConnectionPool pool(source, /*max_size=*/1);
  auto held = pool.Acquire();
  ASSERT_TRUE(held.ok());

  ExecContext ctx = ExecContext::WithDeadlineMs(10);
  const int64_t timeouts_before = GlobalCount("pool.timeouts");
  auto blocked = pool.Acquire(ctx);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pool.stats().timeouts, 1);
  EXPECT_GE(GlobalCount("pool.timeouts"), timeouts_before + 1);

  held->Release();
  auto after = pool.Acquire(ExecContext::WithDeadlineMs(1000));
  EXPECT_TRUE(after.ok());
}

TEST(ExecContextPoolTest, MaxWaitBoundsAcquireWithoutDeadline) {
  auto db = vizq::testing::MakeTestDatabase(512);
  auto source = std::make_shared<federation::TdeDataSource>("tde", db);
  federation::PoolOptions options;
  options.max_size = 1;
  options.max_wait_ms = 20;
  federation::ConnectionPool pool(source, options);
  auto held = pool.Acquire();
  ASSERT_TRUE(held.ok());
  auto blocked = pool.Acquire();  // Background ctx: only max_wait applies
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().timeouts, 1);
}

TEST(ExecContextPoolTest, CancellationAbortsBlockedAcquire) {
  auto db = vizq::testing::MakeTestDatabase(512);
  auto source = std::make_shared<federation::TdeDataSource>("tde", db);
  federation::ConnectionPool pool(source, /*max_size=*/1);
  auto held = pool.Acquire();
  ASSERT_TRUE(held.ok());

  ExecContext ctx;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ctx.Cancel();
  });
  auto blocked = pool.Acquire(ctx);
  canceller.join();
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kAborted);
}

// --- full pipeline over the FAA workload ---

class ExecContextPipelineTest : public ::testing::Test {
 protected:
  ExecContextPipelineTest() {
    workload::FaaOptions options;
    options.num_flights = 20000;
    db_ = *workload::GenerateFaaDatabase(options);
  }

  std::vector<AbstractQuery> FaaBatch() const {
    return {
        QueryBuilder("faa", workload::kFlightsView)
            .Dim("airline_name")
            .CountAll("flights")
            .Agg(AggFunc::kAvg, "arr_delay", "avg_delay")
            .Build(),
        QueryBuilder("faa", workload::kFlightsView)
            .Dim("origin_state")
            .CountAll("flights")
            .Build(),
        QueryBuilder("faa", workload::kFlightsView)
            .Dim("airline_name")
            .CountAll("flights")
            .Build(),
    };
  }

  std::shared_ptr<tde::Database> db_;
};

TEST_F(ExecContextPipelineTest, TinyDeadlineFailsBatchAndFreesPool) {
  auto source = federation::SimulatedDataSource::SingleThreadedSql("faa", db_);
  dashboard::QueryService service(source,
                                  std::make_shared<dashboard::CacheStack>());
  ASSERT_TRUE(service.RegisterView(workload::FlightsStarView()).ok());

  ExecContext ctx = ExecContext::WithDeadlineMs(1);
  auto results = service.ExecuteBatch(ctx, FaaBatch());
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kDeadlineExceeded);

  // Every pool slot must be back: all of them acquirable without blocking.
  EXPECT_EQ(service.pool().idle(), service.pool().size());
  auto conn = service.pool().Acquire(ExecContext::WithDeadlineMs(5000));
  EXPECT_TRUE(conn.ok()) << conn.status();
}

TEST_F(ExecContextPipelineTest, CancellationDuringConcurrentBatchFreesPool) {
  auto source = federation::SimulatedDataSource::SingleThreadedSql("faa", db_);
  dashboard::QueryService service(source, nullptr);
  ASSERT_TRUE(service.RegisterView(workload::FlightsStarView()).ok());

  dashboard::BatchOptions options;
  options.use_intelligent_cache = false;
  options.use_literal_cache = false;
  options.analyze_batch = false;  // keep every query remote & concurrent
  options.fuse_queries = false;

  ExecContext ctx;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctx.Cancel();
  });
  auto results = service.ExecuteBatch(ctx, FaaBatch(), options);
  canceller.join();
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kAborted);
  EXPECT_EQ(service.pool().idle(), service.pool().size());
}

TEST_F(ExecContextPipelineTest, TraceCoversPipelineStagesAndOperators) {
  auto source = std::make_shared<federation::TdeDataSource>("faa", db_);
  auto caches = std::make_shared<dashboard::CacheStack>();
  dashboard::QueryService service(source, caches);
  ASSERT_TRUE(service.RegisterView(workload::FlightsStarView()).ok());

  ExecContext remote_ctx;
  auto results = service.ExecuteBatch(remote_ctx, FaaBatch());
  ASSERT_TRUE(results.ok()) << results.status();
  std::vector<std::string> names = remote_ctx.trace()->SpanNames();
  auto has = [&names](const std::string& prefix) {
    return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
      return n.rfind(prefix, 0) == 0;
    });
  };
  EXPECT_TRUE(has("batch"));
  EXPECT_TRUE(has("cache-lookup"));
  EXPECT_TRUE(has("opportunity-analysis"));
  EXPECT_TRUE(has("fusion"));
  EXPECT_TRUE(has("compile"));
  EXPECT_TRUE(has("submit"));
  EXPECT_TRUE(has("op:"));  // at least one TDE operator span

  // The identical batch again: pure intelligent-cache hits — no compile,
  // no submit, no operators.
  ExecContext hit_ctx;
  const int64_t hits_before = GlobalCount("cache.intelligent.exact_hit");
  auto again = service.ExecuteBatch(hit_ctx, FaaBatch());
  ASSERT_TRUE(again.ok());
  std::vector<std::string> hit_names = hit_ctx.trace()->SpanNames();
  auto hit_has = [&hit_names](const std::string& prefix) {
    return std::any_of(hit_names.begin(), hit_names.end(),
                       [&](const std::string& n) {
                         return n.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(hit_has("cache-lookup"));
  EXPECT_FALSE(hit_has("submit"));
  EXPECT_FALSE(hit_has("op:"));
  // At least one query comes straight out of the intelligent cache; the
  // rest may be covered by batch analysis instead of individual lookups.
  EXPECT_GE(GlobalCount("cache.intelligent.exact_hit"), hits_before + 1);
}

TEST_F(ExecContextPipelineTest, MetricsMatchQueryReportTallies) {
  auto source = std::make_shared<federation::TdeDataSource>("faa", db_);
  auto caches = std::make_shared<dashboard::CacheStack>();
  dashboard::QueryService service(source, caches);
  ASSERT_TRUE(service.RegisterView(workload::FlightsStarView()).ok());

  ExecContext ctx;
  dashboard::BatchReport report;
  std::map<std::string, int64_t> before =
      obs::GlobalMetrics().TakeSnapshot().counters;
  auto results = service.ExecuteBatch(ctx, FaaBatch(), {}, &report);
  ASSERT_TRUE(results.ok()) << results.status();
  std::map<std::string, int64_t> after =
      obs::GlobalMetrics().TakeSnapshot().counters;
  auto delta = [&](const std::string& name) {
    return after[name] - before[name];
  };

  std::map<std::string, int64_t> expected;
  for (const dashboard::QueryReport& qr : report.queries) {
    ++expected[std::string("service.served.") +
               dashboard::ServedFromToString(qr.served_from)];
  }
  for (const auto& [name, count] : expected) {
    EXPECT_EQ(delta(name), count) << name;
  }
  EXPECT_EQ(delta("service.batches"), 1);
  EXPECT_EQ(delta("service.queries"),
            static_cast<int64_t>(report.queries.size()));
}

}  // namespace
}  // namespace vizq
