// Federation tests: connection pooling (reuse, caps, temp-table affinity,
// age-wise eviction), the simulated backends' admission control and
// concurrency behaviour.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/dashboard/query_service.h"
#include "src/federation/connection_pool.h"
#include "src/federation/simulated_source.h"
#include "tests/test_util.h"

namespace vizq::federation {
namespace {

using query::QueryBuilder;

query::CompiledQuery CompileCount(const DataSource& source) {
  query::ViewDefinition view;
  view.name = "sales";
  view.fact_table = "sales";
  query::QueryCompiler compiler(view, source.capabilities(), source.dialect(),
                                &source.catalog());
  auto q = QueryBuilder("src", "sales").Dim("region").CountAll("n").Build();
  auto cq = compiler.Compile(q);
  EXPECT_TRUE(cq.ok());
  return *cq;
}

TEST(ConnectionPoolTest, ReusesIdleConnections) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(256));
  ConnectionPool pool(source, 4);
  {
    auto c1 = pool.Acquire();
    ASSERT_TRUE(c1.ok());
  }  // released
  {
    auto c2 = pool.Acquire();
    ASSERT_TRUE(c2.ok());
  }
  EXPECT_EQ(pool.stats().opened, 1);
  EXPECT_EQ(pool.stats().reused, 1);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ConnectionPoolTest, BlocksAtCapUntilRelease) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(256));
  ConnectionPool pool(source, 1);
  auto held = pool.Acquire();
  ASSERT_TRUE(held.ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto c = pool.Acquire();
    acquired = c.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acquired.load());
  held->Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(pool.stats().waits, 1);
}

TEST(ConnectionPoolTest, TempTableAffinity) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(256));
  ConnectionPool pool(source, 4);

  // Open two connections; create a temp table on the second.
  Connection* with_temp = nullptr;
  {
    auto c1 = pool.Acquire();
    auto c2 = pool.Acquire();
    ASSERT_TRUE(c1.ok() && c2.ok());
    query::TempTableSpec spec;
    spec.name = "#t";
    spec.column = "v";
    spec.source_column = "units";
    spec.type = DataType::Int64();
    spec.values = {Value(int64_t{1})};
    ASSERT_TRUE((*c2)->CreateTempTable(spec).ok());
    with_temp = c2->get();
  }
  // Preferring the temp table returns exactly that connection.
  auto c = pool.AcquirePreferring({"#t"});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->get(), with_temp);
  EXPECT_GE(pool.stats().temp_affinity, 1);
}

TEST(ConnectionPoolTest, AgeWiseEviction) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(256));
  ConnectionPool pool(source, 4);
  {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
  }
  EXPECT_EQ(pool.size(), 2);
  // Burn pool operations so the idle connections age.
  for (int i = 0; i < 10; ++i) {
    auto c = pool.Acquire();
  }
  pool.EvictIdle(/*max_idle_acquisitions=*/5);
  EXPECT_GE(pool.stats().evicted, 1);
}

TEST(ConnectionPoolTest, EvictedSlotsAreReopened) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(256));
  ConnectionPool pool(source, 2);
  // Create a mid-list hole: hold slot 1 while evicting slot 0.
  auto first = pool.Acquire();
  ASSERT_TRUE(first.ok());
  auto second = pool.Acquire();
  ASSERT_TRUE(second.ok());
  first->Release();
  pool.EvictIdle(/*max_idle_acquisitions=*/0);  // evict the idle slot 0
  ASSERT_GE(pool.stats().evicted, 1);
  // The hole must be reusable: with slot 1 still held, a new acquisition
  // must open a replacement rather than deadlock at the cap.
  auto replacement = pool.Acquire();
  ASSERT_TRUE(replacement.ok());
  EXPECT_NE(replacement->get(), second->get());
}

TEST(SimulatedSourceTest, ConnectionCapEnforced) {
  auto source = SimulatedDataSource::ThrottledCloud(
      "cloud", vizq::testing::MakeTestDatabase(256));
  std::vector<std::unique_ptr<Connection>> held;
  for (int i = 0; i < source->capabilities().max_connections; ++i) {
    auto c = source->Connect();
    ASSERT_TRUE(c.ok());
    held.push_back(*std::move(c));
  }
  auto over = source->Connect();
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  held[0]->Close();
  EXPECT_TRUE(source->Connect().ok());
}

TEST(SimulatedSourceTest, ExecutesCorrectResults) {
  auto db = vizq::testing::MakeTestDatabase(1024);
  auto source = SimulatedDataSource::SingleThreadedSql("sql", db);
  auto conn = source->Connect();
  ASSERT_TRUE(conn.ok());
  query::CompiledQuery cq = CompileCount(*source);
  ExecutionInfo info;
  auto result = (*conn)->Execute(cq, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_rows(), 4);
  int64_t total = 0;
  for (int64_t r = 0; r < result->num_rows(); ++r) {
    total += result->at(r, 1).int_value();
  }
  EXPECT_EQ(total, 1024);
  EXPECT_GT(info.total_ms, 0);
}

TEST(SimulatedSourceTest, AdmissionThrottleQueuesQueries) {
  auto db = vizq::testing::MakeTestDatabase(8192);
  auto source = SimulatedDataSource::ThrottledCloud("cloud", db);
  ASSERT_EQ(source->capabilities().max_concurrent_queries, 2);
  query::CompiledQuery cq = CompileCount(*source);

  // 4 concurrent queries against an admission limit of 2: at least one
  // must report queue time. One latch releases all 4 together, so they
  // reach admission while the first two hold their slots (about 3.7 ms of
  // modeled work each).
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 4; ++i) {
    auto c = source->Connect();
    ASSERT_TRUE(c.ok());
    conns.push_back(*std::move(c));
  }
  std::vector<ExecutionInfo> infos(4);
  {
    ThreadPool workers(4);
    std::latch start(4);
    for (int i = 0; i < 4; ++i) {
      workers.Submit([&, i] {
        start.arrive_and_wait();
        auto r = conns[i]->Execute(cq, &infos[i]);
        EXPECT_TRUE(r.ok());
      });
    }
    workers.Wait();
  }
  double max_queue = 0;
  for (const ExecutionInfo& info : infos) {
    max_queue = std::max(max_queue, info.queue_ms);
  }
  EXPECT_GT(max_queue, 0.5);
}

TEST(SimulatedSourceTest, ClosedConnectionRefusesWork) {
  auto db = vizq::testing::MakeTestDatabase(256);
  auto source = SimulatedDataSource::SingleThreadedSql("sql", db);
  auto conn = source->Connect();
  ASSERT_TRUE(conn.ok());
  (*conn)->Close();
  query::CompiledQuery cq = CompileCount(*source);
  EXPECT_FALSE((*conn)->Execute(cq).ok());
  EXPECT_EQ(source->open_connections(), 0);
}

// A latency model whose waits all round to zero, for correctness-only tests.
PerformanceModel InstantModel() {
  PerformanceModel m;
  m.connect_ms = 0;
  m.dispatch_ms = 0;
  m.rows_per_ms = 1e9;
  m.network_rtt_ms = 0;
  m.rows_per_ms_network = 1e9;
  m.temp_table_row_ms = 0;
  return m;
}

// Minimized from fuzz_differential (fed_legacy lane): a backend without
// top-n support compiles ORDER BY/LIMIT variants to the same SQL text, so
// the literal cache must hold the untruncated backend rows — with local
// top-n applied after lookup — or one variant replays the other's rows.
TEST(FederatedExecutionTest, LiteralCacheServesFullRowsUnderLocalTopn) {
  auto source = std::make_shared<SimulatedDataSource>(
      "legacy", vizq::testing::MakeTestDatabase(1024), InstantModel(),
      query::Capabilities::LegacyFileDriver(), query::SqlDialect::MysqlLike());
  auto caches = std::make_shared<dashboard::CacheStack>();
  dashboard::QueryService service(source, caches);
  ASSERT_TRUE(service.RegisterTableView("sales").ok());

  dashboard::BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.fuse_queries = false;
  opts.analyze_batch = false;

  auto limited = QueryBuilder("legacy", "sales")
                     .Dim("region")
                     .CountAll("n")
                     .OrderBy("region", true)
                     .Limit(2)
                     .Build();
  auto unlimited =
      QueryBuilder("legacy", "sales").Dim("region").CountAll("n").Build();

  auto r1 = service.ExecuteQuery(limited, opts);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->num_rows(), 2);

  // The unlimited variant shares the SQL text; it must see all groups, not
  // the truncated two rows the first call returned.
  auto r2 = service.ExecuteQuery(unlimited, opts);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->num_rows(), 4);

  // And the limited variant replayed from cache is still truncated.
  auto r3 = service.ExecuteQuery(limited, opts);
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_TABLES_EQUIVALENT(*r1, *r3);
}

// Minimized from fuzz_differential (metamorphic IN-split): sessions reuse
// temp tables by name and the pool routes queries toward connections that
// already hold them, so two different IN enumerations on the same column
// must never compile to the same temp-table name.
TEST(TempTableTest, ExternalizedInListsAreContentAddressed) {
  auto source = std::make_shared<TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(1024));
  query::ViewDefinition view;
  view.name = "sales";
  view.fact_table = "sales";
  query::QueryCompiler compiler(view, source->capabilities(),
                                source->dialect(), &source->catalog());
  query::CompilerOptions copts;
  copts.externalize_threshold = 2;

  auto q1 = QueryBuilder("tde", "sales")
                .Dim("region")
                .CountAll("n")
                .FilterIn("product",
                          {Value("apple"), Value("banana"), Value("cherry")})
                .Build();
  auto q2 = QueryBuilder("tde", "sales")
                .Dim("region")
                .CountAll("n")
                .FilterIn("product", {Value("apple"), Value("banana"),
                                      Value("cherry"), Value("date"),
                                      Value("elder")})
                .Build();
  auto cq1 = compiler.Compile(q1, copts, nullptr);
  auto cq2 = compiler.Compile(q2, copts, nullptr);
  ASSERT_TRUE(cq1.ok() && cq2.ok());
  ASSERT_EQ(cq1->temp_tables.size(), 1u);
  ASSERT_EQ(cq2->temp_tables.size(), 1u);
  EXPECT_NE(cq1->temp_tables[0].name, cq2->temp_tables[0].name);
  // Identical enumerations still share a name: that is the reuse win.
  auto cq1b = compiler.Compile(q1, copts, nullptr);
  ASSERT_TRUE(cq1b.ok());
  EXPECT_EQ(cq1->temp_tables[0].name, cq1b->temp_tables[0].name);

  // Same session, both queries: each must join against its own values.
  auto conn = source->Connect();
  ASSERT_TRUE(conn.ok());
  auto r1 = (*conn)->Execute(*cq1, nullptr);
  auto r2 = (*conn)->Execute(*cq2, nullptr);
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto fresh = source->Connect();
  ASSERT_TRUE(fresh.ok());
  auto truth2 = (*fresh)->Execute(*cq2, nullptr);
  ASSERT_TRUE(truth2.ok());
  EXPECT_TABLES_EQUIVALENT(*truth2, *r2);
}

}  // namespace
}  // namespace vizq::federation
