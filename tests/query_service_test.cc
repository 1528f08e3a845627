// Batch pipeline tests: opportunity graph, fusion, concurrent execution,
// the full QueryService flow, and the dashboard renderer with its
// iterative selection-elimination behaviour (§3.3–3.4).

#include "src/dashboard/query_service.h"

#include <gtest/gtest.h>

#include "src/dashboard/renderer.h"
#include "src/federation/simulated_source.h"
#include "tests/test_util.h"

namespace vizq::dashboard {
namespace {

using federation::TdeDataSource;
using query::AbstractQuery;
using query::QueryBuilder;

AbstractQuery Q(std::vector<std::string> dims,
                std::vector<std::pair<AggFunc, std::string>> aggs,
                std::vector<std::pair<std::string, std::vector<Value>>>
                    filters = {}) {
  QueryBuilder b("tde", "sales");
  for (auto& d : dims) b.Dim(d);
  for (auto& [f, c] : aggs) b.Agg(f, c);
  for (auto& [c, vs] : filters) b.FilterIn(c, vs);
  return b.Build();
}

TEST(OpportunityGraphTest, PartitionsSourcesAndLocals) {
  // q0 covers q1 (rollup) and q2 (filter on dim); q3 is unrelated.
  std::vector<AbstractQuery> batch = {
      Q({"region", "product"}, {{AggFunc::kSum, "units"}}),
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"region", "product"}, {{AggFunc::kSum, "units"}},
        {{"region", {Value("East")}}}),
      Q({"product"}, {{AggFunc::kMax, "price"}}),
  };
  OpportunityGraph g = BuildOpportunityGraph(batch);
  EXPECT_TRUE(g.remote[0]);
  EXPECT_FALSE(g.remote[1]);
  EXPECT_FALSE(g.remote[2]);
  EXPECT_TRUE(g.remote[3]);
  EXPECT_EQ(g.predecessor[1], 0);
  EXPECT_EQ(g.predecessor[2], 0);
}

TEST(OpportunityGraphTest, EquivalentQueriesKeepOneSource) {
  std::vector<AbstractQuery> batch = {
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"region"}, {{AggFunc::kSum, "units"}}),
  };
  OpportunityGraph g = BuildOpportunityGraph(batch);
  EXPECT_TRUE(g.remote[0]);
  EXPECT_FALSE(g.remote[1]);
  EXPECT_EQ(g.predecessor[1], 0);

  // Covering each other under different keys (dimension order) is
  // equivalence too.
  batch = {
      Q({"region", "product"}, {{AggFunc::kSum, "units"}}),
      Q({"product", "region"}, {{AggFunc::kSum, "units"}}),
  };
  g = BuildOpportunityGraph(batch);
  EXPECT_TRUE(g.remote[0]);
  EXPECT_FALSE(g.remote[1]);
  EXPECT_EQ(g.predecessor[1], 0);
}

TEST(FusionTest, MergesProjectionsOverSameRelation) {
  std::vector<AbstractQuery> batch = {
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"region"}, {{AggFunc::kMax, "price"}}),
      Q({"region"}, {{AggFunc::kSum, "units"}, {AggFunc::kCountStar, ""}}),
      Q({"product"}, {{AggFunc::kSum, "units"}}),  // different relation
  };
  auto groups = FuseQueries(batch);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 3u);
  // Union of measures: sum(units), max(price), count*.
  EXPECT_EQ(groups[0].fused.measures.size(), 3u);
  EXPECT_EQ(groups[1].members.size(), 1u);
}

TEST(FusionTest, DifferentFiltersDoNotFuse) {
  std::vector<AbstractQuery> batch = {
      Q({"region"}, {{AggFunc::kSum, "units"}}, {{"region", {Value("East")}}}),
      Q({"region"}, {{AggFunc::kSum, "units"}}, {{"region", {Value("West")}}}),
  };
  auto groups = FuseQueries(batch);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(FusionTest, MemberWithTopNFusesAndGetsLocalTopN) {
  std::vector<AbstractQuery> batch = {
      Q({"product"}, {{AggFunc::kSum, "units"}}),
      QueryBuilder("tde", "sales")
          .Dim("product")
          .Agg(AggFunc::kSum, "units", "total")
          .OrderBy("total", false)
          .Limit(2)
          .Build(),
  };
  auto groups = FuseQueries(batch);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_FALSE(groups[0].fused.has_limit());
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest()
      : source_(std::make_shared<TdeDataSource>(
            "tde", vizq::testing::MakeTestDatabase(8192))),
        caches_(std::make_shared<CacheStack>()),
        service_(source_, caches_) {
    EXPECT_TRUE(service_.RegisterTableView("sales").ok());
    EXPECT_TRUE(service_.RegisterTableView("products").ok());
  }

  std::shared_ptr<TdeDataSource> source_;
  std::shared_ptr<CacheStack> caches_;
  QueryService service_;
};

TEST_F(QueryServiceTest, BatchResolvesLocalsFromSources) {
  std::vector<AbstractQuery> batch = {
      Q({"region", "product"}, {{AggFunc::kSum, "units"}}),
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"region", "product"}, {{AggFunc::kSum, "units"}},
        {{"region", {Value("East")}}}),
  };
  BatchReport report;
  auto results = service_.ExecuteBatch(batch, BatchOptions(), &report);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(report.remote_queries, 1);
  EXPECT_EQ(report.local_resolved, 2);

  // Compare against truth (no cache, no analysis).
  BatchOptions raw;
  raw.use_intelligent_cache = false;
  raw.use_literal_cache = false;
  raw.analyze_batch = false;
  raw.fuse_queries = false;
  raw.adjust.decompose_avg = false;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto truth = service_.ExecuteQuery(batch[i], raw);
    ASSERT_TRUE(truth.ok());
    EXPECT_TRUE(ResultTable::SameUnordered((*results)[i], *truth))
        << "query " << i << "\ngot:\n"
        << (*results)[i].ToCsv() << "truth:\n"
        << truth->ToCsv();
  }
}

// Two queries of one batch that differ only in dimension order: one can
// be computed from the other, but each keeps its own column order.
TEST_F(QueryServiceTest, ReorderedQueriesInOneBatchKeepTheirColumnOrder) {
  std::vector<AbstractQuery> batch = {
      Q({"region", "product"}, {{AggFunc::kSum, "units"}}),
      Q({"product", "region"}, {{AggFunc::kSum, "units"}}),
  };
  BatchReport report;
  auto results = service_.ExecuteBatch(batch, BatchOptions(), &report);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ(report.remote_queries, 1);
  EXPECT_EQ(report.local_resolved, 1);
  BatchOptions raw;
  raw.use_intelligent_cache = false;
  raw.use_literal_cache = false;
  raw.analyze_batch = false;
  raw.fuse_queries = false;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto truth = service_.ExecuteQuery(batch[i], raw);
    ASSERT_TRUE(truth.ok());
    EXPECT_TRUE(ResultTable::SameUnordered((*results)[i], *truth))
        << "query " << i << "\ngot:\n"
        << (*results)[i].ToCsv() << "truth:\n"
        << truth->ToCsv();
  }
}

TEST_F(QueryServiceTest, SecondBatchIsAllCacheHits) {
  std::vector<AbstractQuery> batch = {
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"product"}, {{AggFunc::kAvg, "price"}}),
  };
  BatchReport first, second;
  ASSERT_TRUE(service_.ExecuteBatch(batch, BatchOptions(), &first).ok());
  ASSERT_TRUE(service_.ExecuteBatch(batch, BatchOptions(), &second).ok());
  EXPECT_EQ(second.remote_queries, 0);
  EXPECT_EQ(second.cache_hits, 2);
}

TEST_F(QueryServiceTest, AvgDecompositionStillAnswersAvg) {
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Dim("region")
                        .Agg(AggFunc::kAvg, "price", "mean")
                        .Build();
  auto result = service_.ExecuteQuery(q);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_columns(), 2);
  EXPECT_EQ(result->columns()[1].name, "mean");

  // The cached (adjusted) entry also answers a rolled-up avg.
  AbstractQuery rolled =
      QueryBuilder("tde", "sales").Agg(AggFunc::kAvg, "price", "mean").Build();
  BatchReport report;
  auto r2 = service_.ExecuteBatch({rolled}, BatchOptions(), &report);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(report.remote_queries, 0);
  EXPECT_EQ(report.queries[0].served_from,
            ServedFrom::kIntelligentCacheDerived);
}

TEST_F(QueryServiceTest, FusionReducesRemoteQueries) {
  std::vector<AbstractQuery> batch = {
      Q({"region"}, {{AggFunc::kSum, "units"}}),
      Q({"region"}, {{AggFunc::kMax, "price"}}),
      Q({"region"}, {{AggFunc::kCountStar, ""}}),
  };
  BatchReport fused_report;
  ASSERT_TRUE(
      service_.ExecuteBatch(batch, BatchOptions(), &fused_report).ok());
  EXPECT_EQ(fused_report.fused_groups, 1);

  // Without fusion (fresh caches to avoid hits).
  caches_->intelligent.Clear();
  caches_->literal.Clear();
  BatchOptions no_fuse;
  no_fuse.fuse_queries = false;
  no_fuse.analyze_batch = false;
  BatchReport unfused_report;
  ASSERT_TRUE(service_.ExecuteBatch(batch, no_fuse, &unfused_report).ok());
  EXPECT_EQ(unfused_report.fused_groups, 3);
}

TEST_F(QueryServiceTest, RefreshPurgesCachesAndConnections) {
  AbstractQuery q = Q({"region"}, {{AggFunc::kSum, "units"}});
  ASSERT_TRUE(service_.ExecuteQuery(q).ok());
  EXPECT_GT(caches_->intelligent.num_entries(), 0);
  service_.RefreshDataSource();
  EXPECT_EQ(caches_->intelligent.num_entries(), 0);
  EXPECT_EQ(service_.pool().size(), 0);
  // Still works afterwards.
  EXPECT_TRUE(service_.ExecuteQuery(q).ok());
}

TEST(LocalTopNTest, BackendWithoutTopNGetsLocalPostProcessing) {
  // A legacy-file-style backend can't ORDER BY / LIMIT; the service
  // fetches untruncated and applies the top-n locally (§3.1: "some
  // operations may need to be locally applied in the post-processing
  // stage").
  auto db = vizq::testing::MakeTestDatabase(4096);
  federation::PerformanceModel model;
  model.connect_ms = 0;
  model.network_rtt_ms = 0;
  model.dispatch_ms = 0;
  auto source = std::make_shared<federation::SimulatedDataSource>(
      "legacy", db, model, query::Capabilities::LegacyFileDriver(),
      query::SqlDialect::Ansi());
  QueryService service(source, nullptr);
  ASSERT_TRUE(service.RegisterTableView("sales").ok());

  query::AbstractQuery q = QueryBuilder("legacy", "sales")
                               .Dim("product")
                               .Agg(AggFunc::kSum, "units", "total")
                               .OrderBy("total", /*ascending=*/false)
                               .Limit(3)
                               .Build();
  BatchOptions raw;
  raw.use_intelligent_cache = false;
  raw.use_literal_cache = false;
  raw.adjust.decompose_avg = false;
  auto result = service.ExecuteQuery(q, raw);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->num_rows(), 3);
  EXPECT_GE(result->at(0, 1).int_value(), result->at(1, 1).int_value());
  EXPECT_GE(result->at(1, 1).int_value(), result->at(2, 1).int_value());
}

// --- dashboard renderer ---

class RendererTest : public ::testing::Test {
 protected:
  RendererTest()
      : source_(std::make_shared<TdeDataSource>(
            "tde", vizq::testing::MakeTestDatabase(8192))),
        caches_(std::make_shared<CacheStack>()),
        service_(source_, caches_),
        dashboard_("sales_dash") {
    EXPECT_TRUE(service_.RegisterTableView("sales").ok());

    Zone by_region;
    by_region.name = "ByRegion";
    by_region.base = Q({"region"}, {{AggFunc::kSum, "units"}});
    EXPECT_TRUE(dashboard_.AddZone(by_region).ok());

    Zone by_product;
    by_product.name = "ByProduct";
    by_product.base = Q({"product"}, {{AggFunc::kSum, "units"}});
    EXPECT_TRUE(dashboard_.AddZone(by_product).ok());

    Zone filter_zone;
    filter_zone.name = "RegionFilter";
    filter_zone.kind = ZoneKind::kQuickFilter;
    filter_zone.filter_column = "region";
    filter_zone.base = QueryBuilder("tde", "sales").Dim("region").Build();
    EXPECT_TRUE(dashboard_.AddZone(filter_zone).ok());

    dashboard_.AddQuickFilter(QuickFilterBinding{"region", {}});
    dashboard_.AddAction(
        FilterAction{"ByRegion", "region", {"ByProduct"}});
  }

  std::shared_ptr<TdeDataSource> source_;
  std::shared_ptr<CacheStack> caches_;
  QueryService service_;
  Dashboard dashboard_;
};

TEST_F(RendererTest, InitialLoadRendersAllZones) {
  InteractionState state;
  DashboardRenderer renderer(&service_);
  auto report = renderer.Render(dashboard_, &state);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations, 1);
  EXPECT_EQ(report->zone_results.size(), 3u);
  EXPECT_EQ(report->zone_results.at("ByRegion").num_rows(), 4);
  EXPECT_EQ(report->zone_results.at("ByProduct").num_rows(), 8);
  EXPECT_EQ(report->zone_results.at("RegionFilter").num_rows(), 4);
}

TEST_F(RendererTest, ActionSelectionFiltersTarget) {
  InteractionState state;
  DashboardRenderer renderer(&service_);
  ASSERT_TRUE(renderer.Render(dashboard_, &state).ok());

  state.Select("ByRegion", "region", {Value("East")});
  auto report = renderer.Refresh(dashboard_, &state, {"ByProduct"});
  ASSERT_TRUE(report.ok()) << report.status();
  // ByProduct now filtered to East; still 8 products but smaller sums.
  EXPECT_EQ(report->zone_results.at("ByProduct").num_rows(), 8);
}

TEST_F(RendererTest, QuickFilterChangeIsServedFromCacheViaRollup) {
  BatchOptions options;
  options.adjust.add_filter_dimensions = true;  // Fig. 1 reuse scenario
  InteractionState state;
  // Fig. 1 initial state: all filter values selected, so "data for other
  // charts got cached with all the filtering values selected" and the
  // filtering column included.
  state.SetQuickFilter("region", {Value("East"), Value("North"),
                                  Value("South"), Value("West")});
  DashboardRenderer renderer(&service_);
  ASSERT_TRUE(renderer.Render(dashboard_, &state, options).ok());

  // Deselect values in the quick filter: the targets' new queries are
  // answerable from cache by post-filtering (§3.2's Fig. 1 discussion:
  // "the intelligent cache will be able to filter out the necessary rows
  // ... as long as the filtering columns are included").
  state.SetQuickFilter("region", {Value("East"), Value("North")});
  auto targets = dashboard_.QuickFilterTargets("region");
  EXPECT_EQ(targets.size(), 2u);
  auto report = renderer.Refresh(dashboard_, &state, targets, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->batches.empty());
  EXPECT_EQ(report->batches[0].remote_queries, 0)
      << report->batches[0].Summary();
}

TEST_F(RendererTest, EliminatedSelectionTriggersSecondIteration) {
  // Select a region, then quick-filter it away: the selection's value
  // disappears from ByRegion's result, must be eliminated, and ByProduct
  // re-queried without the stale filter (the §3.3 HNL-OGG scenario).
  InteractionState state;
  DashboardRenderer renderer(&service_);
  ASSERT_TRUE(renderer.Render(dashboard_, &state).ok());

  state.Select("ByRegion", "region", {Value("East")});
  ASSERT_TRUE(renderer.Refresh(dashboard_, &state, {"ByProduct"}).ok());

  state.SetQuickFilter("region", {Value("West"), Value("South")});
  auto report = renderer.Refresh(
      dashboard_, &state,
      {"ByRegion", "ByProduct"});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->iterations, 2);
  ASSERT_EQ(report->eliminated_selections.size(), 1u);
  EXPECT_EQ(report->eliminated_selections[0], "ByRegion.region: East");
  EXPECT_TRUE(state.selections["ByRegion"].find("region") ==
              state.selections["ByRegion"].end());
}

}  // namespace
}  // namespace vizq::dashboard
