// Tests of the intelligent cache's view-matching and post-processing, the
// literal cache, eviction, persistence, and the distributed tier.

#include <gtest/gtest.h>

#include "src/cache/distributed.h"
#include "src/cache/intelligent_cache.h"
#include "src/cache/literal_cache.h"
#include "src/cache/persistence.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "tests/test_util.h"

namespace vizq::cache {
namespace {

using dashboard::BatchOptions;
using dashboard::CacheStack;
using dashboard::QueryService;
using query::AbstractQuery;
using query::QueryBuilder;

// Ground truth executor: runs a query with no caching whatsoever.
class CacheTestEnv {
 public:
  CacheTestEnv()
      : source_(std::make_shared<federation::TdeDataSource>(
            "tde", vizq::testing::MakeTestDatabase(8192))),
        truth_service_(source_, nullptr) {
    (void)truth_service_.RegisterTableView("sales");
  }

  ResultTable Truth(const AbstractQuery& q) {
    BatchOptions opts;
    opts.use_intelligent_cache = false;
    opts.use_literal_cache = false;
    opts.fuse_queries = false;
    opts.analyze_batch = false;
    opts.adjust.decompose_avg = false;
    auto result = truth_service_.ExecuteQuery(q, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultTable();
  }

  std::shared_ptr<federation::DataSource> source_;
  QueryService truth_service_;
};

AbstractQuery BaseQuery() {
  return QueryBuilder("tde", "sales")
      .Dim("region")
      .Dim("product")
      .Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kCount, "units", "n")
      .Agg(AggFunc::kMin, "units", "lo")
      .Agg(AggFunc::kMax, "units", "hi")
      .Build();
}

TEST(IntelligentCacheTest, ExactHit) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  ResultTable truth = env.Truth(q);
  cache.Put(q, truth, 10.0);
  auto hit = cache.Lookup(q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, truth));
  EXPECT_EQ(cache.stats().exact_hits, 1);
}

TEST(IntelligentCacheTest, RollupMatchesDirectExecution) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Coarser granularity: roll product out.
  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Agg(AggFunc::kCount, "units", "n")
                             .Agg(AggFunc::kMin, "units", "lo")
                             .Agg(AggFunc::kMax, "units", "hi")
                             .Build();
  auto hit = cache.Lookup(rolled);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(rolled)))
      << hit->ToCsv() << "\nvs\n" << env.Truth(rolled).ToCsv();
  EXPECT_EQ(cache.stats().derived_hits, 1);
}

TEST(IntelligentCacheTest, ResidualFilterOnDimension) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery filtered = QueryBuilder("tde", "sales")
                               .Dim("region")
                               .Dim("product")
                               .Agg(AggFunc::kSum, "units", "total")
                               .Agg(AggFunc::kCount, "units", "n")
                               .Agg(AggFunc::kMin, "units", "lo")
                               .Agg(AggFunc::kMax, "units", "hi")
                               .FilterIn("region", {Value("East"), Value("West")})
                               .Build();
  auto hit = cache.Lookup(filtered);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(filtered)));
}

TEST(IntelligentCacheTest, RollupPlusFilterPlusTopN) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("product")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("region", {Value("South")})
                              .OrderBy("total", /*ascending=*/false)
                              .Limit(3)
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_rows(), 3);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs\n" << env.Truth(request).ToCsv();
}

TEST(IntelligentCacheTest, AvgDerivedFromSumAndCount) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "price", "")
                             .Agg(AggFunc::kCount, "price", "")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kAvg, "price", "mean")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TABLES_EQUIVALENT(env.Truth(request), *hit);
}

TEST(IntelligentCacheTest, CountDistinctFromDimension) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = BaseQuery();  // has product as a dimension
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kCountDistinct, "product", "nd")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)));
}

TEST(IntelligentCacheTest, MismatchesMiss) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .FilterIn("region", {Value("East")})
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Weaker filter than stored: stored lacks the rows.
  AbstractQuery weaker = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_FALSE(cache.Lookup(weaker).has_value());

  // Finer granularity than stored.
  AbstractQuery finer = QueryBuilder("tde", "sales")
                            .Dim("region")
                            .Dim("product")
                            .Agg(AggFunc::kSum, "units", "total")
                            .FilterIn("region", {Value("East")})
                            .Build();
  EXPECT_FALSE(cache.Lookup(finer).has_value());

  // Measure not derivable (needs raw data).
  AbstractQuery needs_raw = QueryBuilder("tde", "sales")
                                .Dim("region")
                                .Agg(AggFunc::kCountDistinct, "units", "nd")
                                .FilterIn("region", {Value("East")})
                                .Build();
  EXPECT_FALSE(cache.Lookup(needs_raw).has_value());

  // Different view entirely.
  AbstractQuery other_view = QueryBuilder("tde", "products")
                                 .Dim("category")
                                 .CountAll("n")
                                 .Build();
  EXPECT_FALSE(cache.Lookup(other_view).has_value());
}

TEST(IntelligentCacheTest, StoredTopNOnlyServesExactRequests) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .OrderBy("total", false)
                             .Limit(3)
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  EXPECT_TRUE(cache.Lookup(stored).has_value());

  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_FALSE(cache.Lookup(rolled).has_value());
}

TEST(IntelligentCacheTest, ResidualFilterOnNonDimensionMisses) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  // Filter on product, which is not in the stored granularity.
  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("product", {Value("apple")})
                              .Build();
  EXPECT_FALSE(cache.Lookup(request).has_value());
}

// Minimized from fuzz_differential (crowded_bucket lane): requests that
// differ only in the order of their dimensions or measures are answered
// by the same entry, but each must get its own column order back.
TEST(IntelligentCacheTest, ReorderedRequestGetsItsOwnColumnOrder) {
  CacheTestEnv env;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("product")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .CountAll("n")
                             .Build();
  AbstractQuery reordered = QueryBuilder("tde", "sales")
                                .Dim("region")
                                .Dim("product")
                                .CountAll("n")
                                .Agg(AggFunc::kSum, "units", "total")
                                .Build();
  IntelligentCache cache;
  cache.Put(stored, env.Truth(stored), 10.0);
  auto hit = cache.LookupHit(reordered);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit->table, env.Truth(reordered)))
      << hit->table->ToCsv();
  hit = cache.LookupHit(stored);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit->table, env.Truth(stored)));
}

// One bucket holding a near-miss for every step of the proof: the scan
// must reject each (by signature or by proof) under the reason the proof
// gives, count the nearest one, and still find a match stored last.
TEST(IntelligentCacheTest, CrowdedBucketCountsNearestReasonAndFindsLastMatch) {
  CacheTestEnv env;
  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Dim("region")
                              .Agg(AggFunc::kSum, "units", "total")
                              .FilterIn("product", {Value("apple")})
                              .Build();
  std::vector<std::pair<AbstractQuery, MissReason>> near_misses = {
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .OrderBy("total", false)
           .Limit(2)
           .Build(),
       MissReason::kStoredTopN},
      {QueryBuilder("tde", "sales")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .Build(),
       MissReason::kDimensionNotStored},
      // Filters a column the request does not.
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .FilterIn("region", {Value("East")})
           .Build(),
       MissReason::kFiltersNotImplied},
      // Filters the request's column, to a set the request leaves.
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kSum, "units", "total")
           .FilterIn("product", {Value("fig")})
           .Build(),
       MissReason::kFiltersNotImplied},
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Agg(AggFunc::kSum, "units", "total")
           .Build(),
       MissReason::kResidualNotGrouped},
      {QueryBuilder("tde", "sales")
           .Dim("region")
           .Dim("product")
           .Agg(AggFunc::kCount, "units", "n")
           .Build(),
       MissReason::kMeasureNotDerivable},
  };
  AbstractQuery match = QueryBuilder("tde", "sales")
                            .Dim("region")
                            .Dim("product")
                            .Agg(AggFunc::kSum, "units", "total")
                            .Build();

  IntelligentCache crowded;
  IntelligentCache with_match;
  for (const auto& [stored, expected] : near_misses) {
    MissReason reason = MissReason::kNone;
    EXPECT_FALSE(MatchQueries(stored, request, &reason).has_value());
    EXPECT_EQ(reason, expected) << stored.ToKeyString();
    // Alone in its bucket, the entry's miss is counted under its reason.
    IntelligentCache alone;
    alone.Put(stored, env.Truth(stored), 10.0);
    EXPECT_FALSE(alone.LookupHit(request).has_value());
    EXPECT_EQ(alone.stats().miss_reasons[static_cast<int>(expected)], 1)
        << stored.ToKeyString();
    crowded.Put(stored, env.Truth(stored), 10.0);
    with_match.Put(stored, env.Truth(stored), 10.0);
  }
  with_match.Put(match, env.Truth(match), 10.0);

  EXPECT_FALSE(crowded.LookupHit(request).has_value());
  CacheStats stats = crowded.stats();
  EXPECT_EQ(stats.misses, 1);
  for (int i = 0; i < kNumMissReasons; ++i) {
    MissReason r = static_cast<MissReason>(i);
    EXPECT_EQ(stats.miss_reasons[i],
              r == MissReason::kMeasureNotDerivable ? 1 : 0)
        << MissReasonToString(r);
  }

  auto hit = with_match.LookupHit(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->exact);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit->table, env.Truth(request)));
  EXPECT_EQ(with_match.stats().misses, 0);
}

TEST(IntelligentCacheTest, AdjustForReuseDecomposesAvg) {
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Dim("region")
                        .Agg(AggFunc::kAvg, "price", "mean")
                        .Build();
  AbstractQuery adjusted = AdjustForReuse(q, AdjustOptions{});
  bool has_avg = false, has_sum = false, has_cnt = false;
  for (const query::Measure& m : adjusted.measures) {
    has_avg |= m.func == AggFunc::kAvg;
    has_sum |= m.func == AggFunc::kSum && m.column == "price";
    has_cnt |= m.func == AggFunc::kCount && m.column == "price";
  }
  EXPECT_FALSE(has_avg);
  EXPECT_TRUE(has_sum);
  EXPECT_TRUE(has_cnt);
  // And the adjusted result answers the original.
  auto plan = MatchQueries(adjusted, q);
  EXPECT_TRUE(plan.has_value());
}

TEST(IntelligentCacheTest, AdjustAddFilterDimensionsEnablesReuse) {
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Dim("region")
                        .Agg(AggFunc::kSum, "units", "total")
                        .FilterIn("product", {Value("apple"), Value("fig")})
                        .Build();
  AdjustOptions opts;
  opts.add_filter_dimensions = true;
  AbstractQuery adjusted = AdjustForReuse(q, opts);
  // product became a dimension, so a later deselection is post-processable.
  AbstractQuery narrower = QueryBuilder("tde", "sales")
                               .Dim("region")
                               .Agg(AggFunc::kSum, "units", "total")
                               .FilterIn("product", {Value("apple")})
                               .Build();
  EXPECT_TRUE(MatchQueries(adjusted, q).has_value());
  EXPECT_TRUE(MatchQueries(adjusted, narrower).has_value());
}

TEST(IntelligentCacheTest, EvictionRespectsCapacityAndInvalidations) {
  CacheTestEnv env;
  IntelligentCacheOptions options;
  options.max_bytes = 1;  // force immediate eviction
  IntelligentCache tiny(options);
  AbstractQuery q = BaseQuery();
  tiny.Put(q, env.Truth(q), 10.0);
  EXPECT_EQ(tiny.num_entries(), 0);
  EXPECT_EQ(tiny.stats().evictions, 1);

  IntelligentCache normal;
  normal.Put(q, env.Truth(q), 10.0);
  EXPECT_EQ(normal.num_entries(), 1);
  normal.InvalidateDataSource("tde");
  EXPECT_EQ(normal.num_entries(), 0);
  EXPECT_FALSE(normal.Lookup(q).has_value());
}

TEST(IntelligentCacheTest, MinEvalCostGatesAdmission) {
  CacheTestEnv env;
  IntelligentCacheOptions options;
  options.min_eval_cost_ms = 5.0;
  IntelligentCache cache(options);
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 1.0);  // too cheap to bother caching
  EXPECT_EQ(cache.num_entries(), 0);
  cache.Put(q, env.Truth(q), 50.0);
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST(LiteralCacheTest, HitsOnExactTextOnly) {
  LiteralCache cache;
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{1})});
  cache.Put("SELECT 1", t, 5.0, "src");
  EXPECT_TRUE(cache.Lookup("SELECT 1").has_value());
  EXPECT_FALSE(cache.Lookup("SELECT  1").has_value());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.InvalidateDataSource("src");
  EXPECT_FALSE(cache.Lookup("SELECT 1").has_value());
}

TEST(PersistenceTest, RoundTripsBothCaches) {
  CacheTestEnv env;
  IntelligentCache intelligent;
  LiteralCache literal;
  AbstractQuery q = BaseQuery();
  intelligent.Put(q, env.Truth(q), 12.0);
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{42})});
  literal.Put("SELECT 42", t, 3.0, "tde");

  std::string bytes = SerializeCaches(intelligent, literal);

  IntelligentCache restored_i;
  LiteralCache restored_l;
  ASSERT_TRUE(DeserializeCaches(bytes, &restored_i, &restored_l).ok());
  EXPECT_TRUE(restored_i.Lookup(q).has_value());
  EXPECT_TRUE(restored_l.Lookup("SELECT 42").has_value());

  // Corrupt image fails cleanly.
  std::string corrupt = bytes.substr(0, bytes.size() / 2);
  IntelligentCache scratch_i;
  LiteralCache scratch_l;
  EXPECT_FALSE(DeserializeCaches(corrupt, &scratch_i, &scratch_l).ok());
}

TEST(PersistenceTest, StatsSurviveRoundTrip) {
  CacheTestEnv env;
  IntelligentCache intelligent;
  LiteralCache literal;

  // Drive a mixed history: one exact hit, one derived (roll-up) hit, and
  // misses with two distinct typed reasons.
  AbstractQuery stored = BaseQuery();
  intelligent.Put(stored, env.Truth(stored), 12.0);
  EXPECT_TRUE(intelligent.Lookup(stored).has_value());  // exact
  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  EXPECT_TRUE(intelligent.Lookup(rolled).has_value());  // derived
  AbstractQuery other_view = QueryBuilder("tde", "returns")
                                 .Dim("region")
                                 .CountAll("n")
                                 .Build();
  EXPECT_FALSE(intelligent.Lookup(other_view).has_value());  // no_candidate
  AbstractQuery extra_dim = QueryBuilder("tde", "sales")
                                .Dim("region")
                                .Dim("product")
                                .Dim("day")
                                .Agg(AggFunc::kSum, "units", "total")
                                .Build();
  EXPECT_FALSE(intelligent.Lookup(extra_dim).has_value());  // dim_not_stored

  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{42})});
  literal.Put("SELECT 42", t, 3.0, "tde");
  EXPECT_TRUE(literal.Lookup("SELECT 42").has_value());
  EXPECT_FALSE(literal.Lookup("SELECT 43").has_value());
  literal.InvalidateDataSource("tde");

  CacheStats before = intelligent.stats();
  ASSERT_EQ(before.exact_hits, 1);
  ASSERT_EQ(before.derived_hits, 1);
  ASSERT_EQ(before.misses, 2);
  ASSERT_EQ(
      before.miss_reasons[static_cast<int>(MissReason::kNoCandidate)], 1);
  ASSERT_EQ(
      before.miss_reasons[static_cast<int>(MissReason::kDimensionNotStored)],
      1);

  std::string bytes = SerializeCaches(intelligent, literal);
  IntelligentCache restored_i;
  LiteralCache restored_l;
  ASSERT_TRUE(DeserializeCaches(bytes, &restored_i, &restored_l).ok());

  // Every counter — including the per-reason breakdown — survives, and
  // the sum(miss_reasons) == misses invariant still holds after restore.
  CacheStats after = restored_i.stats();
  EXPECT_EQ(after.exact_hits, before.exact_hits);
  EXPECT_EQ(after.derived_hits, before.derived_hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.invalidations, before.invalidations);
  int64_t reason_sum = 0;
  for (int i = 0; i < kNumMissReasons; ++i) {
    EXPECT_EQ(after.miss_reasons[i], before.miss_reasons[i])
        << MissReasonToString(static_cast<MissReason>(i));
    reason_sum += after.miss_reasons[i];
  }
  EXPECT_EQ(reason_sum, after.misses);
  EXPECT_EQ(restored_l.hits(), literal.hits());
  EXPECT_EQ(restored_l.misses(), literal.misses());
  EXPECT_EQ(restored_l.invalidations(), literal.invalidations());
}

TEST(DistributedTest, SecondNodeStaysWarm) {
  CacheTestEnv env;
  DistributedCacheTier::Options tier_options;
  tier_options.net.simulate_latency = false;
  auto tier = std::make_shared<DistributedCacheTier>(tier_options);
  NodeCacheLayer node_a("a", tier);
  NodeCacheLayer node_b("b", tier);

  AbstractQuery q = BaseQuery();
  ResultTable truth = env.Truth(q);
  node_a.Put(q, truth, 20.0);

  // Node B never saw the query but gets it from the shared tier.
  auto hit = node_b.Lookup(q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, truth));
  EXPECT_EQ(node_b.shared_hits(), 1);

  // Second lookup on B is local.
  ASSERT_TRUE(node_b.Lookup(q).has_value());
  EXPECT_EQ(node_b.shared_hits(), 1);
  EXPECT_GE(tier->hits(), 1);
}

// --- Null-semantics differential tests (engine vs cache-derived) ---
// The TDE engine skips NULLs in COUNTD and rejects NULL rows in IN-set
// filters; cache post-processing must agree or derived hits silently
// diverge from remote execution.

class NullSemanticsEnv {
 public:
  NullSemanticsEnv()
      : source_(std::make_shared<federation::TdeDataSource>(
            "nulltde", vizq::testing::MakeNullableTestDatabase(512))),
        truth_service_(source_, nullptr) {
    (void)truth_service_.RegisterTableView("orders");
  }

  ResultTable Truth(const AbstractQuery& q) {
    BatchOptions opts;
    opts.use_intelligent_cache = false;
    opts.use_literal_cache = false;
    opts.fuse_queries = false;
    opts.analyze_batch = false;
    opts.adjust.decompose_avg = false;
    auto result = truth_service_.ExecuteQuery(q, opts);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? *result : ResultTable();
  }

  std::shared_ptr<federation::DataSource> source_;
  QueryService truth_service_;
};

TEST(NullSemanticsTest, DerivedCountDistinctSkipsNullDimensionValues) {
  NullSemanticsEnv env;
  AbstractQuery stored = QueryBuilder("nulltde", "orders")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  ResultTable stored_truth = env.Truth(stored);
  // The fixture must actually exercise the null path: at least one group
  // with a NULL product per the generator's 20% null rate.
  bool has_null_dim = false;
  for (int64_t r = 0; r < stored_truth.num_rows(); ++r) {
    if (stored_truth.at(r, 1).is_null()) has_null_dim = true;
  }
  ASSERT_TRUE(has_null_dim) << "fixture lost its null dimension values";

  IntelligentCache cache;
  cache.Put(stored, stored_truth, 10.0);
  AbstractQuery request = QueryBuilder("nulltde", "orders")
                              .Dim("region")
                              .Agg(AggFunc::kCountDistinct, "product", "nd")
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().derived_hits, 1);
  // A COUNTD that counted the null group would be +1 on every row with a
  // null-bearing region; the engine's answer is the spec.
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs engine:\n" << env.Truth(request).ToCsv();
}

TEST(NullSemanticsTest, DerivedInSetFilterRejectsNullRows) {
  NullSemanticsEnv env;
  AbstractQuery stored = QueryBuilder("nulltde", "orders")
                             .Dim("region")
                             .Dim("product")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Agg(AggFunc::kCount, "units", "n")
                             .Build();
  IntelligentCache cache;
  cache.Put(stored, env.Truth(stored), 10.0);

  // A predicate set containing a NULL literal must not admit NULL rows:
  // SQL IN uses =, and NULL = NULL is not true. The engine enforces this;
  // the residual post-filter has to match it.
  AbstractQuery request =
      QueryBuilder("nulltde", "orders")
          .Dim("region")
          .Agg(AggFunc::kSum, "units", "total")
          .Agg(AggFunc::kCount, "units", "n")
          .FilterIn("product", {Value("apple"), Value("banana"), Value::Null()})
          .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().derived_hits, 1);
  EXPECT_TRUE(ResultTable::SameUnordered(*hit, env.Truth(request)))
      << hit->ToCsv() << "\nvs engine:\n" << env.Truth(request).ToCsv();
}

// --- Stats lifecycle (Clear / InvalidateDataSource observability) ---

TEST(IntelligentCacheTest, ClearResetsStatsAndInvalidationsAreCounted) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 10.0);
  (void)cache.Lookup(q);                             // exact hit
  (void)cache.Lookup(QueryBuilder("tde", "other").Dim("x").Build());  // miss
  EXPECT_EQ(cache.stats().exact_hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().inserts, 1);

  cache.InvalidateDataSource("tde");
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.total_bytes(), 0);

  cache.Put(q, env.Truth(q), 10.0);
  cache.Clear();
  // Post-clear the cache reports as-new: hit-rate accounting restarts.
  CacheStats s = cache.stats();
  EXPECT_EQ(s.exact_hits, 0);
  EXPECT_EQ(s.derived_hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.inserts, 0);
  EXPECT_EQ(s.invalidations, 0);
  EXPECT_EQ(s.hits(), 0);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.total_bytes(), 0);
  // And counting resumes from zero.
  cache.Put(q, env.Truth(q), 10.0);
  (void)cache.Lookup(q);
  EXPECT_EQ(cache.stats().exact_hits, 1);
}

TEST(LiteralCacheTest, ClearResetsCountersAndInvalidationsAreCounted) {
  LiteralCache cache;
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{1})});
  cache.Put("SELECT 1", t, 5.0, "src");
  cache.Put("SELECT 2", t, 5.0, "src");
  cache.Put("SELECT 3", t, 5.0, "other");
  (void)cache.Lookup("SELECT 1");
  (void)cache.Lookup("SELECT nope");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);

  cache.InvalidateDataSource("src");
  EXPECT_EQ(cache.invalidations(), 2);
  EXPECT_EQ(cache.num_entries(), 1);

  cache.Clear();
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.invalidations(), 0);
  EXPECT_EQ(cache.num_entries(), 0);
  EXPECT_EQ(cache.total_bytes(), 0);
}

// --- Sharded-layout behavior ---

TEST(IntelligentCacheTest, LookupHitSharesSnapshotsWithoutCopying) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery q = BaseQuery();
  cache.Put(q, env.Truth(q), 10.0);

  auto first = cache.LookupHit(q);
  auto second = cache.LookupHit(q);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->exact);
  EXPECT_TRUE(second->exact);
  // Exact hits share one immutable snapshot: a refcount bump, not a copy.
  EXPECT_EQ(first->table.get(), second->table.get());

  AbstractQuery rolled = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units", "total")
                             .Build();
  auto derived = cache.LookupHit(rolled);
  ASSERT_TRUE(derived.has_value());
  EXPECT_FALSE(derived->exact);
  EXPECT_TRUE(ResultTable::SameUnordered(*derived->table, env.Truth(rolled)));
}

TEST(IntelligentCacheTest, SnapshotRestoreRoundTripsAcrossShardLayouts) {
  CacheTestEnv env;
  IntelligentCacheOptions wide;
  wide.num_shards = 32;
  IntelligentCache cache(wide);
  // Entries across several (data_source, view) buckets → several shards.
  std::vector<AbstractQuery> queries;
  for (int v = 0; v < 6; ++v) {
    AbstractQuery q = BaseQuery();
    q.view = "sales_v" + std::to_string(v);
    q.Canonicalize();
    queries.push_back(q);
    cache.Put(q, env.Truth(BaseQuery()), 10.0 + v);
  }
  EXPECT_EQ(cache.num_entries(), 6);
  EXPECT_EQ(cache.num_shards(), 32);
  int64_t occupied = 0;
  for (int64_t n : cache.ShardOccupancy()) occupied += n;
  EXPECT_EQ(occupied, 6);

  auto snapshot = cache.TakeSnapshot();
  ASSERT_EQ(snapshot.size(), 6u);

  // Restore into a cache with a different stripe width: the layout is an
  // implementation detail, the entries must all come back.
  IntelligentCacheOptions narrow;
  narrow.num_shards = 2;
  IntelligentCache restored(narrow);
  restored.Restore(std::move(snapshot));
  EXPECT_EQ(restored.num_entries(), 6);
  EXPECT_EQ(restored.total_bytes(), cache.total_bytes());
  for (const AbstractQuery& q : queries) {
    auto hit = restored.LookupHit(q);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->exact);
  }
}

TEST(LiteralCacheTest, SnapshotRestoreRoundTripsAcrossShardLayouts) {
  LiteralCacheOptions wide;
  wide.num_shards = 32;
  LiteralCache cache(wide);
  ResultTable t(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  t.AddRow({Value(int64_t{7})});
  for (int i = 0; i < 10; ++i) {
    cache.Put("SELECT " + std::to_string(i), t, 5.0, "src");
  }
  auto snapshot = cache.TakeSnapshot();
  ASSERT_EQ(snapshot.size(), 10u);

  LiteralCacheOptions narrow;
  narrow.num_shards = 1;
  LiteralCache restored(narrow);
  restored.Restore(std::move(snapshot));
  EXPECT_EQ(restored.num_entries(), 10);
  EXPECT_EQ(restored.total_bytes(), cache.total_bytes());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(restored.Lookup("SELECT " + std::to_string(i)).has_value());
  }
}

// Parameterized sweep: every (stored granularity, requested granularity,
// filter) combination answered from cache must equal direct execution.
struct SweepCase {
  std::vector<std::string> stored_dims;
  std::vector<std::string> requested_dims;
  bool filter_region;
};

class CacheEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalenceSweep, DerivedResultsMatchTruth) {
  static CacheTestEnv* env = new CacheTestEnv();
  const std::vector<std::vector<std::string>> granularities = {
      {"region", "product"}, {"region"}, {"product"}, {}};
  int param = GetParam();
  const auto& stored_dims = granularities[param % 4];
  const auto& requested_dims = granularities[(param / 4) % 4];
  bool filter_region = (param / 16) % 2 == 1;

  // Requested must be derivable: requested dims subset of stored dims and
  // (when filtering on region) region in stored dims.
  auto contains = [](const std::vector<std::string>& v, const std::string& s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  bool derivable = true;
  for (const std::string& d : requested_dims) {
    if (!contains(stored_dims, d)) derivable = false;
  }
  if (filter_region && !contains(stored_dims, "region")) derivable = false;

  QueryBuilder stored_builder("tde", "sales");
  for (const std::string& d : stored_dims) stored_builder.Dim(d);
  stored_builder.Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kCount, "units", "n");
  AbstractQuery stored = stored_builder.Build();

  QueryBuilder req_builder("tde", "sales");
  for (const std::string& d : requested_dims) req_builder.Dim(d);
  req_builder.Agg(AggFunc::kSum, "units", "total")
      .Agg(AggFunc::kAvg, "units", "mean");
  if (filter_region) {
    req_builder.FilterIn("region", {Value("East"), Value("North")});
  }
  AbstractQuery requested = req_builder.Build();

  IntelligentCache cache;
  cache.Put(stored, env->Truth(stored), 10.0);
  auto hit = cache.Lookup(requested);
  if (!derivable) {
    EXPECT_FALSE(hit.has_value());
    return;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_TABLES_EQUIVALENT(env->Truth(requested), *hit);
}

INSTANTIATE_TEST_SUITE_P(GranularityByFilter, CacheEquivalenceSweep,
                         ::testing::Range(0, 32));

// Minimized from fuzz_differential (derived_hit lane): a scalar request
// whose residual filter removes every stored group must still produce the
// engine's single scalar row — counts 0, extremes/sums NULL — not an
// empty table.
TEST(IntelligentCacheTest, ScalarRollupOverEmptiedGroupsKeepsOneRow) {
  CacheTestEnv env;
  IntelligentCache cache;
  AbstractQuery stored = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kMax, "product")
                             .Agg(AggFunc::kCount, "units")
                             .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  AbstractQuery request = QueryBuilder("tde", "sales")
                              .Agg(AggFunc::kMax, "product")
                              .Agg(AggFunc::kCount, "units")
                              .FilterIn("region", {Value("Atlantis")})
                              .Build();
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->num_rows(), 1);
  EXPECT_TRUE(hit->at(0, 0).is_null());
  EXPECT_EQ(hit->at(0, 1).int_value(), 0);
  EXPECT_TABLES_EQUIVALENT(env.Truth(request), *hit);
}

// Minimized from fuzz_differential: SQL NULL and the literal string
// "NULL" are distinct group keys; the roll-up used to merge them because
// its group key rendered both as the same text.
TEST(IntelligentCacheTest, RollupKeepsNullAndLiteralNullStringApart) {
  using namespace vizq::tde;
  TableBuilder builder("t", {{"g", DataType::String()},
                             {"h", DataType::String()},
                             {"v", DataType::Int64()}});
  (void)builder.AddRow({Value("a"), Value::Null(), Value(int64_t{1})});
  (void)builder.AddRow({Value("a"), Value("NULL"), Value(int64_t{10})});
  (void)builder.AddRow({Value("b"), Value::Null(), Value(int64_t{2})});
  (void)builder.AddRow({Value("b"), Value("NULL"), Value(int64_t{20})});
  auto db = std::make_shared<Database>("nullstr");
  (void)db->AddTable(*builder.Finish());
  auto source = std::make_shared<federation::TdeDataSource>(
      "tde", db, QueryOptions::Serial());
  QueryService service(source, nullptr);
  ASSERT_TRUE(service.RegisterTableView("t").ok());
  BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  opts.fuse_queries = false;
  opts.analyze_batch = false;
  opts.adjust.decompose_avg = false;

  AbstractQuery stored = QueryBuilder("tde", "t")
                             .Dim("g")
                             .Dim("h")
                             .Agg(AggFunc::kSum, "v", "s")
                             .Build();
  AbstractQuery request =
      QueryBuilder("tde", "t").Dim("h").Agg(AggFunc::kSum, "v", "s").Build();
  auto stored_result = service.ExecuteQuery(stored, opts);
  ASSERT_TRUE(stored_result.ok()) << stored_result.status();

  IntelligentCache cache;
  cache.Put(stored, *stored_result, 10.0);
  auto hit = cache.Lookup(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_rows(), 2);  // one NULL group, one "NULL" group
  auto truth = service.ExecuteQuery(request, opts);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_TABLES_EQUIVALENT(*truth, *hit);
}

// Minimized from fuzz_differential (batch_fused lane): widening a query
// with its filter columns must keep COUNTD derivable — the COUNTD column
// has to ride along as a dimension, because distinct counts cannot be
// re-aggregated through the roll-up.
TEST(AdjustForReuseTest, CountDistinctSurvivesFilterDimensionWidening) {
  CacheTestEnv env;
  AbstractQuery q = QueryBuilder("tde", "sales")
                        .Agg(AggFunc::kCountDistinct, "product", "nd")
                        .FilterIn("region", {Value("East"), Value("West")})
                        .Build();
  AdjustOptions options;
  options.add_filter_dimensions = true;
  AbstractQuery adjusted = AdjustForReuse(q, options);

  ResultTable wide = env.Truth(adjusted);
  auto plan = MatchQueries(adjusted, q);
  ASSERT_TRUE(plan.has_value())
      << "widened query cannot serve the original: " << adjusted.ToKeyString();
  auto derived = ApplyMatchPlan(wide, *plan, q);
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TABLES_EQUIVALENT(env.Truth(q), *derived);
}

}  // namespace
}  // namespace vizq::cache
