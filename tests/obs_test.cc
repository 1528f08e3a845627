// Tests for the observability layer (src/obs/): MetricsRegistry exactness
// under concurrency, histogram percentile monotonicity, JSON parsing and
// Chrome-trace validation, span-tree capture/export (breadcrumbs and
// attributes on the spans that logged them), and the operator-level
// EXPLAIN ANALYZE plumbing — including the acceptance criterion that a
// fixed-seed FAA batch exports a schema-valid Chrome trace that is stable
// across runs modulo timestamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "src/cache/intelligent_cache.h"
#include "src/cluster/coordinator.h"
#include "src/common/phase_timeline.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "src/obs/exemplar.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/plan_profile.h"
#include "src/obs/slo.h"
#include "src/workload/faa_generator.h"
#include "src/workload/flights_dashboards.h"
#include "tests/test_util.h"

namespace vizq::obs {
namespace {

using dashboard::BatchOptions;
using dashboard::QueryService;
using query::AbstractQuery;
using query::QueryBuilder;

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, ConcurrentCountersAndHistogramsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;

  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      Counter& mine = registry.GetCounter("stress.thread." + std::to_string(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        registry.Add("stress.shared", 1);
        mine.Add(2);
        registry.Observe("stress.lat_us", static_cast<double>(i % 1000) + 0.5);
        registry.SetGauge("stress.gauge", static_cast<double>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("stress.shared"), kThreads * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counters.at("stress.thread." + std::to_string(t)),
              2 * kOpsPerThread);
  }
  ASSERT_EQ(snap.histograms.size(), 1u);
  const MetricsSnapshot::HistogramRow& h = snap.histograms[0];
  EXPECT_EQ(h.name, "stress.lat_us");
  EXPECT_EQ(h.count, kThreads * kOpsPerThread);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 999.5);
  // Percentiles are monotone and inside [min, max] by construction.
  EXPECT_LE(h.min, h.p50);
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
  EXPECT_LE(h.p99, h.max);
  // The bucket layout is exponential, so interpolation error is bounded by
  // one bucket's growth factor (~1.58x).
  EXPECT_GT(h.p50, 250.0);
  EXPECT_LT(h.p50, 900.0);
}

TEST(MetricsRegistryTest, HistogramSumMinMaxAndMean) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(10.0);
  h.Observe(100.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 111.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 37.0);
  EXPECT_GE(h.Percentile(100), h.Percentile(50));
  EXPECT_LE(h.Percentile(0), h.Percentile(50));
}

TEST(MetricsRegistryTest, InstrumentKindsAreSticky) {
  MetricsRegistry registry;
  registry.Add("metric.a", 1);
  // Same name as a histogram: dropped, not crashed or converted.
  registry.Observe("metric.a", 3.0);
  MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("metric.a"), 1);
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsRegistryTest, ExpositionFormats) {
  MetricsRegistry registry;
  registry.Add("cache.hits", 7);
  registry.SetGauge("pool.occupancy", 3.5);
  registry.Observe("batch.ms", 12.0);
  std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("vizq_cache_hits 7"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.95\""), std::string::npos);
  // The JSON snapshot parses with our own parser.
  auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* hits = counters->Find("cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(static_cast<int64_t>(hits->number()), 7);
  // Names with control characters are escaped in both JSON exports.
  registry.Add("tab\tname", 1);
  parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_NE(parsed->Find("counters"), nullptr);
  EXPECT_NE(parsed->Find("counters")->Find("tab\tname"), nullptr);
  ExecContext ctx;
  ctx.StartSpan("tab\tspan")->End();
  parsed = ParseJson(ctx.trace()->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* children = parsed->Find("children");
  ASSERT_TRUE(children != nullptr && children->array().size() == 1);
  ASSERT_NE(children->array()[0].Find("name"), nullptr);
  EXPECT_EQ(children->array()[0].Find("name")->string(), "tab\tspan");
}

TEST(MetricsRegistryTest, GlobalSinkReceivesExecContextMetrics) {
  MetricsRegistry& global = GlobalMetrics();  // installs the sink
  Counter& c = global.GetCounter("obs_test.count");
  int64_t before = c.value();
  ExecContext ctx;
  ctx.Count("obs_test.count", 3);
  EXPECT_EQ(c.value(), before + 3);
  // Background() forwards nothing.
  ExecContext::Background().Count("obs_test.count", 5);
  EXPECT_EQ(c.value(), before + 3);
}

// --- JSON parser / Chrome-trace validator ---

TEST(JsonTest, ParsesNestedDocument) {
  auto v = ParseJson(
      R"({"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.5);
  const JsonValue* c = v->Find("b")->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string(), "x\ny");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("[\"raw\ttab\"]").ok());
}

TEST(JsonTest, ValidateChromeTraceCatchesSchemaViolations) {
  int n = 0;
  EXPECT_TRUE(ValidateChromeTrace(
                  R"({"traceEvents": [{"name": "x", "ph": "X", "ts": 1,)"
                  R"( "dur": 2, "pid": 1, "tid": 0}]})",
                  &n)
                  .ok());
  EXPECT_EQ(n, 1);
  // Missing "name".
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents": [{"ph": "X", "ts": 1, "pid": 1,)"
                   R"( "tid": 0}]})")
                   .ok());
  // Negative timestamp.
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents": [{"name": "x", "ph": "i", "ts": -4,)"
                   R"( "pid": 1, "tid": 0}]})")
                   .ok());
  // No traceEvents array.
  EXPECT_FALSE(ValidateChromeTrace(R"({"events": []})").ok());
}

// --- span-tree capture ---

// Builds a context with a finished two-level span tree: one breadcrumb on
// the root, and one breadcrumb plus one attribute on "stage".
ExecContext MakeTracedWork(const std::string& crumb) {
  ExecContext ctx;
  ctx.LogEvent("test", crumb);
  Span* stage = ctx.StartSpan("stage");
  ExecContext stage_ctx = ctx.WithSpan(stage);
  stage_ctx.LogEvent("test", "inside stage");
  stage_ctx.Attach("note", "first draft");
  stage_ctx.Attach("note", "attachment body");  // a later Attach wins
  stage_ctx.StartSpan("inner")->End();
  stage->End();
  return ctx;
}

// Captures the whole trace, timestamps relative to the request's start.
RecordedRequest CaptureAll(const ExecContext& ctx, const std::string& name) {
  const Span& root = *ctx.trace()->root();
  return CaptureRequest(root, name, root.start_time());
}

TEST(CaptureRequestTest, RecordsSpansEventsAndAttributes) {
  ExecContext ctx = MakeTracedWork("decision made");
  RecordedRequest r = CaptureAll(ctx, "req:a");
  EXPECT_EQ(r.id, 0);  // assigned by the store that retains it
  EXPECT_EQ(r.name, "req:a");
  EXPECT_EQ(r.duration_us, r.root.duration_us);
  EXPECT_EQ(r.root.TotalSpans(), 3);  // request -> stage -> inner

  // Breadcrumbs and attributes come back on the spans that logged them.
  ASSERT_EQ(r.root.events.size(), 1u);
  EXPECT_EQ(r.root.events[0].category, "test");
  EXPECT_EQ(r.root.events[0].detail, "decision made");
  EXPECT_TRUE(r.root.attributes.empty());
  const RecordedSpan* stage = r.root.Find("stage");
  ASSERT_NE(stage, nullptr);
  ASSERT_EQ(stage->events.size(), 1u);
  EXPECT_EQ(stage->events[0].detail, "inside stage");
  EXPECT_GE(stage->events[0].at_us, stage->start_us);
  ASSERT_EQ(stage->attributes.size(), 1u);
  EXPECT_EQ(stage->attributes.at("note"), "attachment body");
  const RecordedSpan* inner = r.root.Find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(inner->events.empty());
  EXPECT_TRUE(inner->attributes.empty());
  EXPECT_EQ(r.root.Find("absent"), nullptr);

  // Capturing a subtree keeps only that subtree's breadcrumbs.
  const Span* live_stage = ctx.trace()->root()->children().at(0);
  RecordedRequest sub = CaptureRequest(*live_stage, "req:stage",
                                       ctx.trace()->root()->start_time());
  EXPECT_EQ(sub.root.TotalSpans(), 2);
  ASSERT_EQ(sub.root.events.size(), 1u);
  EXPECT_EQ(sub.root.events[0].detail, "inside stage");

  // Background contexts log nothing and must not crash.
  ExecContext::Background().LogEvent("test", "dropped");
  ExecContext::Background().Attach("note", "dropped");
}

TEST(CaptureRequestTest, ChromeTraceExportValidates) {
  RecordedRequest r = CaptureAll(MakeTracedWork("crumb"), "req:x");
  r.id = 7;
  std::string trace = RequestsToChromeTrace({r});
  int n = 0;
  Status s = ValidateChromeTrace(trace, &n);
  EXPECT_TRUE(s.ok()) << s;
  // 3 spans + 2 instants + 1 process-name metadata event.
  EXPECT_EQ(n, 6);

  // Attributes are the "args" of their span's complete event; breadcrumbs
  // are instants on their span's row (one row per tree depth).
  StatusOr<JsonValue> doc = ParseJson(trace);
  ASSERT_TRUE(doc.ok()) << doc.status();
  bool saw_args = false, saw_instant = false;
  for (const JsonValue& ev : doc->Find("traceEvents")->array()) {
    const std::string& ph = ev.Find("ph")->string();
    EXPECT_EQ(ev.Find("pid")->number(), 7);
    if (ph == "X" && ev.Find("name")->string() == "stage") {
      const JsonValue* args = ev.Find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->Find("note"), nullptr);
      EXPECT_EQ(args->Find("note")->string(), "attachment body");
      saw_args = true;
    } else if (ph == "X") {
      EXPECT_EQ(ev.Find("args"), nullptr) << ev.Find("name")->string();
    } else if (ph == "i" &&
               ev.Find("args")->Find("detail")->string() == "inside stage") {
      EXPECT_EQ(ev.Find("name")->string(), "test");
      EXPECT_EQ(ev.Find("tid")->number(), 1);
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_args);
  EXPECT_TRUE(saw_instant);
}

// --- end-to-end: fixed-seed FAA batch through the service ---

struct FaaFixture {
  std::shared_ptr<tde::Database> db;
  std::unique_ptr<QueryService> service;

  FaaFixture() {
    workload::FaaOptions faa;
    faa.num_flights = 5000;
    faa.seed = 2015;
    db = *workload::GenerateFaaDatabase(faa);
    auto source = std::make_shared<federation::TdeDataSource>("faa", db);
    service = std::make_unique<QueryService>(
        source, std::make_shared<dashboard::CacheStack>());
    Status registered = service->RegisterView(workload::FlightsStarView());
    if (!registered.ok()) ADD_FAILURE() << registered;
  }

  static std::vector<AbstractQuery> Batch() {
    std::vector<AbstractQuery> batch;
    batch.push_back(QueryBuilder("faa", workload::kFlightsView)
                        .Dim("carrier")
                        .CountAll("flights")
                        .OrderBy("flights", false)
                        .Build());
    batch.push_back(QueryBuilder("faa", workload::kFlightsView)
                        .Dim("dest_state")
                        .Agg(AggFunc::kAvg, "dep_delay", "avg_delay")
                        .Build());
    batch.push_back(QueryBuilder("faa", workload::kFlightsView)
                        .CountAll("n")
                        .Build());
    return batch;
  }
};

// Renders `span`'s subtree as indented span names, timing dropped and each
// node's children sorted by their own rendering: concurrent siblings (two
// sched:batch-group spans, say) are recorded in whichever order they ran,
// so two runs of one workload compare equal on names and nesting alone.
std::string NormalizeSpanTree(const RecordedSpan& span, int depth = 0) {
  std::vector<std::string> children;
  for (const RecordedSpan& child : span.children) {
    children.push_back(NormalizeSpanTree(child, depth + 1));
  }
  std::sort(children.begin(), children.end());
  std::string out = std::string(2 * depth, ' ') + span.name + "\n";
  for (const std::string& child : children) out += child;
  return out;
}

TEST(ObservabilityEndToEndTest, FaaBatchTraceIsValidAndStableModuloTime) {
  std::string normalized[2];
  for (int run = 0; run < 2; ++run) {
    FaaFixture fx;  // fresh service + caches: identical cold-start state
    ExecContext ctx;
    auto results = fx.service->ExecuteBatch(ctx, FaaFixture::Batch(), {},
                                            nullptr);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), 3u);
    RecordedRequest r = CaptureAll(ctx, "batch:faa");
    EXPECT_GE(r.root.TotalSpans(), 2);
    std::string trace = RequestsToChromeTrace({r});
    int n = 0;
    Status valid = ValidateChromeTrace(trace, &n);
    ASSERT_TRUE(valid.ok()) << valid;
    EXPECT_GT(n, 0);
    normalized[run] = NormalizeSpanTree(r.root);
  }
  EXPECT_EQ(normalized[0], normalized[1])
      << "trace structure should be deterministic for a fixed seed";
}

TEST(ObservabilityEndToEndTest, ExplainAnalyzeRootRowsMatchResult) {
  FaaFixture fx;
  BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  AbstractQuery q = QueryBuilder("faa", workload::kFlightsView)
                        .Dim("carrier")
                        .Dim("dest_state")
                        .Agg(AggFunc::kSum, "dep_delay", "total_delay")
                        .Build();
  ExecContext ctx;
  auto result = fx.service->ExecuteQuery(ctx, q, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  // The plan rides on the engine's own tde:run span.
  RecordedRequest r = CaptureAll(ctx, "query");
  const RecordedSpan* run = r.root.Find("tde:run");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->attributes.count("tde.analyze"), 1u);
  const std::string& plan = run->attributes.at("tde.analyze");
  EXPECT_NE(plan.find("Aggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("rows="), std::string::npos) << plan;
  ASSERT_EQ(run->attributes.count("tde.analyze.root_rows"), 1u);
  EXPECT_EQ(run->attributes.at("tde.analyze.root_rows"),
            std::to_string(result->num_rows()));
}

TEST(ObservabilityEndToEndTest, EncodedSkipReasonsReachGlobalRegistry) {
  Counter& skips = GlobalMetrics().GetCounter("tde.encoded.skip.no_group_keys");
  int64_t before = skips.value();
  FaaFixture fx;
  BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  AbstractQuery total =
      QueryBuilder("faa", workload::kFlightsView).CountAll("n").Build();
  ExecContext ctx;
  auto result = fx.service->ExecuteQuery(ctx, total, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  // A scalar aggregate has no keys to index a dense table by: the counter,
  // the Aggregate's label and the footer all name the reason.
  EXPECT_GT(skips.value(), before);
  RecordedRequest r = CaptureAll(ctx, "query");
  const RecordedSpan* run = r.root.Find("tde:run");
  ASSERT_NE(run, nullptr);
  const std::string& plan = run->attributes.at("tde.analyze");
  EXPECT_NE(plan.find("skip=no_group_keys"), std::string::npos) << plan;
  EXPECT_NE(plan.find("fallbacks=0 rows_undecoded=0 skipped="),
            std::string::npos)
      << plan;
}

TEST(ObservabilityEndToEndTest, CacheMissReasonsReachGlobalRegistry) {
  MetricsRegistry& global = GlobalMetrics();
  Counter& miss_counter =
      global.GetCounter("cache.intelligent.miss.dimension_not_stored");
  int64_t before = miss_counter.value();

  cache::IntelligentCache cache;
  ResultTable t(std::vector<ResultColumn>{{"carrier", DataType::String()},
                                          {"n", DataType::Int64()}});
  t.AddRow({Value("AA"), Value(int64_t{10})});
  AbstractQuery stored = QueryBuilder("faa", "flights_star")
                             .Dim("carrier")
                             .CountAll("n")
                             .Build();
  cache.Put(stored, t, 10.0);
  AbstractQuery asks_more = QueryBuilder("faa", "flights_star")
                                .Dim("carrier")
                                .Dim("dest_state")
                                .CountAll("n")
                                .Build();
  ExecContext ctx;
  EXPECT_FALSE(cache.LookupHit(asks_more, ctx).has_value());
  EXPECT_EQ(miss_counter.value(), before + 1);
  // The typed reason also lands as a breadcrumb on the context's current
  // span (here the root).
  bool found = false;
  for (const Span::Event& e : ctx.trace()->root()->events()) {
    if (e.detail.find("reason=dimension_not_stored") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Histogram quantile interpolation ---

TEST(HistogramQuantilesTest, BucketBoundsTile) {
  EXPECT_DOUBLE_EQ(Histogram::LowerBound(0), 0.0);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::LowerBound(i), Histogram::UpperBound(i - 1));
    EXPECT_GT(Histogram::UpperBound(i), Histogram::LowerBound(i));
  }
}

TEST(HistogramQuantilesTest, MonotoneOnAdversarialFills) {
  // Fills engineered to stress the interpolation: everything in one
  // bucket, two far-apart spikes, values at exact bucket bounds, and a
  // heavy-tailed sweep. Quantiles must be monotone and clamped to
  // [min, max] on every one of them.
  std::vector<std::vector<double>> fills;
  fills.push_back(std::vector<double>(1000, 5.0));  // single value
  {
    std::vector<double> two_spikes(500, 0.001);
    two_spikes.insert(two_spikes.end(), 500, 1e9);
    fills.push_back(std::move(two_spikes));
  }
  {
    std::vector<double> at_bounds;
    for (int i = 0; i < Histogram::kNumBuckets; i += 4) {
      at_bounds.insert(at_bounds.end(), 17, Histogram::UpperBound(i));
    }
    fills.push_back(std::move(at_bounds));
  }
  {
    std::vector<double> heavy;
    for (int i = 0; i < 2000; ++i) {
      heavy.push_back(1.0 + (i % 97) * (i % 89) * 0.5);
    }
    heavy.push_back(-3.0);  // below-zero lands in bucket 0
    heavy.push_back(0.0);
    fills.push_back(std::move(heavy));
  }
  const std::vector<double> ps = {0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9,
                                  100};
  for (const std::vector<double>& fill : fills) {
    Histogram h;
    for (double v : fill) h.Observe(v);
    std::vector<double> qs = h.Quantiles(ps);
    ASSERT_EQ(qs.size(), ps.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_GE(qs[i], h.min()) << "p" << ps[i];
      EXPECT_LE(qs[i], h.max()) << "p" << ps[i];
      if (i > 0) {
        EXPECT_LE(qs[i - 1], qs[i])
            << "p" << ps[i - 1] << " > p" << ps[i];
      }
    }
    // The single-quantile form agrees with the batch form.
    EXPECT_DOUBLE_EQ(h.Percentile(50), qs[4]);
  }
}

TEST(HistogramQuantilesTest, UnsortedRequestOrderStillMapsCorrectly) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  std::vector<double> qs = h.Quantiles({99, 50, 1});
  ASSERT_EQ(qs.size(), 3u);
  // Values come back in the REQUESTED order, computed from one pass.
  EXPECT_GT(qs[0], qs[1]);
  EXPECT_GT(qs[1], qs[2]);
  EXPECT_DOUBLE_EQ(qs[1], h.Percentile(50));
}

TEST(HistogramQuantilesTest, EmptyHistogramReportsZero) {
  Histogram h;
  std::vector<double> qs = h.Quantiles({50, 95, 99});
  for (double q : qs) EXPECT_DOUBLE_EQ(q, 0.0);
}

// --- PhaseTimeline / PhaseScope ---

TEST(PhaseTimelineTest, NestedScopesAccountExclusively) {
  PhaseTimeline tl;
  auto t0 = std::chrono::steady_clock::now();
  {
    PhaseScope exec(&tl, Phase::kExecution);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    {
      // Nested scope pauses the parent: its time must NOT also count as
      // execution.
      PhaseScope cache(&tl, Phase::kCacheLookup);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  double exec_ms = tl.phase_ms(Phase::kExecution);
  double cache_ms = tl.phase_ms(Phase::kCacheLookup);
  EXPECT_GE(cache_ms, 10.0);
  EXPECT_GE(exec_ms, 15.0);
  // Exclusive: execution excludes the nested cache time...
  EXPECT_LT(exec_ms, wall_ms - cache_ms + 5.0);
  // ...and the two together decompose the wall time.
  EXPECT_LE(tl.attributed_ms(), wall_ms + 1.0);
  EXPECT_GE(tl.attributed_ms(), 0.9 * wall_ms - 1.0);
}

TEST(PhaseTimelineTest, EndIsIdempotentAndDetailPhasesExcluded) {
  PhaseTimeline tl;
  PhaseScope s(&tl, Phase::kPlan);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  s.End();
  double after_first = tl.phase_ms(Phase::kPlan);
  EXPECT_GT(after_first, 0.0);
  s.End();  // no double charge
  EXPECT_DOUBLE_EQ(tl.phase_ms(Phase::kPlan), after_first);
  // Detail phases never count toward the attributed (root) sum.
  tl.Add(Phase::kQueueInteractive, 50'000'000);
  EXPECT_DOUBLE_EQ(tl.attributed_ms(), after_first);
  EXPECT_FALSE(IsRootPhase(Phase::kQueueInteractive));
  EXPECT_TRUE(IsRootPhase(Phase::kLadder));
}

TEST(PhaseTimelineTest, ToStringCarriesVerdict) {
  PhaseTimeline tl;
  tl.Add(Phase::kCacheLookup, 1'500'000);  // 1.5ms
  tl.SetRung(2);
  tl.SetOutcome("derived");
  std::string s = tl.ToString();
  EXPECT_NE(s.find("cache_lookup=1.500ms"), std::string::npos) << s;
  EXPECT_NE(s.find("rung=2"), std::string::npos) << s;
  EXPECT_NE(s.find("outcome=derived"), std::string::npos) << s;
  EXPECT_EQ(s.find("execution"), std::string::npos) << s;  // zero: omitted
}

TEST(PhaseTimelineTest, KillSwitchDropsTimelineFromNewContexts) {
  ASSERT_TRUE(PhaseTimeline::Enabled());
  ExecContext with;
  EXPECT_NE(with.timeline(), nullptr);
  PhaseTimeline::SetEnabled(false);
  ExecContext without;
  EXPECT_EQ(without.timeline(), nullptr);
  {
    // Scopes on a null timeline are inert, not crashes.
    PhaseScope s(without.timeline(), Phase::kExecution);
  }
  PhaseTimeline::SetEnabled(true);
  ExecContext restored;
  EXPECT_NE(restored.timeline(), nullptr);
  // Background contexts never carry a timeline.
  EXPECT_EQ(ExecContext::Background().timeline(), nullptr);
}

// --- SloMonitor ---

TEST(SloMonitorTest, FiresOnSustainedBadTrafficOnly) {
  SloMonitorOptions opt;
  opt.threshold_ms = 100.0;
  opt.target = 0.9;
  opt.min_requests_to_fire = 20;
  SloMonitor good_monitor(opt);
  for (int i = 0; i < 50; ++i) good_monitor.Record(10.0);
  SloSnapshot healthy = good_monitor.Snapshot();
  EXPECT_EQ(healthy.total, 50);
  EXPECT_EQ(healthy.good, 50);
  EXPECT_FALSE(healthy.firing);
  EXPECT_DOUBLE_EQ(healthy.long_burn, 0.0);

  SloMonitor bad_monitor(opt);
  for (int i = 0; i < 50; ++i) bad_monitor.Record(500.0);  // all late
  SloSnapshot burning = bad_monitor.Snapshot();
  EXPECT_EQ(burning.good, 0);
  // All-bad traffic burns at 1.0 / (1 - 0.9) = 10x the budget rate.
  EXPECT_NEAR(burning.long_burn, 10.0, 0.01);
  EXPECT_TRUE(burning.firing);
}

TEST(SloMonitorTest, MinRequestFloorSuppressesBlips) {
  SloMonitorOptions opt;
  opt.min_requests_to_fire = 20;
  SloMonitor monitor(opt);
  for (int i = 0; i < 19; ++i) monitor.RecordBad();
  EXPECT_FALSE(monitor.Snapshot().firing) << "blip below the floor paged";
  monitor.RecordBad();
  EXPECT_TRUE(monitor.Snapshot().firing);
}

TEST(SloMonitorTest, ShedsAreTrackedOutsideTheSlo) {
  SloMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.RecordShed();
  SloSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.sheds, 100);
  EXPECT_EQ(snap.total, 0);
  EXPECT_FALSE(snap.firing)
      << "typed sheds must not burn the SLO budget";
  monitor.Reset();
  SloSnapshot fresh = monitor.Snapshot();
  EXPECT_EQ(fresh.sheds, 0);
  EXPECT_EQ(fresh.total, 0);
}

// --- TailExemplarStore ---

TEST(TailExemplarStoreTest, KeepsSlowestAndShedLanes) {
  TailExemplarOptions opt;
  opt.top_k = 2;
  opt.shed_k = 1;
  TailExemplarStore store(opt);
  for (int i = 1; i <= 5; ++i) {
    ExecContext ctx = MakeTracedWork("req" + std::to_string(i));
    store.Offer(ctx, ctx.trace()->root(), "req:" + std::to_string(i),
                static_cast<double>(10 * i), "content", /*shed=*/false);
  }
  // A fast request no longer competes once the lane is full of slower ones.
  EXPECT_FALSE(store.WouldAdmit(1.0));
  EXPECT_TRUE(store.WouldAdmit(100.0));
  {
    ExecContext ctx;  // no spans: the store synthesizes a root span
    store.Offer(ctx, nullptr, "shed:zone", 3.0, "shed", /*shed=*/true);
  }
  std::vector<Exemplar> kept = store.Snapshot();
  ASSERT_EQ(kept.size(), 3u);  // top_k slow + 1 shed
  EXPECT_EQ(kept[0].request.name, "req:5");  // slowest first
  EXPECT_DOUBLE_EQ(kept[0].duration_ms, 50.0);
  EXPECT_EQ(kept[1].request.name, "req:4");
  EXPECT_TRUE(kept[2].shed);
  EXPECT_GE(kept[2].request.root.TotalSpans(), 1);
  EXPECT_DOUBLE_EQ(store.Slowest().duration_ms, 50.0);
  EXPECT_EQ(store.total_offered(), 6);
  // Lifetime admissions: every content offer won a slot when it arrived
  // (each displaced a then-faster one), plus the shed.
  EXPECT_EQ(store.total_retained(), 6);

  int n = 0;
  Status valid = ValidateChromeTrace(store.ToChromeTrace(), &n);
  EXPECT_TRUE(valid.ok()) << valid;
  EXPECT_GT(n, 0);

  store.Clear();
  EXPECT_TRUE(store.Snapshot().empty());
  EXPECT_DOUBLE_EQ(store.Slowest().duration_ms, 0.0);
}

TEST(TailExemplarStoreTest, TimelineTextRidesAlong) {
  TailExemplarStore store;
  ExecContext ctx;
  ASSERT_NE(ctx.timeline(), nullptr);
  ctx.timeline()->Add(Phase::kExecution, 42'000'000);
  store.Offer(ctx, nullptr, "req:tl", 42.0, "content", /*shed=*/false);
  std::vector<Exemplar> kept = store.Snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_NE(kept[0].timeline_text.find("execution=42.000ms"),
            std::string::npos)
      << kept[0].timeline_text;
}

TEST(TailExemplarStoreTest, MinDurationFloorFiltersFastRequests) {
  TailExemplarOptions opt;
  opt.min_duration_ms = 25.0;
  TailExemplarStore store(opt);
  EXPECT_FALSE(store.WouldAdmit(10.0));
  ExecContext fast;
  store.Offer(fast, nullptr, "req:fast", 10.0, "content", false);
  ExecContext slow;
  store.Offer(slow, nullptr, "req:slow", 30.0, "content", false);
  std::vector<Exemplar> kept = store.Snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].request.name, "req:slow");
}

// A traced scatter/gather batch retains its per-node RPC spans: the
// retrying channel opens an "rpc:<node>" span per attempt under the
// caller's trace, so a tail exemplar of a clustered request shows WHICH
// nodes the gather waited on, not just that it was slow.
TEST(TailExemplarStoreTest, ClusterBatchTraceCarriesPerNodeRpcSpans) {
  auto db = vizq::testing::MakeTestDatabase(512);
  auto backend = std::make_shared<federation::TdeDataSource>("tde", db);
  cluster::ClusterOptions copts;
  copts.num_nodes = 3;
  copts.transport.net.simulate_latency = false;
  copts.shared_tier.net.simulate_latency = false;
  cluster::ClusterCoordinator coord(copts);
  std::vector<std::string> views;
  for (int s = 0; s < 4; ++s) {
    cluster::SourceSpec spec;
    spec.view.name = "obs" + std::to_string(s);
    spec.view.fact_table = "sales";
    spec.backend = backend;
    ASSERT_TRUE(coord.Publish(spec).ok());
    views.push_back(spec.view.name);
  }
  std::vector<AbstractQuery> batch;
  for (const auto& view : views) {
    batch.push_back(QueryBuilder("tde", view).Dim("region").Build());
  }

  ExecContext ctx;  // traced by default
  ASSERT_NE(ctx.trace(), nullptr);
  auto results = coord.ExecuteBatch(ctx, batch, {}, nullptr);
  ASSERT_TRUE(results.ok()) << results.status();

  TailExemplarStore store;
  store.Offer(ctx, ctx.trace()->root(), "req:cluster", 12.0, "content",
              /*shed=*/false);
  std::string trace = store.ToChromeTrace();
  int n = 0;
  ASSERT_TRUE(ValidateChromeTrace(trace, &n).ok());
  // Every node that owns one of the batch's views shows up as an rpc span.
  std::set<std::string> owners;
  for (const auto& view : views) owners.insert(coord.OwnerOf(view));
  EXPECT_GE(owners.size(), 2u);  // the batch actually scattered
  for (const auto& owner : owners) {
    EXPECT_NE(trace.find("rpc:" + owner), std::string::npos)
        << "missing rpc span for " << owner << " in:\n"
        << trace;
  }
}

// --- PlanProfileRegistry ---

TEST(PlanProfileRegistryTest, ProfilesKeyedBySignature) {
  PlanProfileRegistry registry;
  for (int i = 0; i < 10; ++i) {
    registry.Record("Aggregate(Scan t)", 10.0 + i);
  }
  registry.Record("Join(Scan a,Scan b)", 100.0);
  registry.Record("", 5.0);  // empty signature: dropped
  std::vector<PlanProfileRegistry::Profile> profiles = registry.Snapshot();
  ASSERT_EQ(profiles.size(), 2u);
  // Most-executed first.
  EXPECT_EQ(profiles[0].signature, "Aggregate(Scan t)");
  EXPECT_EQ(profiles[0].count, 10);
  EXPECT_LE(profiles[0].p50_ms, profiles[0].p95_ms);
  EXPECT_LE(profiles[0].p95_ms, profiles[0].p99_ms);
  EXPECT_GE(profiles[0].min_ms, 9.9);
  EXPECT_LE(profiles[0].max_ms, 19.1);
  EXPECT_EQ(profiles[1].count, 1);

  auto parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* plans = parsed->Find("plans");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->array().size(), 2u);

  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(PlanProfileRegistryTest, EngineFeedsGlobalRegistry) {
  GlobalPlanProfiles().Reset();
  FaaFixture fx;
  BatchOptions opts;
  opts.use_intelligent_cache = false;
  opts.use_literal_cache = false;
  AbstractQuery q = QueryBuilder("faa", workload::kFlightsView)
                        .Dim("carrier")
                        .CountAll("flights")
                        .Build();
  ExecContext ctx;
  auto result = fx.service->ExecuteQuery(ctx, q, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<PlanProfileRegistry::Profile> profiles =
      GlobalPlanProfiles().Snapshot();
  ASSERT_FALSE(profiles.empty());
  bool found = false;
  for (const auto& p : profiles) {
    if (p.signature.find("Aggregate") != std::string::npos &&
        p.signature.find("Scan") != std::string::npos) {
      found = true;
      EXPECT_GT(p.count, 0);
    }
  }
  EXPECT_TRUE(found) << "no Aggregate-over-Scan shape recorded";
}

}  // namespace
}  // namespace vizq::obs
