// Deterministic coverage of the million-user traffic stack: the session
// navigation machine (dashboard-open -> filter -> drill, exponential think
// time, Zipfian workbook popularity), the cache freshness/staleness
// labeling the load-shed ladder depends on, fair admission (greedy vs
// polite, with a revert-verify pass that disables fairness to prove the
// mechanism is what produces the bound), the scheduler's per-session queue
// cap, and shed-under-cancel ticket hygiene (the TSan stress target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/intelligent_cache.h"
#include "src/common/rng.h"
#include "src/common/scheduler.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "src/federation/simulated_source.h"
#include "src/obs/exemplar.h"
#include "src/server/admission.h"
#include "src/server/frontend.h"
#include "src/workload/sessions.h"
#include "tests/test_util.h"

namespace vizq {
namespace {

using cache::CacheHit;
using cache::IntelligentCache;
using cache::IntelligentCacheOptions;
using cache::LookupOptions;
using cache::MissReason;
using dashboard::BatchOptions;
using dashboard::CacheStack;
using dashboard::QueryService;
using query::AbstractQuery;
using query::QueryBuilder;
using server::AdmissionController;
using server::AdmissionDecision;
using server::AdmissionOptions;
using server::Frontend;
using server::FrontendOptions;
using server::ServeOutcome;
using server::ServeReport;
using workload::BuildWorkbookSet;
using workload::SampleThinkMs;
using workload::Session;
using workload::SessionAction;
using workload::SessionProfile;
using workload::Workbook;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Session navigation machine.

TEST(TrafficSessionTest, DeterministicPerSeed) {
  auto workbooks = BuildWorkbookSet("sim", 4);
  ASSERT_EQ(workbooks.size(), 4u);
  for (const Workbook& wb : workbooks) {
    Session a(7, &wb, {}, 1234), b(7, &wb, {}, 1234);
    for (int i = 0; i < 16; ++i) {
      auto sa = a.Next(), sb = b.Next();
      ASSERT_EQ(sa.has_value(), sb.has_value()) << wb.name << " step " << i;
      if (!sa.has_value()) break;
      EXPECT_EQ(sa->action, sb->action);
      EXPECT_EQ(sa->zone, sb->zone);
      EXPECT_EQ(sa->column, sb->column);
      EXPECT_EQ(sa->think_ms, sb->think_ms);
      EXPECT_EQ(sa->dirty_zones, sb->dirty_zones);
    }
  }
  // A different seed explores differently (same workbook, same profile).
  Session a(7, &workbooks[0], {}, 1), b(7, &workbooks[0], {}, 2);
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) {
    auto sa = a.Next(), sb = b.Next();
    if (sa.has_value() != sb.has_value()) diverged = true;
    if (!sa.has_value() || !sb.has_value()) break;
    if (sa->action != sb->action || sa->zone != sb->zone ||
        sa->think_ms != sb->think_ms) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "seeds 1 and 2 produced identical traces";
}

TEST(TrafficSessionTest, NavigationShapeIsValid) {
  auto workbooks = BuildWorkbookSet("sim", 2);
  for (const Workbook& wb : workbooks) {
    std::vector<std::string> zones = wb.dash.QueryZoneNames();
    ASSERT_FALSE(zones.empty());
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SessionProfile profile;  // defaults: max_steps = 10
      Session s(seed, &wb, profile, seed);
      int steps = 0;
      bool first = true;
      while (auto step = s.Next()) {
        ++steps;
        ASSERT_LE(steps, profile.max_steps);
        if (first) {
          EXPECT_EQ(step->action, SessionAction::kOpen);
          EXPECT_EQ(step->think_ms, 0.0);
          // Opening a dashboard renders every query zone.
          EXPECT_EQ(step->dirty_zones, zones);
          first = false;
        } else {
          EXPECT_TRUE(step->action == SessionAction::kFilter ||
                      step->action == SessionAction::kDrill ||
                      step->action == SessionAction::kQuickFilter)
              << workload::SessionActionName(step->action);
          EXPECT_GE(step->think_ms, 0.0);
          EXPECT_FALSE(step->column.empty());
        }
        EXPECT_FALSE(step->dirty_zones.empty());
        for (const std::string& z : step->dirty_zones) {
          EXPECT_NE(wb.dash.FindZone(z), nullptr) << z;
        }
        auto batch = s.BuildBatch(*step);
        ASSERT_TRUE(batch.ok()) << batch.status();
        if (step->action == SessionAction::kOpen) {
          EXPECT_FALSE(batch->empty());
        }
        for (const AbstractQuery& q : *batch) {
          EXPECT_EQ(q.data_source, "sim");
        }
      }
      EXPECT_TRUE(s.done());
      EXPECT_GE(steps, 1);  // at least the open renders
    }
  }
}

TEST(TrafficSessionTest, ThinkTimeIsExponentialWithRequestedMean) {
  Rng rng(99);
  const double mean = 120.0;
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    double t = SampleThinkMs(rng, mean);
    ASSERT_GE(t, 0.0);
    sum += t;
  }
  double sample_mean = sum / n;
  // Exponential(120): the sample mean's std error is ~0.85ms at n=20000,
  // so [100, 140] is a many-sigma bound — deterministic given the seed.
  EXPECT_GT(sample_mean, 100.0);
  EXPECT_LT(sample_mean, 140.0);
  EXPECT_EQ(SampleThinkMs(rng, 0.0), 0.0);
}

TEST(TrafficSessionTest, ZipfWorkbookPopularityIsSkewedAndDeterministic) {
  const int n = 8;
  ZipfDistribution zipf_a(n, 1.2), zipf_b(n, 1.2);
  Rng rng_a(5), rng_b(5);
  std::vector<int> hist_a(n, 0), hist_b(n, 0);
  for (int i = 0; i < 20000; ++i) {
    ++hist_a[zipf_a.Sample(rng_a)];
    ++hist_b[zipf_b.Sample(rng_b)];
  }
  EXPECT_EQ(hist_a, hist_b);
  // Head much hotter than tail — the cache-sharing skew the harness needs.
  EXPECT_GT(hist_a[0], 2 * hist_a[n - 1]);
  EXPECT_GT(hist_a[0], hist_a[n / 2]);
}

// ---------------------------------------------------------------------------
// Cache freshness: the labeling contract rungs 1-2 of the ladder rely on.

// Ground-truth executor over the shared test database, no caching.
class TruthEnv {
 public:
  TruthEnv()
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

 private:
  std::shared_ptr<federation::DataSource> source_;
  QueryService truth_service_;
};

TEST(TrafficStaleCacheTest, FreshTtlLabelsAgeAndBoundsStaleness) {
  TruthEnv env;
  IntelligentCacheOptions opts;
  opts.fresh_ttl_ms = 40.0;
  IntelligentCache cache(opts);
  auto q = QueryBuilder("tde", "sales")
               .Dim("region")
               .Agg(AggFunc::kSum, "units", "total")
               .Build();
  cache.Put(q, env.Truth(q), 10.0);

  auto fresh = cache.LookupHit(q);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_FALSE(fresh->stale);
  EXPECT_LT(fresh->age_ms, 40.0);

  SleepMs(80);  // monotonic age crosses the TTL — a threshold, not a race

  // Default (fresh-only) lookup now misses, with the stale reason counted.
  EXPECT_FALSE(cache.LookupHit(q).has_value());
  auto stats = cache.stats();
  EXPECT_GE(stats.miss_reasons[static_cast<int>(MissReason::kEntryStale)], 1);

  // A stale-tolerant lookup serves the entry, LABELED with its real age.
  LookupOptions tolerant;
  tolerant.max_age_ms = 10000.0;
  auto stale = cache.LookupHit(q, ExecContext::Background(), tolerant);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  EXPECT_GT(stale->age_ms, 40.0);
  EXPECT_LT(stale->age_ms, 10000.0);
  EXPECT_GE(cache.stats().stale_hits, 1);

  // The bound binds: an entry older than max_age_ms stays a miss.
  LookupOptions bounded;
  bounded.max_age_ms = 50.0;  // entry is ~80ms old by now
  EXPECT_FALSE(
      cache.LookupHit(q, ExecContext::Background(), bounded).has_value());
}

TEST(TrafficStaleCacheTest, ExactOnlySkipsSubsumption) {
  TruthEnv env;
  IntelligentCache cache;  // ttl 0: entries never go stale
  auto stored = QueryBuilder("tde", "sales")
                    .Dim("region")
                    .Dim("product")
                    .Agg(AggFunc::kSum, "units", "total")
                    .Build();
  auto rollup = QueryBuilder("tde", "sales")
                    .Dim("region")
                    .Agg(AggFunc::kSum, "units", "total")
                    .Build();
  cache.Put(stored, env.Truth(stored), 10.0);

  // The roll-up is derivable from the finer stored result...
  auto derived = cache.LookupHit(rollup);
  ASSERT_TRUE(derived.has_value());
  EXPECT_FALSE(derived->exact);

  // ...but rung 1 of the ladder asks for exact entries only.
  LookupOptions exact_only;
  exact_only.exact_only = true;
  EXPECT_FALSE(
      cache.LookupHit(rollup, ExecContext::Background(), exact_only)
          .has_value());
  auto exact = cache.LookupHit(stored, ExecContext::Background(), exact_only);
  ASSERT_TRUE(exact.has_value());
  EXPECT_TRUE(exact->exact);
}

// ---------------------------------------------------------------------------
// Fair admission: greedy vs polite, deterministically.

TEST(TrafficAdmissionTest, SessionCapClipsGreedyAndRevertVerifies) {
  AdmissionOptions opts;
  opts.fair = true;
  opts.max_global_inflight = 8;
  opts.max_session_inflight = 2;
  AdmissionController ctrl(opts);

  // A greedy session fires 6 concurrent requests: exactly the cap admits.
  std::vector<AdmissionController::Ticket> greedy(6);
  int admitted = 0, degraded = 0;
  for (int i = 0; i < 6; ++i) {
    std::string reason;
    if (ctrl.Admit(1, &greedy[i], &reason) == AdmissionDecision::kAdmit) {
      ++admitted;
    } else {
      ++degraded;
      EXPECT_EQ(reason, "session_inflight");
    }
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(degraded, 4);

  // A polite session is untouched by the greedy one's pressure.
  AdmissionController::Ticket polite;
  EXPECT_EQ(ctrl.Admit(2, &polite), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.stats().peak_session_inflight, 2);
  EXPECT_EQ(ctrl.stats().degraded_session, 4);

  // Revert-verify: with fairness off the SAME greedy pattern swallows the
  // whole global cap, and the polite session is the one degraded — the
  // fairness mechanism, not luck, is what produced the bound above.
  ctrl.set_fair(false);
  std::vector<AdmissionController::Ticket> unfair(8);
  int unfair_admits = 0;
  for (int i = 0; i < 8; ++i) {
    if (ctrl.Admit(1, &unfair[i]) == AdmissionDecision::kAdmit) {
      ++unfair_admits;
    }
  }
  EXPECT_EQ(unfair_admits, 5);  // 3 already in flight (2 greedy + 1 polite)
  EXPECT_EQ(ctrl.stats().peak_session_inflight, 7);  // greedy holds 2 + 5
  AdmissionController::Ticket late_polite;
  std::string reason;
  EXPECT_EQ(ctrl.Admit(3, &late_polite, &reason),
            AdmissionDecision::kDegrade);
  EXPECT_EQ(reason, "global_inflight");

  for (auto& t : greedy) t.Release();
  for (auto& t : unfair) t.Release();
  polite.Release();
  EXPECT_EQ(ctrl.stats().inflight, 0);
}

TEST(TrafficAdmissionTest, CreditBucketThrottlesTightLoops) {
  AdmissionOptions opts;
  opts.fair = true;
  opts.max_global_inflight = -1;   // unlimited
  opts.max_session_inflight = 0;   // unlimited
  opts.credits_per_s = 0.001;      // effectively no refill within the test
  opts.credit_burst = 2.0;
  AdmissionController ctrl(opts);

  // Releasing the ticket does not refund the credit: a tight loop burns
  // its burst even though it never holds two requests at once.
  for (int i = 0; i < 2; ++i) {
    AdmissionController::Ticket t;
    EXPECT_EQ(ctrl.Admit(5, &t), AdmissionDecision::kAdmit) << i;
  }
  AdmissionController::Ticket t;
  std::string reason;
  EXPECT_EQ(ctrl.Admit(5, &t, &reason), AdmissionDecision::kDegrade);
  EXPECT_EQ(reason, "credits");
  EXPECT_EQ(ctrl.stats().degraded_credits, 1);

  // Sessionless requests (id 0) are exempt from per-session fairness.
  for (int i = 0; i < 8; ++i) {
    AdmissionController::Ticket s;
    EXPECT_EQ(ctrl.Admit(0, &s), AdmissionDecision::kAdmit);
  }
}

TEST(TrafficAdmissionTest, DisabledAdmitsEverythingZeroCapAdmitsNothing) {
  AdmissionOptions off;
  off.enabled = false;
  off.max_global_inflight = 0;
  AdmissionController disabled(off);
  std::vector<AdmissionController::Ticket> held(20);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(disabled.Admit(1, &held[i]), AdmissionDecision::kAdmit);
  }

  AdmissionOptions zero;
  zero.max_global_inflight = 0;  // the stale_shed lane's overload injection
  AdmissionController saturated(zero);
  AdmissionController::Ticket t;
  std::string reason;
  EXPECT_EQ(saturated.Admit(1, &t, &reason), AdmissionDecision::kDegrade);
  EXPECT_EQ(reason, "global_inflight");
  EXPECT_FALSE(t.admitted());
}

// ---------------------------------------------------------------------------
// Scheduler per-session queue cap (what admission degrades fall back on).

// Holds the scheduler's only worker busy until Release(), so the test can
// stage a queue deterministically (same helper shape as scheduler_test).
class WorkerGate {
 public:
  explicit WorkerGate(Scheduler* sched) {
    Status s = sched->Submit(TaskClass::kInteractive, [this] {
      std::unique_lock<std::mutex> lock(mu_);
      running_ = true;
      running_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::unique_lock<std::mutex> lock(mu_);
    running_cv_.wait(lock, [this] { return running_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable running_cv_, release_cv_;
  bool running_ = false;
  bool released_ = false;
};

TEST(TrafficSchedulerTest, PerSessionQueueCapShedsTyped) {
  SchedulerOptions opts;
  opts.num_threads = 1;
  opts.max_queued_per_session = 2;
  Scheduler sched(opts);
  WorkerGate gate(&sched);

  std::atomic<int> ran{0};
  SubmitOptions session7;
  session7.session_id = 7;
  auto task = [&] { ran.fetch_add(1); };

  // The capped session queues up to its limit, then sheds typed.
  EXPECT_TRUE(sched.Submit(TaskClass::kInteractive, task,
                           ExecContext::Background(), session7)
                  .ok());
  EXPECT_TRUE(sched.Submit(TaskClass::kInteractive, task,
                           ExecContext::Background(), session7)
                  .ok());
  Status third = sched.Submit(TaskClass::kInteractive, task,
                              ExecContext::Background(), session7);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sched.session_queued(7), 2);
  EXPECT_EQ(sched.session_shed(), 1);

  // Sessionless work and other sessions are unaffected.
  EXPECT_TRUE(sched.Submit(TaskClass::kInteractive, task).ok());
  SubmitOptions session9;
  session9.session_id = 9;
  EXPECT_TRUE(sched.Submit(TaskClass::kInteractive, task,
                           ExecContext::Background(), session9)
                  .ok());

  gate.Release();
  EXPECT_TRUE(sched.WaitForCompleted(TaskClass::kInteractive, 5,
                                     std::chrono::seconds(10)));
  EXPECT_EQ(ran.load(), 4);  // the shed task never ran
  EXPECT_EQ(sched.session_queued(7), 0);
  EXPECT_EQ(sched.session_queued(9), 0);
}

// ---------------------------------------------------------------------------
// Frontend end-to-end: the ladder and fairness over a real serving stack.

struct ServingStack {
  std::shared_ptr<federation::SimulatedDataSource> source;
  std::shared_ptr<CacheStack> caches;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Frontend> frontend;
};

// A slow-ish simulated backend (tens of ms per uncached query) over the
// shared sales table, so admitted requests genuinely overlap in time.
ServingStack MakeServingStack(FrontendOptions fo, double fresh_ttl_ms) {
  ServingStack s;
  auto db = vizq::testing::MakeTestDatabase(8192);
  federation::PerformanceModel m;
  m.connect_ms = 1.0;
  m.dispatch_ms = 0.2;
  m.rows_per_ms = 300;  // ~27ms of scan per uncached query
  m.cpu_slots = 2;
  m.max_parallel_per_query = 1;
  m.network_rtt_ms = 0.1;
  query::Capabilities caps = query::Capabilities::SingleThreadedSql();
  caps.max_connections = 16;
  caps.max_concurrent_queries = 16;
  s.source = std::make_shared<federation::SimulatedDataSource>(
      "sim", db, m, caps, query::SqlDialect::MssqlLike());
  IntelligentCacheOptions iopts;
  iopts.fresh_ttl_ms = fresh_ttl_ms;
  s.caches = std::make_shared<CacheStack>(iopts);
  s.service = std::make_unique<QueryService>(s.source, s.caches);
  EXPECT_TRUE(s.service->RegisterTableView("sales").ok());
  s.frontend = std::make_unique<Frontend>(s.service.get(), fo);
  return s;
}

AbstractQuery PoliteQuery() {
  return QueryBuilder("sim", "sales")
      .Dim("region")
      .Agg(AggFunc::kSum, "units", "total")
      .Build();
}

// A query the cache has never seen: a distinct filter value per call.
AbstractQuery ColdQuery(int thread_id, int i) {
  return QueryBuilder("sim", "sales")
      .Dim("region")
      .Dim("product")
      .Agg(AggFunc::kSum, "units", "total")
      .FilterIn("product",
                {Value("p" + std::to_string(thread_id) + "_" +
                       std::to_string(i))})
      .Build();
}

TEST(TrafficFrontendTest, LadderServesBoundedStaleThenTypedShed) {
  FrontendOptions fo;
  fo.admission.enabled = true;
  fo.admission.max_global_inflight = 0;  // saturated: nothing admitted
  fo.stale_serve_ms = 10000.0;
  ServingStack s = MakeServingStack(fo, /*fresh_ttl_ms=*/40.0);

  // Warm the cache through the service directly (the frontend would shed).
  auto warm = s.service->ExecuteQuery(PoliteQuery(), {});
  ASSERT_TRUE(warm.ok()) << warm.status();
  SleepMs(80);  // entry ages past the TTL

  ServeReport report;
  auto res = s.frontend->Serve(1, ExecContext(), {PoliteQuery()}, &report);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(report.outcome, ServeOutcome::kStale);
  EXPECT_GT(report.max_age_ms, 40.0);
  EXPECT_LE(report.max_age_ms, 10000.0);
  EXPECT_NE(report.degrade_reason.find("global_inflight"), std::string::npos);
  ASSERT_EQ(res->size(), 1u);
  EXPECT_TRUE(ResultTable::SameUnordered((*res)[0], *warm));

  // A query with no cache answer within the bound sheds, typed.
  ServeReport shed_report;
  auto shed = s.frontend->Serve(1, ExecContext(), {ColdQuery(0, 0)},
                                &shed_report);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed_report.outcome, ServeOutcome::kShed);
  EXPECT_EQ(s.frontend->stats().shed, 1);
  EXPECT_EQ(s.frontend->stats().stale, 1);
  EXPECT_EQ(s.frontend->admission().stats().inflight, 0);

  // The retained shed exemplar (the newest shed, listed first among the
  // sheds) tells its story: the degraded rungs' batch spans nest under
  // frontend.degraded, inside frontend.serve, which carries the ladder's
  // shed breadcrumb.
  std::vector<obs::Exemplar> kept = obs::GlobalExemplars().Snapshot();
  auto shed_ex = std::find_if(kept.begin(), kept.end(),
                              [](const obs::Exemplar& e) { return e.shed; });
  ASSERT_NE(shed_ex, kept.end());
  const obs::RecordedSpan& serve = shed_ex->request.root;
  EXPECT_EQ(serve.name, "frontend.serve");
  EXPECT_NE(serve.Find("batch"), nullptr);
  const obs::RecordedSpan* degraded = serve.Find("frontend.degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_NE(degraded->Find("batch"), nullptr);
  bool saw_shed_event = false;
  for (const obs::RecordedEvent& ev : serve.events) {
    if (ev.category == "frontend" && ev.detail.rfind("shed ", 0) == 0) {
      saw_shed_event = true;
    }
  }
  EXPECT_TRUE(saw_shed_event);
}

TEST(TrafficFrontendTest, FairAdmissionShieldsPoliteSessionFromGreedyLoad) {
  FrontendOptions fo;
  fo.admission.enabled = true;
  fo.admission.fair = true;
  fo.admission.max_global_inflight = 8;
  fo.admission.max_session_inflight = 2;
  fo.stale_serve_ms = 10000.0;
  ServingStack s = MakeServingStack(fo, /*fresh_ttl_ms=*/0.0);

  auto warm = s.service->ExecuteQuery(PoliteQuery(), {});
  ASSERT_TRUE(warm.ok()) << warm.status();

  constexpr int kGreedyThreads = 3;
  constexpr int kGreedyRequests = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> greedy;
  for (int t = 0; t < kGreedyThreads; ++t) {
    greedy.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kGreedyRequests; ++i) {
        ServeReport r;
        (void)s.frontend->Serve(1, ExecContext::WithDeadlineMs(5000),
                                {ColdQuery(t, i)}, &r);
      }
    });
  }

  // The polite session interleaves with the greedy burst: every one of its
  // requests must be admitted (degrade_reason empty => rung 0) because the
  // greedy session can hold at most 2 of the 8 global slots.
  int polite_ok = 0;
  std::atomic<bool> polite_done{false};
  std::thread polite([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 12; ++i) {
      ServeReport r;
      auto res = s.frontend->Serve(2, ExecContext::WithDeadlineMs(5000),
                                   {PoliteQuery()}, &r);
      if (res.ok() && r.degrade_reason.empty()) ++polite_ok;
      SleepMs(5);
    }
    polite_done.store(true);
  });
  go.store(true);
  polite.join();
  for (auto& t : greedy) t.join();
  EXPECT_TRUE(polite_done.load());
  EXPECT_EQ(polite_ok, 12);

  auto stats = s.frontend->admission().stats();
  // The fairness invariant: no session ever held more than its cap.
  EXPECT_LE(stats.peak_session_inflight, 2);
  // The greedy session actually hit the cap (its requests overlap for tens
  // of milliseconds of simulated backend time each).
  EXPECT_GE(stats.degraded_session, 1);
  EXPECT_EQ(stats.inflight, 0) << "admission tickets leaked";

  // Revert-verify at the stack level: with fairness off the same burst
  // drives one session's concurrency past the per-session cap.
  s.frontend->admission().set_fair(false);
  std::atomic<bool> go2{false};
  std::vector<std::thread> unfair;
  for (int t = 0; t < kGreedyThreads; ++t) {
    unfair.emplace_back([&, t] {
      while (!go2.load()) std::this_thread::yield();
      for (int i = 0; i < kGreedyRequests; ++i) {
        ServeReport r;
        (void)s.frontend->Serve(1, ExecContext::WithDeadlineMs(5000),
                                {ColdQuery(100 + t, i)}, &r);
      }
    });
  }
  go2.store(true);
  for (auto& t : unfair) t.join();
  EXPECT_GT(s.frontend->admission().stats().peak_session_inflight, 2);
  EXPECT_EQ(s.frontend->admission().stats().inflight, 0);
}

// Shed-under-cancel stress (the TSan target): cancelled and expired
// requests racing saturated admission must classify cleanly and leak
// nothing — no stuck in-flight tickets, no stranded session queue claims.
TEST(TrafficFrontendTest, ShedUnderCancelLeaksNothing) {
  FrontendOptions fo;
  fo.admission.enabled = true;
  fo.admission.fair = true;
  fo.admission.max_global_inflight = 2;  // heavily saturated
  fo.admission.max_session_inflight = 1;
  fo.stale_serve_ms = 5000.0;
  ServingStack s = MakeServingStack(fo, /*fresh_ttl_ms=*/0.0);
  auto warm = s.service->ExecuteQuery(PoliteQuery(), {});
  ASSERT_TRUE(warm.ok()) << warm.status();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::atomic<int64_t> served{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Rotate patience: already-expired deadlines, deadlines that expire
        // mid-flight, and healthy ones — all racing the admission caps.
        ExecContext ctx = i % 3 == 0   ? ExecContext::WithDeadlineMs(0.01)
                          : i % 3 == 1 ? ExecContext::WithDeadlineMs(8)
                                       : ExecContext::WithDeadlineMs(5000);
        if (i % 3 == 0) SleepMs(1);  // guarantee the deadline is spent
        ServeReport r;
        auto res = s.frontend->Serve(
            static_cast<uint64_t>(t + 1), ctx,
            {i % 2 == 0 ? PoliteQuery() : ColdQuery(t, i)}, &r);
        (res.ok() ? served : failed).fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every request terminated with a classified outcome...
  auto fs = s.frontend->stats();
  EXPECT_EQ(fs.fresh + fs.stale + fs.derived + fs.shed + fs.errors,
            kThreads * kPerThread);
  EXPECT_EQ(served.load() + failed.load(), kThreads * kPerThread);
  // ...and nothing leaked: no in-flight admission tickets, no stranded
  // per-session queue claims in the global scheduler.
  EXPECT_EQ(s.frontend->admission().stats().inflight, 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(Scheduler::Global().session_queued(
                  static_cast<uint64_t>(t + 1)),
              0)
        << "session " << t + 1;
  }
}

}  // namespace
}  // namespace vizq
