#include "src/testing/lanes.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/cache/intelligent_cache.h"
#include "src/common/rng.h"
#include "src/federation/data_source.h"
#include "src/federation/simulated_source.h"
#include "src/obs/exemplar.h"
#include "src/testing/reference_oracle.h"

namespace vizq::testing {

namespace {

using dashboard::BatchOptions;
using dashboard::BatchReport;
using dashboard::QueryService;
using dashboard::ServedFrom;
using query::AbstractQuery;
using query::Measure;

// A latency model where every wait rounds to zero: the backend executes
// correctly but imposes no timing, keeping bounded fuzz runs fast.
federation::PerformanceModel InstantModel() {
  federation::PerformanceModel m;
  m.connect_ms = 0;
  m.dispatch_ms = 0;
  m.rows_per_ms = 1e9;
  m.network_rtt_ms = 0;
  m.rows_per_ms_network = 1e9;
  m.temp_table_row_ms = 0;
  m.session_ddl_lock_ms = 0;
  return m;
}

// A model slow enough that single-digit-millisecond deadlines interrupt
// queries at every stage (connect, admission, work, transfer).
federation::PerformanceModel SlowModel() {
  federation::PerformanceModel m;
  m.connect_ms = 1.0;
  m.dispatch_ms = 0.5;
  m.rows_per_ms = 50.0;
  m.network_rtt_ms = 0.5;
  m.rows_per_ms_network = 500.0;
  return m;
}

std::unique_ptr<QueryService> MakeService(
    std::shared_ptr<federation::DataSource> source,
    std::shared_ptr<dashboard::CacheStack> caches, const std::string& table) {
  auto service = std::make_unique<QueryService>(std::move(source),
                                                std::move(caches));
  (void)service->RegisterTableView(table);
  return service;
}

// stale_shed lane bounds. The TTL is microseconds so every cache answer is
// already past freshness by the time the saturated frontend probes it (no
// sleeps needed in a bounded fuzz run); the serve bound is generous enough
// that in-run entries never age out of it.
constexpr double kStaleShedTtlMs = 0.05;
constexpr double kStaleShedBoundMs = 10000.0;

// Cluster-lane view names: the fuzz table published three times so one
// iteration batch scatters across all three nodes.
constexpr int kClusterViews = 3;
std::string ClusterViewName(int i) { return "clv" + std::to_string(i); }

// The error codes a clustered batch may legitimately answer while a node
// is down: exhausted retries, a lapsed deadline, or the kill itself.
bool IsTypedClusterError(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded || code == StatusCode::kAborted;
}

// True when some span in `span`'s subtree logged a breadcrumb whose detail
// starts with `prefix`.
bool HasEventWithPrefix(const obs::RecordedSpan& span,
                        const std::string& prefix) {
  for (const obs::RecordedEvent& e : span.events) {
    if (e.detail.rfind(prefix, 0) == 0) return true;
  }
  for (const obs::RecordedSpan& child : span.children) {
    if (HasEventWithPrefix(child, prefix)) return true;
  }
  return false;
}

}  // namespace

AbstractQuery GeneralizeForDerivedHit(const AbstractQuery& q,
                                      const Dataset& ds) {
  AbstractQuery g = q;
  g.order_by.clear();
  g.limit = 0;
  g.filters.predicates.clear();

  auto add_dim = [&](const std::string& column) {
    for (const std::string& d : g.dimensions) {
      if (d == column) return;
    }
    g.dimensions.push_back(column);
  };
  // Residual filtering is only possible over grouped columns.
  for (const query::ColumnPredicate& p : q.filters.predicates) {
    add_dim(p.column);
  }
  // COUNTD derives from a stored dimension.
  for (const Measure& m : q.measures) {
    if (m.func == AggFunc::kCountDistinct) add_dim(m.column);
  }
  // One extra unused dimension (when the schema has one) forces the hit
  // through the roll-up path.
  for (const std::string& d : ds.dim_columns) {
    bool used = false;
    for (const std::string& have : g.dimensions) {
      if (have == d) used = true;
    }
    if (!used) {
      g.dimensions.push_back(d);
      break;
    }
  }

  std::vector<Measure> measures;
  std::set<std::string> seen;
  auto add_measure = [&](Measure m) {
    m.alias.clear();  // canonical alias; matching is by (func, column)
    if (seen.insert(m.ToKeyString()).second) measures.push_back(std::move(m));
  };
  for (const Measure& m : q.measures) {
    if (m.func == AggFunc::kAvg) {
      // Stored as a re-aggregable SUM + COUNT pair.
      add_measure(Measure{AggFunc::kSum, m.column, ""});
      add_measure(Measure{AggFunc::kCount, m.column, ""});
    } else {
      add_measure(m);
    }
  }
  add_measure(Measure{AggFunc::kCountStar, "", ""});
  g.measures = std::move(measures);
  g.Canonicalize();
  return g;
}

ExecutionLanes::ExecutionLanes(Dataset dataset, LaneSetupOptions options)
    : dataset_(std::move(dataset)), options_(options) {
  table_ = *dataset_.db->GetTable(dataset_.table);

  truth_opts_.use_intelligent_cache = false;
  truth_opts_.use_literal_cache = false;
  truth_opts_.analyze_batch = false;
  truth_opts_.fuse_queries = false;
  truth_opts_.concurrent = false;
  truth_opts_.adjust.decompose_avg = false;
  truth_opts_.adjust.add_filter_dimensions = false;

  auto tde_source = [&] {
    return std::make_shared<federation::TdeDataSource>(
        kFuzzDataSource, dataset_.db, tde::QueryOptions::Serial());
  };
  truth_service_ = MakeService(tde_source(), nullptr, dataset_.table);

  // Morsel-parallel lane: force parallel plans even on the fuzzer's small
  // tables (tiny per-fraction minimum, tiny morsels) so Exchange producers
  // run as scheduler tasks racing over a shared morsel queue.
  tde::QueryOptions morsel_opts;
  morsel_opts.parallel.enable_parallel = true;
  morsel_opts.parallel.max_dop = 3;
  morsel_opts.parallel.min_rows_per_fraction = 1;
  morsel_opts.parallel.enable_morsel = true;
  morsel_opts.parallel.morsel_rows = 7;
  morsel_service_ = MakeService(
      std::make_shared<federation::TdeDataSource>(kFuzzDataSource, dataset_.db,
                                                  morsel_opts),
      nullptr, dataset_.table);
  // Forced-plain twin: same rows, every column kForcePlain, so the diff
  // against the oracle (which reads the kAuto-encoded table) isolates the
  // encoded execution path.
  if (dataset_.db_plain != nullptr) {
    plain_service_ = MakeService(
        std::make_shared<federation::TdeDataSource>(
            kFuzzDataSource, dataset_.db_plain, tde::QueryOptions::Serial()),
        nullptr, dataset_.table);
  }
  literal_service_ = MakeService(
      tde_source(), std::make_shared<dashboard::CacheStack>(), dataset_.table);
  batch_service_ = MakeService(
      tde_source(), std::make_shared<dashboard::CacheStack>(), dataset_.table);

  if (options_.include_federated) {
    auto mssql = std::make_shared<federation::SimulatedDataSource>(
        kFuzzDataSource, dataset_.db, InstantModel(),
        query::Capabilities::SingleThreadedSql(), query::SqlDialect::MssqlLike());
    fed_mssql_ = MakeService(std::move(mssql),
                             std::make_shared<dashboard::CacheStack>(),
                             dataset_.table);
    // Legacy driver: no temp tables, no top-n — but with the IN-list cap
    // lifted so large enumerations stay inline instead of erroring.
    query::Capabilities legacy = query::Capabilities::LegacyFileDriver();
    legacy.max_in_list = 100000;
    auto legacy_src = std::make_shared<federation::SimulatedDataSource>(
        kFuzzDataSource, dataset_.db, InstantModel(), legacy,
        query::SqlDialect::MysqlLike());
    fed_legacy_ = MakeService(std::move(legacy_src),
                              std::make_shared<dashboard::CacheStack>(),
                              dataset_.table);
  }
  if (options_.deadline_lane) {
    auto slow = std::make_shared<federation::SimulatedDataSource>(
        kFuzzDataSource, dataset_.db, SlowModel(),
        query::Capabilities::SingleThreadedSql(), query::SqlDialect::Ansi());
    deadline_service_ = MakeService(std::move(slow), nullptr, dataset_.table);
  }
  if (options_.stale_shed_lane) {
    cache::IntelligentCacheOptions iopts;
    iopts.fresh_ttl_ms = kStaleShedTtlMs;
    stale_service_ = MakeService(
        tde_source(), std::make_shared<dashboard::CacheStack>(iopts),
        dataset_.table);
    server::FrontendOptions fo;
    fo.admission.enabled = true;
    fo.admission.max_global_inflight = 0;  // injected overload: admit nothing
    fo.stale_serve_ms = kStaleShedBoundMs;
    stale_frontend_ =
        std::make_unique<server::Frontend>(stale_service_.get(), fo);
  }
  if (options_.cluster_lane) {
    cluster::ClusterOptions copts;
    copts.num_nodes = 3;
    copts.transport.net.simulate_latency = false;
    copts.shared_tier.net.simulate_latency = false;
    copts.retry.initial_backoff_ms = 0.0;  // bounded runs need no sleeps
    cluster_ = std::make_unique<cluster::ClusterCoordinator>(copts);
    for (int i = 0; i < kClusterViews; ++i) {
      cluster::SourceSpec spec;
      spec.view.name = ClusterViewName(i);
      spec.view.fact_table = dataset_.table;
      spec.backend = tde_source();
      (void)cluster_->Publish(spec);
    }
  }
}

StatusOr<OraclePair> ExecutionLanes::OracleFor(const AbstractQuery& q) {
  std::string key = q.ToKeyString();
  auto it = oracle_memo_.find(key);
  if (it != oracle_memo_.end()) return it->second;
  OraclePair pair;
  VIZQ_ASSIGN_OR_RETURN(pair.limited, OracleExecute(*table_, q));
  AbstractQuery unlimited = q;
  unlimited.order_by.clear();
  unlimited.limit = 0;
  VIZQ_ASSIGN_OR_RETURN(pair.unlimited, OracleExecute(*table_, unlimited));
  oracle_memo_.emplace(std::move(key), pair);
  return pair;
}

StatusOr<ResultTable> ExecutionLanes::ExecuteTruth(const AbstractQuery& q) {
  return truth_service_->ExecuteQuery(q, truth_opts_);
}

void ExecutionLanes::Check(const std::string& lane, const AbstractQuery& q,
                           const StatusOr<ResultTable>& result,
                           std::vector<LaneCheck>* out) {
  ++checks_run_;
  std::string key = q.ToKeyString();
  if (!result.ok()) {
    out->push_back(LaneCheck{lane, false,
                             "execution failed: " + result.status().ToString(),
                             key});
    return;
  }
  auto oracle = OracleFor(q);
  if (!oracle.ok()) {
    out->push_back(LaneCheck{lane, false,
                             "oracle failed: " + oracle.status().ToString(),
                             key});
    return;
  }
  DiffResult diff = DiffForQuery(oracle->limited, oracle->unlimited, *result,
                                 q, options_.diff);
  out->push_back(LaneCheck{lane, diff.equivalent, diff.message, key});
}

void ExecutionLanes::ProbeCrowdedBucket(const AbstractQuery& q, bool must_hit,
                                        std::vector<LaneCheck>* out) {
  // Brute force: the full proof against every stored entry. Entries of
  // other buckets fail with kNoCandidate, the floor for an empty bucket.
  std::vector<cache::IntelligentCache::Snapshot> entries =
      crowded_cache_.TakeSnapshot();
  bool any_match = false;
  cache::MissReason nearest = cache::MissReason::kNoCandidate;
  for (const cache::IntelligentCache::Snapshot& s : entries) {
    cache::MissReason reason = cache::MissReason::kNone;
    if (cache::MatchQueries(s.descriptor, q, &reason).has_value()) {
      any_match = true;
    } else {
      nearest = std::max(nearest, reason);
    }
  }

  cache::CacheStats before = crowded_cache_.stats();
  auto hit = crowded_cache_.LookupHit(q);
  cache::CacheStats after = crowded_cache_.stats();
  std::string where = " (" + std::to_string(entries.size()) + " entries)";
  std::string problem;
  if (hit.has_value() != any_match) {
    problem = hit.has_value() ? "hit although no entry matches"
                              : "missed although an entry matches";
  } else if (!hit.has_value()) {
    bool as_nearest = true;
    std::string moved;
    for (int r = 0; r < cache::kNumMissReasons; ++r) {
      int64_t delta = after.miss_reasons[r] - before.miss_reasons[r];
      if (delta != (r == static_cast<int>(nearest) ? 1 : 0)) as_nearest = false;
      if (delta != 0) {
        moved += std::string(" ") +
                 cache::MissReasonToString(static_cast<cache::MissReason>(r)) +
                 "+" + std::to_string(delta);
      }
    }
    if (!as_nearest) {
      problem = "miss counted as" + moved + "; the nearest reason is " +
                cache::MissReasonToString(nearest);
    }
  }
  if (problem.empty() && must_hit && !hit.has_value()) {
    problem = "missed after the query's generalization was stored";
  }
  if (!problem.empty()) {
    ++checks_run_;
    out->push_back(
        LaneCheck{"crowded_bucket", false, problem + where, q.ToKeyString()});
  } else if (hit.has_value()) {
    Check("crowded_bucket", q, ResultTable(*hit->table), out);
  } else {
    ++checks_run_;
    out->push_back(LaneCheck{"crowded_bucket", true, "", q.ToKeyString()});
  }
}

std::vector<LaneCheck> ExecutionLanes::RunQuery(const AbstractQuery& q,
                                                uint64_t lane_seed) {
  std::vector<LaneCheck> out;
  Rng rng(HashCombine(lane_seed, 0x1a7e5));

  // --- plain engine ---
  StatusOr<ResultTable> direct = ExecuteTruth(q);
  Check("tde_direct", q, direct, &out);

  // --- morsel-parallel engine vs the serial oracle ---
  Check("morsel_parallel", q, morsel_service_->ExecuteQuery(q, truth_opts_),
        &out);

  // --- forced-plain encoding twin vs the serial oracle ---
  if (plain_service_ != nullptr) {
    Check("plain_encoding", q, plain_service_->ExecuteQuery(q, truth_opts_),
          &out);
  }

  // --- recorder consistency: a traced execution must leave a coherent
  // span tree (observability is differentially tested too) ---
  {
    ExecContext rctx;  // spans, breadcrumbs, attributes and timeline
    StatusOr<ResultTable> traced =
        truth_service_->ExecuteQuery(rctx, q, truth_opts_);
    ++checks_run_;
    if (!traced.ok()) {
      out.push_back(LaneCheck{"recorder", false,
                              "traced execution failed: " +
                                  traced.status().ToString(),
                              q.ToKeyString()});
    } else {
      const Span& root = *rctx.trace()->root();
      obs::RecordedRequest entry =
          obs::CaptureRequest(root, "recorder", root.start_time());
      const obs::RecordedSpan* batch = entry.root.Find("batch");
      std::string problem;
      if (batch == nullptr) {
        problem = "traced context has no batch span";
      } else {
        // Root-operator rows-out must equal the rows the caller got back,
        // unless the service applied order/limit locally after the engine
        // (the "local-topn" breadcrumb marks that).
        bool local_topn = HasEventWithPrefix(*batch, "local-topn");
        const obs::RecordedSpan* run = batch->Find("tde:run");
        if (run == nullptr ||
            run->attributes.count("tde.analyze.root_rows") == 0) {
          problem = "batch span lacks a tde:run span with a "
                    "tde.analyze.root_rows attribute";
        } else {
          const std::string& rows =
              run->attributes.at("tde.analyze.root_rows");
          if (!local_topn && rows != std::to_string(traced->num_rows())) {
            problem = "root operator rows-out " + rows + " != result rows " +
                      std::to_string(traced->num_rows());
          }
        }
      }
      out.push_back(
          LaneCheck{"recorder", problem.empty(), problem, q.ToKeyString()});

      // The request's PhaseTimeline must stay coherent with the batch
      // span: no negative phase, and the attributed (root-phase) sum
      // within tolerance of the span's wall time — neither wildly over
      // (double counting) nor under half of it (a serving layer lost its
      // scope). Detail phases are additive and excluded by attributed_ns.
      ++checks_run_;
      std::string tl_problem;
      const PhaseTimeline* tl = rctx.timeline();
      if (tl == nullptr) {
        tl_problem = "traced context carries no timeline";
      } else if (batch == nullptr) {
        tl_problem = "traced context has no batch span";
      } else {
        for (int p = 0; p < kNumPhases; ++p) {
          if (tl->phase_ns(static_cast<Phase>(p)) < 0) {
            tl_problem = std::string("negative phase duration: ") +
                         PhaseName(static_cast<Phase>(p));
          }
        }
        double span_ms = batch->duration_us / 1000.0;
        double attr_ms = tl->attributed_ms();
        if (tl_problem.empty() && attr_ms > span_ms * 1.10 + 1.0) {
          tl_problem = "attributed " + std::to_string(attr_ms) +
                       "ms overshoots batch span " + std::to_string(span_ms) +
                       "ms";
        }
        // The under-attribution slack must absorb scheduler preemption:
        // on a loaded host a sub-5ms request can be descheduled between
        // phase scopes, inflating the wall span while every phase keeps
        // its scope. A genuinely lost serving-layer scope still trips
        // this once the span is large enough to amortize that noise.
        constexpr double kSchedSlackMs = 5.0;
        if (tl_problem.empty() && attr_ms < span_ms * 0.5 - kSchedSlackMs) {
          tl_problem = "attributed " + std::to_string(attr_ms) +
                       "ms is under half the batch span " +
                       std::to_string(span_ms) + "ms";
        }
      }
      out.push_back(LaneCheck{"recorder_timeline", tl_problem.empty(),
                              tl_problem, q.ToKeyString()});
    }
  }

  // --- fuzzer self-test: a bumped aggregate cell must be flagged ---
  if (options_.inject_offby_one && direct.ok()) {
    ResultTable bumped = *direct;
    bool did = false;
    for (int64_t r = 0; r < bumped.num_rows() && !did; ++r) {
      for (int c = static_cast<int>(q.dimensions.size());
           c < bumped.num_columns() && !did; ++c) {
        const Value& v = bumped.at(r, c);
        if (v.is_null()) continue;
        ResultTable::Row row = bumped.row(r);
        if (v.is_int()) {
          row[c] = Value(v.int_value() + 1);
        } else if (v.is_double()) {
          row[c] = Value(v.double_value() + 1.0);
        } else {
          continue;
        }
        ResultTable replaced(std::vector<ResultColumn>(bumped.columns()));
        for (int64_t i = 0; i < bumped.num_rows(); ++i) {
          replaced.AddRow(i == r ? row : bumped.row(i));
        }
        bumped = std::move(replaced);
        did = true;
      }
    }
    if (did) Check("injected_offby_one", q, bumped, &out);
  }

  // --- intelligent-cache derived hit, in a fresh cache and in the
  // dataset's crowded one ---
  {
    ProbeCrowdedBucket(q, /*must_hit=*/false, &out);
    AbstractQuery g = GeneralizeForDerivedHit(q, dataset_);
    StatusOr<ResultTable> stored = ExecuteTruth(g);
    if (!stored.ok()) {
      out.push_back(LaneCheck{"derived_hit", false,
                              "generalized store failed: " +
                                  stored.status().ToString(),
                              q.ToKeyString()});
    } else {
      cache::IntelligentCache cache;
      cache.Put(g, *stored, 100.0);
      auto hit = cache.LookupHit(q);
      if (!hit.has_value()) {
        out.push_back(LaneCheck{
            "derived_hit", false,
            "no cache hit for query generalized as " + g.ToKeyString(),
            q.ToKeyString()});
      } else {
        Check("derived_hit", q, ResultTable(*hit->table), &out);
      }
      crowded_cache_.Put(g, *stored, 100.0);
      // Stored top-n entries only serve their own key; keep some around.
      if (q.has_limit() && direct.ok()) crowded_cache_.Put(q, *direct, 100.0);
      ProbeCrowdedBucket(q, /*must_hit=*/true, &out);
    }
  }

  // --- literal cache: miss, then replay ---
  {
    BatchOptions opts = truth_opts_;
    opts.use_literal_cache = true;
    opts.adjust.decompose_avg = true;
    BatchReport first_report, replay_report;
    auto first = literal_service_->ExecuteBatch({q}, opts, &first_report);
    Check("literal_first", q,
          first.ok() ? StatusOr<ResultTable>((*first)[0])
                     : StatusOr<ResultTable>(first.status()),
          &out);
    auto replay = literal_service_->ExecuteBatch({q}, opts, &replay_report);
    Check("literal_replay", q,
          replay.ok() ? StatusOr<ResultTable>((*replay)[0])
                      : StatusOr<ResultTable>(replay.status()),
          &out);
    if (replay.ok() &&
        replay_report.queries[0].served_from != ServedFrom::kLiteralCache) {
      out.push_back(LaneCheck{
          "literal_replay", false,
          std::string("expected literal-cache hit on replay, served from ") +
              dashboard::ServedFromToString(
                  replay_report.queries[0].served_from),
          q.ToKeyString()});
    }
  }

  // --- federated backends ---
  if (fed_mssql_ != nullptr) {
    BatchOptions opts = truth_opts_;
    opts.use_literal_cache = true;
    opts.compiler.externalize_threshold = 16;
    Check("fed_mssql", q, fed_mssql_->ExecuteQuery(q, opts), &out);
  }
  if (fed_legacy_ != nullptr) {
    BatchOptions opts = truth_opts_;
    opts.use_literal_cache = true;
    Check("fed_legacy", q, fed_legacy_->ExecuteQuery(q, opts), &out);
  }

  // --- deadline: either a correct table or a clean deadline error ---
  if (deadline_service_ != nullptr) {
    static const double kBudgetsMs[] = {0.0, 1.0, 2.0, 5.0, 10.0};
    double budget = kBudgetsMs[rng.Below(5)];
    ExecContext ctx = ExecContext::WithDeadlineMs(budget);
    auto result = deadline_service_->ExecuteQuery(ctx, q, truth_opts_);
    ++checks_run_;
    if (result.ok()) {
      auto oracle = OracleFor(q);
      if (!oracle.ok()) {
        out.push_back(LaneCheck{"deadline", false,
                                "oracle failed: " + oracle.status().ToString(),
                                q.ToKeyString()});
      } else {
        DiffResult diff = DiffForQuery(oracle->limited, oracle->unlimited,
                                       *result, q, options_.diff);
        if (!diff.equivalent) {
          out.push_back(LaneCheck{
              "deadline", false,
              "ok status with wrong rows under deadline: " + diff.message,
              q.ToKeyString()});
        } else {
          out.push_back(LaneCheck{"deadline", true, "", q.ToKeyString()});
        }
      }
    } else if (result.status().code() != StatusCode::kDeadlineExceeded &&
               result.status().code() != StatusCode::kAborted) {
      out.push_back(LaneCheck{
          "deadline", false,
          "unexpected error under deadline: " + result.status().ToString(),
          q.ToKeyString()});
    } else {
      out.push_back(LaneCheck{"deadline", true, "", q.ToKeyString()});
    }
  }

  // --- stale_shed: under injected overload (nothing admitted) every
  // response must be exact-correct, correctly-labeled stale within the
  // serve bound, or a typed shed ---
  if (stale_frontend_ != nullptr) {
    // Steer rung coverage: warm the exact query (stale-exact rung), a
    // generalized superset (derived rung), or nothing (shed path). The
    // cache persists across the dataset's queries, so the unwarmed case
    // may still find an answer — any rung is acceptable as long as the
    // response obeys the contract.
    uint64_t variant = rng.Below(3);
    bool warmed_exact = false;
    if (variant == 0) {
      warmed_exact = stale_service_->ExecuteQuery(q, BatchOptions{}).ok();
    } else if (variant == 1) {
      AbstractQuery g = GeneralizeForDerivedHit(q, dataset_);
      (void)stale_service_->ExecuteQuery(g, BatchOptions{});
    }
    // Overload races spent deadlines too: the response must still be
    // typed, never a partial-but-OK table.
    bool expired = rng.Chance(0.15);
    ExecContext ctx =
        expired ? ExecContext::WithDeadlineMs(0.0) : ExecContext::Background();
    server::ServeReport report;
    auto served = stale_frontend_->Serve(1, ctx, {q}, &report);
    if (served.ok()) {
      std::string problem;
      if (report.outcome == server::ServeOutcome::kShed ||
          report.outcome == server::ServeOutcome::kError) {
        problem = std::string("ok result reported as ") +
                  server::ServeOutcomeName(report.outcome);
      } else if (report.max_age_ms > kStaleShedBoundMs) {
        problem = "served age " + std::to_string(report.max_age_ms) +
                  "ms exceeds the " + std::to_string(kStaleShedBoundMs) +
                  "ms serve bound";
      } else if (report.outcome == server::ServeOutcome::kStale &&
                 !(report.max_age_ms > 0)) {
        problem = "stale outcome without an age label";
      }
      if (!problem.empty()) {
        ++checks_run_;
        out.push_back(
            LaneCheck{"stale_shed", false, problem, q.ToKeyString()});
      } else {
        Check("stale_shed", q, StatusOr<ResultTable>((*served)[0]), &out);
      }
    } else {
      ++checks_run_;
      if (served.status().code() != StatusCode::kResourceExhausted) {
        out.push_back(LaneCheck{"stale_shed", false,
                                "overload failure not a typed shed: " +
                                    served.status().ToString(),
                                q.ToKeyString()});
      } else if (warmed_exact && !expired) {
        out.push_back(LaneCheck{
            "stale_shed", false,
            "shed despite a warm in-bound exact cache answer",
            q.ToKeyString()});
      } else {
        out.push_back(LaneCheck{"stale_shed", true, "", q.ToKeyString()});
      }
    }
  }

  return out;
}

std::vector<LaneCheck> ExecutionLanes::RunBatch(
    const std::vector<AbstractQuery>& batch, uint64_t lane_seed) {
  std::vector<LaneCheck> out;
  if (batch.empty()) return out;

  BatchOptions fused;  // defaults: everything on
  fused.adjust.add_filter_dimensions = true;
  BatchReport report;
  auto results = batch_service_->ExecuteBatch(batch, fused, &report);
  if (!results.ok()) {
    ++checks_run_;
    out.push_back(LaneCheck{"batch_fused", false,
                            "batch failed: " + results.status().ToString(),
                            batch[0].ToKeyString()});
  } else {
    for (size_t i = 0; i < batch.size(); ++i) {
      Check("batch_fused", batch[i], (*results)[i], &out);
    }
  }

  BatchOptions unfused = truth_opts_;
  unfused.concurrent = true;
  unfused.max_parallel_queries = 4;
  auto serial = truth_service_->ExecuteBatch(batch, unfused, nullptr);
  if (!serial.ok()) {
    ++checks_run_;
    out.push_back(LaneCheck{"batch_unfused", false,
                            "batch failed: " + serial.status().ToString(),
                            batch[0].ToKeyString()});
  } else {
    for (size_t i = 0; i < batch.size(); ++i) {
      Check("batch_unfused", batch[i], (*serial)[i], &out);
    }
  }

  // --- cluster_batch: the batch scattered across the 3-node simulated
  // Data Server. Variant 0 runs the healthy cluster and must be exactly
  // right. Variant 1 kills an owning node first: the retrying channel's
  // failover must still produce correct answers or a typed error, never
  // silent partials. Variant 2 additionally revives the node, so the
  // administrative rebalance (ownership moves + shared-tier namespace
  // invalidation) runs before a final must-be-correct pass.
  if (cluster_ != nullptr) {
    std::vector<AbstractQuery> cbatch = batch;
    for (size_t i = 0; i < cbatch.size(); ++i) {
      cbatch[i].view = ClusterViewName(static_cast<int>(i) % kClusterViews);
    }
    Rng rng(HashCombine(lane_seed, 0xC1057E5ULL));
    const int variant = rng.Below(3);
    std::string victim;
    if (variant >= 1) {
      victim = cluster_->OwnerOf(ClusterViewName(rng.Below(kClusterViews)));
      if (!victim.empty()) cluster_->KillNode(victim);
    }

    auto check_pass = [&](const StatusOr<std::vector<ResultTable>>& results,
                          bool faults_possible, const char* when) {
      ++checks_run_;
      if (!results.ok()) {
        if (faults_possible && IsTypedClusterError(results.status().code())) {
          out.push_back(
              LaneCheck{"cluster_batch", true, "", batch[0].ToKeyString()});
        } else {
          out.push_back(LaneCheck{
              "cluster_batch", false,
              std::string(when) + ": " + results.status().ToString(),
              batch[0].ToKeyString()});
        }
        return;
      }
      if (results->size() != batch.size()) {
        out.push_back(LaneCheck{"cluster_batch", false,
                                std::string(when) + ": partial gather (" +
                                    std::to_string(results->size()) + "/" +
                                    std::to_string(batch.size()) + ")",
                                batch[0].ToKeyString()});
        return;
      }
      // Diff against the ORIGINAL queries' oracle: the rewritten view
      // names change routing, not semantics (same fact table).
      for (size_t i = 0; i < batch.size(); ++i) {
        Check("cluster_batch", batch[i], (*results)[i], &out);
      }
    };

    check_pass(cluster_->ExecuteBatch(cbatch), variant >= 1,
               variant >= 1 ? "after node kill" : "healthy cluster");
    if (variant == 2 && !victim.empty()) {
      cluster_->ReviveNode(victim);
      victim.clear();
      check_pass(cluster_->ExecuteBatch(cbatch), false, "after revive");
    }
    // Restore full membership for the next iteration either way.
    if (!victim.empty()) cluster_->ReviveNode(victim);
  }
  return out;
}

}  // namespace vizq::testing
