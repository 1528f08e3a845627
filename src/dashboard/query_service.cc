#include "src/dashboard/query_service.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/obs/exemplar.h"
#include "src/obs/metrics.h"

namespace vizq::dashboard {

using query::AbstractQuery;

const char* ServedFromToString(ServedFrom s) {
  switch (s) {
    case ServedFrom::kIntelligentCacheExact: return "cache-exact";
    case ServedFrom::kIntelligentCacheDerived: return "cache-derived";
    case ServedFrom::kIntelligentCacheStale: return "cache-stale";
    case ServedFrom::kLocalFromBatch: return "local-from-batch";
    case ServedFrom::kLiteralCache: return "literal-cache";
    case ServedFrom::kRemote: return "remote";
    case ServedFrom::kFailed: return "failed";
  }
  return "?";
}

std::string BatchReport::Summary() const {
  std::string out = "batch: " + std::to_string(queries.size()) + " queries, " +
                    std::to_string(remote_queries) + " remote (" +
                    std::to_string(fused_groups) + " after fusion), " +
                    std::to_string(cache_hits) + " cache hits, " +
                    std::to_string(local_resolved) + " local, " +
                    std::to_string(wall_ms) + " ms";
  return out;
}

QueryService::QueryService(std::shared_ptr<federation::DataSource> source,
                           std::shared_ptr<CacheStack> caches)
    : source_(std::move(source)), caches_(std::move(caches)), pool_(source_) {}

Status QueryService::RegisterView(const query::ViewDefinition& view) {
  if (compilers_.find(view.name) != compilers_.end()) {
    return AlreadyExists("view '" + view.name + "' already registered");
  }
  compilers_.emplace(
      view.name,
      query::QueryCompiler(view, source_->capabilities(), source_->dialect(),
                           &source_->catalog()));
  return OkStatus();
}

Status QueryService::RegisterTableView(const std::string& table_path) {
  query::ViewDefinition view;
  view.name = table_path;
  view.fact_table = table_path;
  return RegisterView(view);
}

void QueryService::SetDomains(const std::string& view,
                              query::ColumnDomains domains) {
  domains_[view] = std::move(domains);
}

const query::QueryCompiler* QueryService::FindCompiler(
    const std::string& view) const {
  auto it = compilers_.find(view);
  return it == compilers_.end() ? nullptr : &it->second;
}

void QueryService::RefreshDataSource() {
  pool_.CloseAll();
  if (caches_ != nullptr) {
    caches_->intelligent.InvalidateDataSource(source_->name());
    caches_->literal.InvalidateDataSource(source_->name());
  }
}

StatusOr<ResultTable> QueryService::ExecuteRemote(const ExecContext& ctx,
                                                  const AbstractQuery& q,
                                                  const BatchOptions& options,
                                                  bool* literal_hit) {
  if (literal_hit != nullptr) *literal_hit = false;
  VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("remote execution"));
  const query::QueryCompiler* compiler = FindCompiler(q.view);
  if (compiler == nullptr) {
    return NotFound("no view registered for '" + q.view + "'");
  }
  const query::ColumnDomains* domains = nullptr;
  auto dit = domains_.find(q.view);
  if (dit != domains_.end()) domains = &dit->second;

  ScopedSpan compile_span(ctx.StartSpan("compile"));
  VIZQ_ASSIGN_OR_RETURN(query::CompiledQuery cq,
                        compiler->Compile(q, options.compiler, domains));

  // When the backend cannot order/limit, the compiled SQL carries neither —
  // several logical queries (different ORDER BY/LIMIT, or none) share that
  // SQL text. The literal cache must therefore store the backend's
  // untruncated result, and local top-n is applied after lookup the same
  // way it is after execution; caching the truncated rows under the
  // orderless key would replay them for the other queries.
  auto apply_local_topn = [&](ResultTable table) -> ResultTable {
    // Breadcrumb: the returned rows are a local truncation of what the
    // engine produced, so a recorder consistency check must not compare
    // the plan's root row count against the result.
    ctx.LogEvent("service", "local-topn view=" + q.view);
    AbstractQuery unlimited = q;
    unlimited.order_by.clear();
    unlimited.limit = 0;
    auto plan = cache::MatchQueries(unlimited, q);
    if (!plan.has_value()) return table;
    auto processed = cache::ApplyMatchPlan(table, *plan, q);
    if (!processed.ok()) return table;
    return *std::move(processed);
  };

  if (options.use_literal_cache && caches_ != nullptr) {
    auto hit = caches_->literal.LookupShared(cq.sql, ctx);
    if (hit != nullptr) {
      if (literal_hit != nullptr) *literal_hit = true;
      ResultTable copy = *hit;  // copy outside the cache's shard lock
      if (cq.requires_local_topn) return apply_local_topn(std::move(copy));
      return copy;
    }
  }
  compile_span.End();

  std::vector<std::string> wanted_temps;
  for (const query::TempTableSpec& t : cq.temp_tables) {
    wanted_temps.push_back(t.name);
  }
  ScopedSpan submit_span(ctx.StartSpan("submit"));
  ExecContext submit_ctx = ctx.WithSpan(submit_span.get());
  VIZQ_ASSIGN_OR_RETURN(federation::PooledConnection conn,
                        pool_.AcquirePreferring(submit_ctx, wanted_temps));
  federation::ExecutionInfo info;
  auto result = conn->Execute(cq, &info, submit_ctx);
  conn.Release();
  submit_span.End();
  if (!result.ok()) return result.status();

  // Cache the untruncated rows (keyed on the SQL actually sent), then apply
  // the local top-n the backend could not.
  if (options.use_literal_cache && caches_ != nullptr) {
    caches_->literal.Put(cq.sql, *result, info.total_ms, source_->name(),
                         ctx);
  }
  if (cq.requires_local_topn) {
    *result = apply_local_topn(*std::move(result));
  }
  return result;
}

StatusOr<ResultTable> QueryService::ExecuteQuery(const ExecContext& ctx,
                                                 const AbstractQuery& q,
                                                 const BatchOptions& options) {
  VIZQ_ASSIGN_OR_RETURN(std::vector<ResultTable> results,
                        ExecuteBatch(ctx, {q}, options, nullptr));
  return std::move(results[0]);
}

StatusOr<std::vector<ResultTable>> QueryService::ExecuteBatch(
    const ExecContext& ctx, const std::vector<AbstractQuery>& batch,
    const BatchOptions& options, BatchReport* report) {
  auto wall_start = std::chrono::steady_clock::now();
  ScopedSpan batch_span(ctx.StartSpan("batch"));
  ExecContext bctx = ctx.WithSpan(batch_span.get());
  int n = static_cast<int>(batch.size());
  std::vector<ResultTable> results(n);
  std::vector<bool> resolved(n, false);
  BatchReport local_report;
  local_report.queries.resize(n);

  // --- 1. intelligent cache ---
  ScopedSpan cache_span(bctx.StartSpan("cache-lookup"));
  std::vector<int> misses;
  {
    PhaseScope cache_phase(bctx.timeline(), Phase::kCacheLookup);
    cache::LookupOptions lookup;
    lookup.max_age_ms = options.max_result_age_ms;
    lookup.exact_only = options.cache_exact_only;
    for (int i = 0; i < n; ++i) {
      if (options.use_intelligent_cache && caches_ != nullptr) {
        auto hit = caches_->intelligent.LookupHit(batch[i], bctx, lookup);
        if (hit.has_value()) {
          results[i] = *hit->table;  // copy outside the cache's shard lock
          resolved[i] = true;
          local_report.queries[i].served_from =
              hit->stale ? ServedFrom::kIntelligentCacheStale
              : hit->exact ? ServedFrom::kIntelligentCacheExact
                           : ServedFrom::kIntelligentCacheDerived;
          local_report.queries[i].age_ms = hit->age_ms;
          ++local_report.cache_hits;
          continue;
        }
        // Cluster-wide tier (§3.2): another node may have answered this
        // exact query already. Skipped on cache_only ladder rungs — those
        // must stay at local-probe cost, and a shed decision should not
        // depend on a simulated network round trip. A shared hit is
        // always-fresh by construction: extracts are immutable between
        // refreshes, and RefreshDataSource/rebalance drop the namespace.
        if (!options.cache_only && caches_->shared != nullptr) {
          auto remote = caches_->shared->Get(cache::SharedKey(batch[i]));
          if (remote.has_value()) {
            auto table = ResultTable::Deserialize(*remote);
            if (table.ok()) {
              caches_->intelligent.Put(batch[i], *table, /*eval_cost_ms=*/1.0,
                                       bctx);
              results[i] = *std::move(table);
              resolved[i] = true;
              local_report.queries[i].served_from =
                  ServedFrom::kIntelligentCacheExact;
              ++local_report.cache_hits;
              bctx.Count("service.shared_hit");
              continue;
            }
          }
        }
      }
      misses.push_back(i);
    }
  }
  cache_span.End();

  // Cache-only mode (the shed ladder's degraded rungs): a miss means this
  // batch cannot be served at probe cost — fail typed, never go remote.
  if (options.cache_only && !misses.empty()) {
    for (int i : misses) {
      local_report.queries[i].served_from = ServedFrom::kFailed;
    }
    bctx.Count("service.cache_only_miss", static_cast<int64_t>(misses.size()));
    batch_span.End();
    if (report != nullptr) *report = std::move(local_report);
    return ResourceExhausted(
        "cache-only batch: " + std::to_string(misses.size()) + " of " +
        std::to_string(n) + " queries missed the cache");
  }

  // --- 2. opportunity graph over the misses ---
  // Stages 2 + 3 are the batch's planning work: one `plan` phase.
  PhaseScope plan_phase(bctx.timeline(), Phase::kPlan);
  ScopedSpan analysis_span(bctx.StartSpan("opportunity-analysis"));
  std::vector<AbstractQuery> pending;
  std::vector<std::string> pending_keys;
  pending.reserve(misses.size());
  pending_keys.reserve(misses.size());
  for (int i : misses) {
    pending.push_back(batch[i]);
    pending_keys.push_back(batch[i].ToKeyString());
  }
  OpportunityGraph graph;
  if (options.analyze_batch && pending.size() > 1) {
    graph = BuildOpportunityGraph(pending);
  } else {
    graph.remote.assign(pending.size(), true);
    graph.predecessor.assign(pending.size(), -1);
    graph.covers.assign(pending.size(), {});
  }
  std::vector<int> remote_nodes;
  for (size_t p = 0; p < pending.size(); ++p) {
    if (graph.remote[p]) remote_nodes.push_back(static_cast<int>(p));
  }
  analysis_span.End();

  // --- 3. fusion over the remote set ---
  ScopedSpan fusion_span(bctx.StartSpan("fusion"));
  std::vector<AbstractQuery> remote_queries;
  remote_queries.reserve(remote_nodes.size());
  for (int p : remote_nodes) remote_queries.push_back(pending[p]);
  std::vector<FusedGroup> groups;
  if (options.fuse_queries && remote_queries.size() > 1) {
    groups = FuseQueries(remote_queries);
  } else {
    for (size_t g = 0; g < remote_queries.size(); ++g) {
      groups.push_back(FusedGroup{remote_queries[g], {static_cast<int>(g)}});
    }
  }
  local_report.fused_groups = static_cast<int>(groups.size());
  local_report.remote_queries = static_cast<int>(groups.size());
  fusion_span.End();
  plan_phase.End();

  // --- 4 + 5. adjust, execute concurrently, resolve as results land ---
  struct GroupOutcome {
    int group = 0;
    Status status;
    AbstractQuery sent;  // adjusted query actually executed
    std::string sent_key;  // sent.ToKeyString()
    ResultTable result;
    bool literal_hit = false;
    double ms = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<GroupOutcome> completed;

  auto run_group = [&](int gi) {
    GroupOutcome outcome;
    outcome.group = gi;
    outcome.sent = cache::AdjustForReuse(groups[gi].fused, options.adjust);
    outcome.sent_key = outcome.sent.ToKeyString();
    auto started = std::chrono::steady_clock::now();
    bool literal_hit = false;
    auto result = ExecuteRemote(bctx, outcome.sent, options, &literal_hit);
    outcome.ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - started)
                     .count();
    outcome.literal_hit = literal_hit;
    if (result.ok()) {
      outcome.result = *std::move(result);
      if (options.use_intelligent_cache && caches_ != nullptr) {
        caches_->intelligent.Put(outcome.sent, outcome.result, outcome.ms,
                                 bctx);
        if (caches_->shared != nullptr) {
          caches_->shared->Put(cache::SharedKey(outcome.sent),
                               outcome.result.Serialize());
        }
      }
    } else {
      outcome.status = result.status();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      completed.push_back(std::move(outcome));
    }
    cv.notify_one();
  };

  // Everything from dispatch to the last resolved result is `execution`
  // on the serving thread; the materialize scopes below carve the local
  // resolution work out of it.
  PhaseScope exec_phase(bctx.timeline(), Phase::kExecution);

  // Remote groups run as scheduler tasks under the batch's priority class;
  // the group's max_concurrency preserves the §3.5 connection-level cap.
  std::unique_ptr<TaskGroup> workers;
  if (options.concurrent && groups.size() > 1) {
    workers = std::make_unique<TaskGroup>(
        &Scheduler::Global(), options.priority, bctx,
        std::min<int>(options.max_parallel_queries,
                      static_cast<int>(groups.size())),
        options.session_id);
    // Work spawned on behalf of a cluster node carries the node identity
    // in the task name, so scheduler introspection (and task dumps under
    // saturation) attribute queued work to the node that owns it.
    std::string task_name = options.node_id.empty()
                                ? "batch-group"
                                : "batch-group@" + options.node_id;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      workers->Spawn([&, gi] { run_group(static_cast<int>(gi)); }, task_name);
    }
  }

  // Successful groups, in completion order: the results available for
  // local resolution.
  std::vector<GroupOutcome> outcomes;
  outcomes.reserve(groups.size());
  Status first_error;

  auto resolve_pending_node = [&](int p, ServedFrom how) -> bool {
    int original = misses[p];
    if (resolved[original]) return true;
    for (const GroupOutcome& source : outcomes) {
      auto plan = cache::MatchQueries(source.sent, source.sent_key,
                                      pending[p], pending_keys[p]);
      if (!plan.has_value()) continue;
      auto processed = cache::ApplyMatchPlan(source.result, *plan, pending[p]);
      if (!processed.ok()) continue;
      results[original] = *std::move(processed);
      resolved[original] = true;
      local_report.queries[original].served_from = how;
      return true;
    }
    return false;
  };

  for (size_t done = 0; done < groups.size(); ++done) {
    GroupOutcome outcome;
    if (workers != nullptr) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !completed.empty(); });
      outcome = std::move(completed.back());
      completed.pop_back();
    } else {
      run_group(static_cast<int>(done));
      outcome = std::move(completed.back());
      completed.pop_back();
    }
    if (!outcome.status.ok()) {
      if (first_error.ok()) first_error = outcome.status;
      continue;
    }
    outcomes.push_back(std::move(outcome));
    const GroupOutcome& kept = outcomes.back();
    if (kept.literal_hit) {
      // Served from the literal cache: nothing actually hit the backend.
      --local_report.remote_queries;
      ++local_report.cache_hits;
    }

    // Resolving members and coverable local nodes is result
    // materialization: match-plan application and result copies.
    PhaseScope mat_phase(bctx.timeline(), Phase::kMaterialize);
    // Resolve this group's members immediately.
    for (int member : groups[kept.group].members) {
      int p = remote_nodes[member];
      bool literal = kept.literal_hit;
      if (!resolve_pending_node(
              p, literal ? ServedFrom::kLiteralCache : ServedFrom::kRemote)) {
        // Should not happen: the fused query covers its members.
        if (first_error.ok()) {
          first_error = Internal("fused result did not cover member query");
        }
      } else {
        local_report.queries[misses[p]].ms = kept.ms;
      }
    }
    // Then any local nodes that are now coverable (§3.3: "the local ones
    // are processed as soon as any of their predecessors in G finishes").
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t p = 0; p < pending.size(); ++p) {
        if (graph.remote[p] || resolved[misses[p]]) continue;
        if (resolve_pending_node(static_cast<int>(p),
                                 ServedFrom::kLocalFromBatch)) {
          ++local_report.local_resolved;
          progress = true;
        }
      }
    }
  }
  if (workers != nullptr) workers->Wait();

  // When the context itself gave out (deadline / cancellation), the batch
  // is over: don't burn more time in the safety net; surface the context's
  // error (every worker has already drained, so pool slots are free).
  Status ctx_status = bctx.CheckContinue("batch");
  if (!ctx_status.ok() && first_error.ok()) first_error = ctx_status;

  // Safety net: anything still unresolved (e.g. a failed group, or a local
  // chain that could not be followed) executes remotely on its own.
  for (int i = 0; i < n && first_error.ok(); ++i) {
    if (resolved[i]) continue;
    bool literal = false;
    AbstractQuery sent = cache::AdjustForReuse(batch[i], options.adjust);
    auto result = ExecuteRemote(bctx, sent, options, &literal);
    if (!result.ok()) {
      local_report.queries[i].served_from = ServedFrom::kFailed;
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    if (options.use_intelligent_cache && caches_ != nullptr) {
      caches_->intelligent.Put(sent, *result, 1.0, bctx);
      if (caches_->shared != nullptr) {
        caches_->shared->Put(cache::SharedKey(sent), result->Serialize());
      }
    }
    PhaseScope mat_phase(bctx.timeline(), Phase::kMaterialize);
    auto plan = cache::MatchQueries(sent, batch[i]);
    if (plan.has_value()) {
      auto processed = cache::ApplyMatchPlan(*result, *plan, batch[i]);
      if (processed.ok()) {
        results[i] = *std::move(processed);
        resolved[i] = true;
        local_report.queries[i].served_from =
            literal ? ServedFrom::kLiteralCache : ServedFrom::kRemote;
        if (literal) {
          ++local_report.cache_hits;
        } else {
          ++local_report.remote_queries;
        }
      }
    }
    if (!resolved[i]) {
      local_report.queries[i].served_from = ServedFrom::kFailed;
      if (first_error.ok()) {
        first_error = Internal("could not resolve batch query " +
                               std::to_string(i));
      }
    }
  }

  exec_phase.End();

  // Served-from tallies mirror the per-query report on the metrics
  // registry (asserted against QueryReport in tests). On a cluster node
  // the same tallies are mirrored under per-node labels, so vizq_stats
  // can break "who served what" down by node.
  for (const QueryReport& qr : local_report.queries) {
    std::string served =
        std::string("service.served.") + ServedFromToString(qr.served_from);
    bctx.Count(served);
    if (!options.node_id.empty()) {
      bctx.Count(obs::Labeled(served, "node", options.node_id));
    }
  }
  bctx.Count("service.batches");
  bctx.Count("service.queries", n);

  local_report.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  bctx.Observe("service.batch.ms", local_report.wall_ms);

  // Always-on tail exemplars: offer the finished batch span to the global
  // store (error paths included — failed batches are the ones worth
  // inspecting). The span is ended first so the captured duration is
  // final. The WouldAdmit gate keeps the fast path to a couple of
  // comparisons; the span-tree copy happens only for requests that make
  // the tail.
  batch_span.End();
  obs::TailExemplarStore& exemplars = obs::GlobalExemplars();
  if (exemplars.WouldAdmit(local_report.wall_ms)) {
    exemplars.Offer(ctx, batch_span.get(),
                    "batch:" + (n > 0 ? batch[0].view : std::string("?")),
                    local_report.wall_ms,
                    first_error.ok() ? "content" : "error", /*shed=*/false);
  }

  if (!first_error.ok()) return first_error;

  if (report != nullptr) *report = std::move(local_report);
  return results;
}

}  // namespace vizq::dashboard
