// vizq_stats: runs the paper's FAA dashboard workload through the full
// stack (QueryService + caches + connection pool + simulated warehouse
// backend) with observability enabled, then dumps what the obs/ layer
// collected:
//
//   * the global MetricsRegistry snapshot (Prometheus text, or JSON with
//     --json) — cache, pool, service and per-operator histograms;
//   * the slowest-N requests the tail-exemplar store retained, with their
//     span trees and breadcrumbs;
//   * every retained exemplar with its phase timeline, and (--trace-out
//     FILE) all of them as Chrome trace-event JSON, loadable in
//     chrome://tracing / Perfetto;
//   * per-plan-shape latency profiles (signature, count, p50/p95/p99);
//   * the operator-level EXPLAIN ANALYZE plans of three probe queries,
//     read from their tde:run spans' attributes.
//
// --selftest runs the same workload and asserts the acceptance criteria
// (plausible p50<=p95<=p99 in cache/pool/operator histograms, schema-valid
// Chrome trace, root rows-out == returned rows, retained tail exemplars
// with a valid trace, non-empty monotone plan profiles, the encoded path
// and aggregation below the carriers join in the probes), exiting non-zero
// on any violation; CI runs it on every Release build.
//
// --cluster N routes the dashboard workload through an N-node sharded
// Data Server (cluster/coordinator.h) instead of the single-node service,
// so the Prometheus dump carries the per-node series — e.g.
//   vizq_rpc_node_batches{node="n1"} 7
//   vizq_rpc_node_ms{node="n1"} ...
// — showing which node did the work. The EXPLAIN ANALYZE probes stay on a
// direct service (plans are a node-local artifact), and --selftest always
// runs single-node.
//
//   ./build/tools/vizq_stats [--flights N] [--seed S] [--slow-n N]
//                            [--json] [--cluster N] [--trace-out FILE]
//                            [--selftest]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/dashboard/renderer.h"
#include "src/federation/simulated_source.h"
#include "src/obs/exemplar.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/plan_profile.h"
#include "src/query/abstract_query.h"
#include "src/workload/faa_generator.h"
#include "src/workload/flights_dashboards.h"

using namespace vizq;

namespace {

struct ToolOptions {
  int64_t flights = 20000;
  uint64_t seed = 2015;
  int slow_n = 3;
  bool json = false;
  bool selftest = false;
  int cluster_nodes = 0;  // 0 = single-node service
  std::string trace_out;
};

// What one workload run leaves behind for printing / asserting.
struct WorkloadResult {
  std::string plan_text;       // annotated EXPLAIN ANALYZE of the probe
  std::string plan_root_rows;  // "tde.analyze.root_rows" attribute
  int64_t probe_rows = 0;      // rows the probe actually returned
  // Second probe (carrier x dest_state): grouping not satisfied by the
  // table sort, so the encoded Scan->Aggregate path must claim it.
  std::string encoded_plan_text;
  int64_t encoded_probe_rows = 0;
  // Third probe (airline_name x dep_hour over the carriers join): the
  // aggregate splits around the join, its partial dense over the scan.
  std::string join_plan_text;
  int64_t join_probe_rows = 0;
  int64_t queries_run = 0;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "vizq_stats: %s\n", message.c_str());
  return 1;
}

// The attributes of the tde:run span in `ctx`'s trace (empty when the
// request never reached the engine).
std::map<std::string, std::string> RunAttributes(const ExecContext& ctx) {
  const Span& root = *ctx.trace()->root();
  obs::RecordedRequest r =
      obs::CaptureRequest(root, "probe", root.start_time());
  const obs::RecordedSpan* run = r.root.Find("tde:run");
  return run == nullptr ? std::map<std::string, std::string>()
                        : run->attributes;
}

StatusOr<WorkloadResult> RunWorkload(const ToolOptions& opt) {
  WorkloadResult out;

  workload::FaaOptions faa;
  faa.num_flights = opt.flights;
  faa.seed = opt.seed;
  VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<tde::Database> db,
                        workload::GenerateFaaDatabase(faa));

  // A parallel-warehouse backend: realistic connect/dispatch/transfer
  // latencies so the histograms have something to say, fast enough that
  // the selftest stays in CI budget.
  auto source = federation::SimulatedDataSource::ParallelWarehouse("faa", db);
  auto caches = std::make_shared<dashboard::CacheStack>();
  dashboard::QueryService service(source, caches);
  VIZQ_RETURN_IF_ERROR(service.RegisterView(workload::FlightsStarView()));

  dashboard::BatchOptions options;
  options.adjust.add_filter_dimensions = true;

  // --cluster N: the renderer talks to an N-node scatter/gather
  // coordinator hosting the flights view, so the registry picks up the
  // node-labeled rpc series. The direct `service` stays around for the
  // EXPLAIN ANALYZE probes below.
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  dashboard::BatchExecutor* executor = &service;
  if (opt.cluster_nodes > 0) {
    cluster::ClusterOptions copts;
    copts.num_nodes = opt.cluster_nodes;
    coordinator = std::make_unique<cluster::ClusterCoordinator>(copts);
    cluster::SourceSpec spec;
    spec.view = workload::FlightsStarView();
    spec.backend = source;
    VIZQ_RETURN_IF_ERROR(coordinator->Publish(spec));
    // Shard aliases of the same star view: the dashboards only ever hit
    // the one published view (one owner), so a per-alias batch below
    // spreads traffic across the ring and lights up every node's series.
    for (int s = 0; s < 2 * opt.cluster_nodes; ++s) {
      cluster::SourceSpec alias = spec;
      alias.view.name = spec.view.name + "_shard" + std::to_string(s);
      VIZQ_RETURN_IF_ERROR(coordinator->Publish(alias));
    }
    executor = coordinator.get();
  }
  dashboard::DashboardRenderer renderer(executor);

  // Figure 1: cold load, a map selection, then a warm re-render (cache
  // exact/derived hits). Each render gets its own traced context, and each
  // dashboard batch is offered to the tail-exemplar store.
  dashboard::Dashboard fig1 = workload::BuildFigure1Dashboard("faa");
  {
    dashboard::InteractionState state;
    ExecContext ctx;
    VIZQ_ASSIGN_OR_RETURN(dashboard::RenderReport load,
                          renderer.Render(ctx, fig1, &state, options));
    for (const auto& b : load.batches) {
      out.queries_run += static_cast<int64_t>(b.queries.size());
    }
    state.Select("DestMap", "dest_state", {Value("CA")});
    ExecContext rctx;
    VIZQ_ASSIGN_OR_RETURN(dashboard::RenderReport refresh,
                          renderer.Refresh(rctx, fig1, &state,
                                           fig1.ActionTargets("DestMap"),
                                           options));
    for (const auto& b : refresh.batches) {
      out.queries_run += static_cast<int64_t>(b.queries.size());
    }
  }
  {
    dashboard::InteractionState warm;
    ExecContext ctx;
    VIZQ_ASSIGN_OR_RETURN(dashboard::RenderReport again,
                          renderer.Render(ctx, fig1, &warm, options));
    for (const auto& b : again.batches) {
      out.queries_run += static_cast<int64_t>(b.queries.size());
    }
  }

  // Figure 2: the Market / Carrier / Airline Name dashboard.
  {
    dashboard::Dashboard fig2 = workload::BuildFigure2Dashboard("faa");
    dashboard::InteractionState state;
    ExecContext ctx;
    VIZQ_ASSIGN_OR_RETURN(dashboard::RenderReport load,
                          renderer.Render(ctx, fig2, &state, options));
    for (const auto& b : load.batches) {
      out.queries_run += static_cast<int64_t>(b.queries.size());
    }
  }

  // Cluster mode: one query per shard alias in a single scatter batch, so
  // the gather fans out across the ring and every node contributes
  // rpc.node.* samples to the registry.
  if (coordinator != nullptr) {
    std::vector<query::AbstractQuery> scatter;
    for (int s = 0; s < 2 * opt.cluster_nodes; ++s) {
      scatter.push_back(
          query::QueryBuilder("faa", workload::kFlightsView + std::string("_shard") +
                                         std::to_string(s))
              .Dim("carrier")
              .CountAll("flights")
              .Build());
    }
    ExecContext cctx;
    VIZQ_ASSIGN_OR_RETURN(std::vector<ResultTable> shard_results,
                          coordinator->ExecuteBatch(cctx, scatter, options,
                                                    nullptr));
    out.queries_run += static_cast<int64_t>(shard_results.size());
  }

  // Probe query for the EXPLAIN ANALYZE dump: caches off so it must reach
  // the engine and produce a plan.
  query::AbstractQuery probe = query::QueryBuilder("faa", workload::kFlightsView)
                                   .Dim("carrier")
                                   .CountAll("flights")
                                   .Build();
  dashboard::BatchOptions probe_opts;
  probe_opts.use_intelligent_cache = false;
  probe_opts.use_literal_cache = false;
  ExecContext pctx;
  VIZQ_ASSIGN_OR_RETURN(ResultTable probe_result,
                        service.ExecuteQuery(pctx, probe, probe_opts));
  ++out.queries_run;
  out.probe_rows = probe_result.num_rows();
  std::map<std::string, std::string> plan = RunAttributes(pctx);
  out.plan_text = plan["tde.analyze"];
  out.plan_root_rows = plan["tde.analyze.root_rows"];

  // Encoded-path probe: carrier x dest_state. The flights table is sorted
  // by carrier only, so streaming aggregation cannot claim this grouping;
  // the dense token-indexed path must (carrier's RLE runs stay undecoded
  // through the scan).
  query::AbstractQuery encoded_probe =
      query::QueryBuilder("faa", workload::kFlightsView)
          .Dim("carrier")
          .Dim("dest_state")
          .CountAll("flights")
          .Build();
  ExecContext ectx;
  VIZQ_ASSIGN_OR_RETURN(ResultTable encoded_result,
                        service.ExecuteQuery(ectx, encoded_probe, probe_opts));
  ++out.queries_run;
  out.encoded_probe_rows = encoded_result.num_rows();
  out.encoded_plan_text = RunAttributes(ectx)["tde.analyze"];

  // Join probe: airline_name lives in the carriers dimension, dep_hour is
  // a small-domain int of the fact table. The partial aggregate runs dense
  // below the join, keyed by the carrier code and dep_hour.
  query::AbstractQuery join_probe =
      query::QueryBuilder("faa", workload::kFlightsView)
          .Dim("airline_name")
          .Dim("dep_hour")
          .Agg(AggFunc::kAvg, "arr_delay", "avg_delay")
          .Build();
  ExecContext jctx;
  VIZQ_ASSIGN_OR_RETURN(ResultTable join_result,
                        service.ExecuteQuery(jctx, join_probe, probe_opts));
  ++out.queries_run;
  out.join_probe_rows = join_result.num_rows();
  out.join_plan_text = RunAttributes(jctx)["tde.analyze"];
  return out;
}

void PrintSpanTree(const obs::RecordedSpan& span, int depth) {
  std::printf("    %*s%s  %.3f ms\n", depth * 2, "", span.name.c_str(),
              span.duration_us / 1000.0);
  for (const obs::RecordedEvent& ev : span.events) {
    std::printf("    %*s- %s: %s\n", depth * 2 + 2, "", ev.category.c_str(),
                ev.detail.c_str());
  }
  for (const obs::RecordedSpan& child : span.children) {
    PrintSpanTree(child, depth + 1);
  }
}

// --selftest: assert the acceptance criteria on what the run recorded.
int SelfTest(const WorkloadResult& result) {
  // (c) EXPLAIN ANALYZE root rows-out == returned rows.
  if (result.plan_text.empty()) {
    return Fail("selftest: probe left no tde.analyze attribute");
  }
  if (result.plan_root_rows != std::to_string(result.probe_rows)) {
    return Fail("selftest: plan root rows-out '" + result.plan_root_rows +
                "' != probe result rows " + std::to_string(result.probe_rows));
  }

  // (d) the encoded-path probe ran Scan->Aggregate on compressed columns:
  // dense grouping in the plan, no fallback, RLE rows never decoded.
  if (result.encoded_plan_text.find(" dense") == std::string::npos) {
    return Fail("selftest: encoded probe plan lacks dense aggregation:\n" +
                result.encoded_plan_text);
  }
  if (result.encoded_plan_text.find(" encoded") == std::string::npos) {
    return Fail("selftest: encoded probe plan lacks an encoded scan:\n" +
                result.encoded_plan_text);
  }
  {
    size_t at = result.encoded_plan_text.find("encoded: plans=");
    int plans = 0, fallbacks = -1;
    long long undecoded = 0;
    if (at == std::string::npos ||
        std::sscanf(result.encoded_plan_text.c_str() + at,
                    "encoded: plans=%d fallbacks=%d rows_undecoded=%lld",
                    &plans, &fallbacks, &undecoded) != 3) {
      return Fail("selftest: encoded probe plan lacks the encoded footer:\n" +
                  result.encoded_plan_text);
    }
    if (plans < 1 || fallbacks != 0 || undecoded <= 0) {
      return Fail("selftest: encoded probe did not take the encoded path "
                  "(plans=" + std::to_string(plans) +
                  " fallbacks=" + std::to_string(fallbacks) +
                  " rows_undecoded=" + std::to_string(undecoded) + ")");
    }
  }

  // (e) the join probe aggregated below the carriers join: a final
  // aggregate over the join, whose fact side is a dense partial keyed by
  // the carrier code and dep_hour, with no fallback.
  {
    const std::string& text = result.join_plan_text;
    size_t at = 0;
    for (const char* step :
         {"Aggregate [groups=2 aggs=", "phase=final]", "Join [keys=1",
          "Aggregate [groups=2 aggs=", "phase=partial dense]",
          "Scan flights", "Scan carriers", "encoded: plans="}) {
      at = text.find(step, at);
      if (at == std::string::npos) {
        return Fail(std::string("selftest: join probe plan lacks '") + step +
                    "' in order:\n" + text);
      }
    }
    int plans = 0, fallbacks = -1;
    if (std::sscanf(text.c_str() + at, "encoded: plans=%d fallbacks=%d",
                    &plans, &fallbacks) != 2 ||
        plans < 1 || fallbacks != 0) {
      return Fail("selftest: join probe did not aggregate dense below the "
                  "join:\n" + text);
    }
  }

  // (a) registry snapshot: cache, pool and per-operator histograms with
  // monotone percentiles.
  obs::MetricsSnapshot snap = obs::GlobalMetrics().TakeSnapshot();
  bool saw_cache = false, saw_pool = false, saw_op = false;
  for (const auto& h : snap.histograms) {
    if (h.count <= 0) continue;
    if (h.name.rfind("cache.", 0) == 0) saw_cache = true;
    if (h.name.rfind("pool.", 0) == 0) saw_pool = true;
    if (h.name.rfind("tde.op.", 0) == 0) saw_op = true;
    if (!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max &&
          h.min <= h.p50)) {
      return Fail("selftest: non-monotone percentiles in histogram " + h.name);
    }
  }
  if (!saw_cache) return Fail("selftest: no cache.* histogram observed");
  if (!saw_pool) return Fail("selftest: no pool.* histogram observed");
  if (!saw_op) return Fail("selftest: no tde.op.* histogram observed");
  if (snap.counters.find("cache.intelligent.miss") == snap.counters.end()) {
    return Fail("selftest: cache.intelligent.miss counter missing");
  }

  // (e) the always-on tail-exemplar store retained this run's slowest
  // requests, and they export as a schema-valid Chrome trace.
  obs::TailExemplarStore& exemplars = obs::GlobalExemplars();
  if (exemplars.total_retained() <= 0) {
    return Fail("selftest: tail-exemplar store retained nothing");
  }
  if (exemplars.Slowest().duration_ms <= 0) {
    return Fail("selftest: slowest tail exemplar has no duration");
  }
  int exemplar_events = 0;
  Status exemplar_valid =
      obs::ValidateChromeTrace(exemplars.ToChromeTrace(), &exemplar_events);
  if (!exemplar_valid.ok()) {
    return Fail("selftest: exemplar trace invalid: " +
                exemplar_valid.ToString());
  }
  if (exemplar_events <= 0) {
    return Fail("selftest: exemplar trace has no events");
  }

  // (f) plan profiles: the engine recorded at least one shape, and each
  // profile's quantiles are monotone.
  std::vector<obs::PlanProfileRegistry::Profile> profiles =
      obs::GlobalPlanProfiles().Snapshot();
  if (profiles.empty()) return Fail("selftest: no plan profiles recorded");
  for (const auto& p : profiles) {
    if (p.signature.empty() || p.count <= 0) {
      return Fail("selftest: degenerate plan profile");
    }
    if (!(p.min_ms <= p.p50_ms && p.p50_ms <= p.p95_ms &&
          p.p95_ms <= p.p99_ms && p.p99_ms <= p.max_ms)) {
      return Fail("selftest: non-monotone quantiles in plan profile " +
                  p.signature);
    }
  }

  std::printf("vizq_stats selftest OK: %lld queries, %d trace events, "
              "%lld tail exemplars, %zu plan shapes, probe rows %lld\n",
              static_cast<long long>(result.queries_run), exemplar_events,
              static_cast<long long>(exemplars.total_retained()),
              profiles.size(), static_cast<long long>(result.probe_rows));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ToolOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flights") == 0 && i + 1 < argc) {
      opt.flights = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opt.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--slow-n") == 0 && i + 1 < argc) {
      opt.slow_n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--cluster") == 0 && i + 1 < argc) {
      opt.cluster_nodes = std::atoi(argv[++i]);
      if (opt.cluster_nodes < 1 || opt.cluster_nodes > 64) {
        return Fail("--cluster expects a node count in [1, 64]");
      }
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      opt.selftest = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      opt.trace_out = argv[++i];
    } else {
      return Fail(std::string("unknown flag: ") + argv[i] +
                  "\nusage: vizq_stats [--flights N] [--seed S] [--slow-n N]"
                  " [--json] [--cluster N] [--trace-out FILE] [--selftest]");
    }
  }

  // The selftest's assertions describe the single-node pipeline.
  if (opt.selftest) opt.cluster_nodes = 0;

  // Fresh observability epoch so the dump reflects exactly this run.
  obs::GlobalMetrics().Reset();
  obs::GlobalExemplars().Clear();
  obs::GlobalPlanProfiles().Reset();

  StatusOr<WorkloadResult> result = RunWorkload(opt);
  if (!result.ok()) return Fail("workload failed: " + result.status().ToString());

  if (opt.selftest) return SelfTest(*result);

  // --- registry snapshot ---
  std::printf("== global metrics (%s) ==\n",
              opt.json ? "json" : "prometheus");
  if (opt.json) {
    std::printf("%s\n", obs::GlobalMetrics().ToJson().c_str());
  } else {
    std::printf("%s", obs::GlobalMetrics().ToPrometheusText().c_str());
  }

  obs::TailExemplarStore& store = obs::GlobalExemplars();
  std::vector<obs::Exemplar> kept = store.Snapshot();

  // --- slowest retained requests (Snapshot lists them slowest first) ---
  std::printf("\n== slowest %d of %zu retained requests ==\n", opt.slow_n,
              kept.size());
  int shown = 0;
  for (const obs::Exemplar& e : kept) {
    if (e.shed || shown++ >= opt.slow_n) break;
    const obs::RecordedRequest& r = e.request;
    std::printf("  #%lld %s  %.3f ms, %d spans\n",
                static_cast<long long>(r.id), r.name.c_str(),
                r.duration_us / 1000.0, r.root.TotalSpans());
    PrintSpanTree(r.root, 0);
  }

  // --- Chrome trace export ---
  if (!opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out, std::ios::trunc);
    if (!f) return Fail("cannot open " + opt.trace_out);
    f << store.ToChromeTrace();
    std::printf("\nwrote Chrome trace (load in chrome://tracing) to %s\n",
                opt.trace_out.c_str());
  }

  // --- tail exemplars ---
  {
    std::printf("\n== tail exemplars (%zu retained of %lld offered) ==\n",
                kept.size(), static_cast<long long>(store.total_offered()));
    for (const obs::Exemplar& e : kept) {
      std::string rung =
          e.rung >= 0 ? " rung=" + std::to_string(e.rung) : std::string();
      std::printf("  %s%s  %.3f ms  outcome=%s%s\n", e.shed ? "[shed] " : "",
                  e.request.name.c_str(), e.duration_ms, e.outcome.c_str(),
                  rung.c_str());
      if (!e.timeline_text.empty()) {
        std::printf("    timeline: %s\n", e.timeline_text.c_str());
      }
    }
  }

  // --- per-plan-shape latency profiles ---
  {
    std::vector<obs::PlanProfileRegistry::Profile> profiles =
        obs::GlobalPlanProfiles().Snapshot();
    std::printf("\n== plan profiles (%zu shapes, most-executed first) ==\n",
                profiles.size());
    for (const auto& p : profiles) {
      std::printf("  x%-4lld p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms  %s\n",
                  static_cast<long long>(p.count), p.p50_ms, p.p95_ms,
                  p.p99_ms, p.signature.c_str());
    }
  }

  // --- one annotated plan ---
  std::printf("\n== EXPLAIN ANALYZE: carrier flight counts (caches off) ==\n");
  std::printf("%s", result->plan_text.c_str());
  std::printf("  (root rows-out %s, returned rows %lld)\n",
              result->plan_root_rows.c_str(),
              static_cast<long long>(result->probe_rows));

  std::printf("\n== EXPLAIN ANALYZE: flights by carrier x dest_state "
              "(encoded path) ==\n");
  std::printf("%s", result->encoded_plan_text.c_str());
  std::printf("  (returned rows %lld)\n",
              static_cast<long long>(result->encoded_probe_rows));

  std::printf("\n== EXPLAIN ANALYZE: avg arr_delay by airline_name x "
              "dep_hour (aggregated below the join) ==\n");
  std::printf("%s", result->join_plan_text.c_str());
  std::printf("  (returned rows %lld)\n",
              static_cast<long long>(result->join_probe_rows));
  return 0;
}
