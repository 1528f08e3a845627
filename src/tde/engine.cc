#include "src/tde/engine.h"

#include <numeric>

#include "src/obs/plan_profile.h"
#include "src/tde/plan/binder.h"
#include "src/tde/plan/rewriter.h"
#include "src/tde/plan/tql_parser.h"
#include "src/tde/plan/translator.h"

namespace vizq::tde {

StatusOr<ResultTable> TdeEngine::Query(const std::string& tql) {
  VIZQ_ASSIGN_OR_RETURN(QueryResult result, Execute(tql, QueryOptions()));
  return std::move(result.table);
}

StatusOr<QueryResult> TdeEngine::Execute(const std::string& tql,
                                         const QueryOptions& options) {
  return Execute(tql, options, ExecContext::Background());
}

StatusOr<QueryResult> TdeEngine::Execute(const std::string& tql,
                                         const QueryOptions& options,
                                         const ExecContext& ctx) {
  VIZQ_ASSIGN_OR_RETURN(LogicalOpPtr plan, ParseTql(tql));
  return Execute(plan, options, ctx);
}

StatusOr<LogicalOpPtr> TdeEngine::Compile(const LogicalOpPtr& plan,
                                          const QueryOptions& options) const {
  LogicalOpPtr working = plan->Clone();
  VIZQ_RETURN_IF_ERROR(BindPlan(working, *db_));
  VIZQ_RETURN_IF_ERROR(RewritePlan(&working));
  VIZQ_RETURN_IF_ERROR(OptimizePlan(&working, options.optimizer));
  VIZQ_RETURN_IF_ERROR(ParallelizePlan(&working, options.parallel));
  // Post-parallelize: the final topology decides where the encoded
  // Scan→Filter→Aggregate path applies (flags on the logical nodes).
  DecideEncodedExec(working, options.optimizer);
  return working;
}

StatusOr<QueryResult> TdeEngine::Execute(const LogicalOpPtr& plan,
                                         const QueryOptions& options) {
  return Execute(plan, options, ExecContext::Background());
}

StatusOr<QueryResult> TdeEngine::Execute(const LogicalOpPtr& plan,
                                         const QueryOptions& options,
                                         const ExecContext& ctx) {
  VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("tde execute"));
  ScopedSpan compile_span(ctx.StartSpan("tde:compile"));
  VIZQ_ASSIGN_OR_RETURN(LogicalOpPtr compiled, Compile(plan, options));
  // Re-derive the encoded-exec decision (idempotent) to capture the
  // plan/fallback counts for this execution's observability.
  EncodedExecDecision encoded =
      DecideEncodedExec(compiled, options.optimizer);
  compile_span.End();

  QueryResult result;
  result.stats = std::make_shared<ExecStats>();
  if (options.collect_analysis) {
    result.analysis = std::make_shared<PlanAnalysis>();
  }
  result.plan_text = compiled->ToString();
  ScopedSpan run_span(ctx.StartSpan("tde:run"));
  ExecContext run_ctx = ctx.WithSpan(run_span.get());
  TranslateOptions translate_options;
  translate_options.priority = options.priority;
  translate_options.parallel_build_min_rows =
      options.parallel.parallel_build_min_rows;
  translate_options.parallel_merge_min_rows =
      options.parallel.parallel_merge_min_rows;
  Translator translator(result.stats.get(), translate_options, run_ctx,
                        result.analysis.get());
  VIZQ_ASSIGN_OR_RETURN(OperatorPtr root, translator.Translate(compiled));
  VIZQ_ASSIGN_OR_RETURN(result.table, CollectToResultTable(root.get()));
  // Hand the executed tree to the caller: Execute() responds as soon as
  // the table is collected, and freeing per-query scratch (materialized
  // build sides, partition tables) rides on the result's lifetime. The
  // compiled plan rides along — operators hold expressions bound into it.
  struct Retained {
    OperatorPtr root;
    LogicalOpPtr plan;
  };
  result.pipeline = std::shared_ptr<void>(
      new Retained{std::move(root), std::move(compiled)});
  run_span.End();
  int64_t rows_undecoded = 0;
  const int skipped = std::accumulate(encoded.skipped.begin(),
                                      encoded.skipped.end(), 0);
  {
    std::lock_guard<std::mutex> lock(result.stats->mu);
    result.stats->encoded_plans = encoded.plans;
    result.stats->encoded_fallbacks = encoded.fallbacks;
    rows_undecoded = result.stats->encoded_rows_undecoded;
    ctx.Count("tde.rows_scanned", result.stats->rows_scanned);
    ctx.Count("tde.batches", result.stats->batches);
    if (encoded.plans > 0 || encoded.fallbacks > 0 || rows_undecoded > 0) {
      ctx.Count("tde.encoded.plans", encoded.plans);
      ctx.Count("tde.encoded.fallbacks", encoded.fallbacks);
      ctx.Count("tde.encoded.rows_undecoded", rows_undecoded);
    }
  }
  for (int r = 0; r < kNumEncodedSkips && ctx.tracing_enabled(); ++r) {
    if (encoded.skipped[r] == 0) continue;
    ctx.Count(std::string("tde.encoded.skip.") +
                  EncodedSkipToString(static_cast<EncodedSkip>(r)),
              encoded.skipped[r]);
  }
  if (result.analysis != nullptr) {
    // The annotated plan and its root row count are attributes of the
    // tde:run span, so a captured exemplar carries them with the trace;
    // per-kind wall times feed the "tde.op.<kind>.ms" histograms.
    std::string analyze_text = result.analysis->ToText();
    if (encoded.plans > 0 || encoded.fallbacks > 0 || skipped > 0) {
      analyze_text += "encoded: plans=" + std::to_string(encoded.plans) +
                      " fallbacks=" + std::to_string(encoded.fallbacks) +
                      " rows_undecoded=" + std::to_string(rows_undecoded) +
                      " skipped=" + std::to_string(skipped) + "\n";
    }
    run_ctx.Attach("tde.analyze", analyze_text);
    run_ctx.Attach("tde.analyze.root_rows",
                   std::to_string(result.analysis->root_rows()));
    if (ctx.tracing_enabled()) {
      result.analysis->ForEach([&ctx](const PlanNodeStats& node) {
        ctx.Observe("tde.op." + node.metric_key + ".ms", node.wall_ms());
      });
      // Per-plan-shape latency profile: the measured wall time of this
      // execution keyed by the plan's structural signature, the substrate
      // for deadline-aware plan choice.
      if (run_span.get() != nullptr) {
        obs::GlobalPlanProfiles().Record(result.analysis->Signature(),
                                         run_span.get()->duration_ms());
      }
    }
  }
  return result;
}

}  // namespace vizq::tde
