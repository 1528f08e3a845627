// Rule-based optimizer (§4.1.2): filter/project push-down and pull-up,
// removal of unnecessary joins (join culling, including fact-table culling
// for domain queries), removal of unnecessary orderings, constant folding
// and predicate simplification, column pruning, streaming-aggregate
// selection via derived sorting properties, and the RLE IndexTable
// range-skipping rewrite (§4.3).

#ifndef VIZQUERY_TDE_PLAN_OPTIMIZER_H_
#define VIZQUERY_TDE_PLAN_OPTIMIZER_H_

#include <array>

#include "src/tde/plan/logical.h"

namespace vizq::tde {

struct OptimizerOptions {
  bool enable_constant_folding = true;
  bool enable_select_pushdown = true;
  bool enable_join_culling = true;
  bool enable_column_pruning = true;
  bool enable_streaming_agg = true;
  bool enable_order_removal = true;

  // RLE range skipping: kAuto applies it when the column's run table is
  // small relative to the row count (the conservative stance of §4.3);
  // kForce always applies it when structurally possible; kOff never.
  enum class RleIndexMode : uint8_t { kOff, kAuto, kForce };
  RleIndexMode rle_index = RleIndexMode::kAuto;

  // Encoding-aware execution (DESIGN.md §11): run the Scan→Filter→Aggregate
  // hot path on compressed columns (run-encoded batches, per-token /
  // per-run filters, dense token-indexed grouping). The dense accumulator
  // is bounded by encoded_group_cells_max cells (product of key
  // cardinalities + 1); larger key spaces fall back to the hash path.
  bool enable_encoded_exec = true;
  int64_t encoded_group_cells_max = 1 << 16;
};

// Outcome of the encoded-execution decision, for observability counters.
struct EncodedExecDecision {
  int plans = 0;      // pipelines that got the encoded path
  int fallbacks = 0;  // candidate pipelines that failed a gate
  // Non-final Aggregates left on the row path, by EncodedSkip (kNone
  // unused); the three gate reasons sum to `fallbacks`.
  std::array<int, kNumEncodedSkips> skipped{};
};

// Decides, per Scan→[Select]→Aggregate pipeline of the (parallelized) plan,
// whether the encoded path applies, annotating the nodes in place
// (emit_encoded / encoded_filter / use_encoded_agg, or encoded_skip on an
// Aggregate left on the row path). Idempotent; walks
// through Exchange into each fragment. The row path stays the correctness
// baseline for everything not annotated.
EncodedExecDecision DecideEncodedExec(const LogicalOpPtr& root,
                                      const OptimizerOptions& options);

// Optimizes the bound plan in place.
Status OptimizePlan(LogicalOpPtr* root, const OptimizerOptions& options);

// --- individual passes, exposed for tests and ablation benches ---
Status FoldConstantsPass(LogicalOpPtr* root);
Status SelectPushdownPass(LogicalOpPtr* root);
Status ColumnPruningPass(LogicalOpPtr* root, bool enable_join_culling);
Status StreamingAggPass(LogicalOpPtr* root);
Status OrderRemovalPass(LogicalOpPtr* root);

// Splits a predicate into its top-level conjuncts.
void SplitConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out);
// Re-combines conjuncts with AND; a single conjunct returns itself.
// `conjuncts` must be non-empty.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_PLAN_OPTIMIZER_H_
