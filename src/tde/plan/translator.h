// Physical translation: turns an optimized (possibly parallelized) logical
// plan into a Volcano operator tree.
//
// Every scan becomes a TableScanOperator over a list of row ranges: the
// whole table, or for a ranged scan the runs that satisfy its run
// predicate (§4.3). Exchange nodes are expanded by translating their child
// subtree once per fraction; the fraction's partitioned scan is restricted
// to its row range (random partitioning), its group-aligned range (range
// partitioning, §4.2.3), its share of the matching runs, or the morsels it
// claims from a shared queue (§10). Join build sides are translated once
// and shared across fractions through SharedBuildState (§4.2.2).

#ifndef VIZQUERY_TDE_PLAN_TRANSLATOR_H_
#define VIZQUERY_TDE_PLAN_TRANSLATOR_H_

#include <memory>
#include <unordered_map>

#include "src/common/exec_context.h"
#include "src/common/scheduler.h"
#include "src/tde/exec/analyze.h"
#include "src/tde/exec/scan.h"
#include "src/tde/plan/logical.h"

namespace vizq::tde {

// Runtime knobs the translator threads into the physical operators.
struct TranslateOptions {
  // The query's priority class; producer tasks, build tasks and merge
  // tasks are all submitted under it.
  TaskClass priority = TaskClass::kInteractive;
  // Runtime row thresholds below which the blocking-operator fan-outs
  // (plan annotations build_dop / merge_dop) stay serial.
  int64_t parallel_build_min_rows = 65536;
  int64_t parallel_merge_min_rows = 4096;
};

class Translator {
 public:
  // `stats` may be null. The logical plan must outlive execution of the
  // returned operator tree. Operators receive a copy of `ctx`:
  // Scan/Join/Aggregate poll its cancellation/deadline between batches
  // and record per-operator spans under its parent span. With a non-null
  // `analysis`, every physical operator is wrapped in an AnalyzeOperator
  // accumulating per-logical-node runtime stats (EXPLAIN ANALYZE);
  // `analysis` must outlive execution of the operator tree.
  Translator(ExecStats* stats, const TranslateOptions& options,
             const ExecContext& ctx = ExecContext::Background(),
             PlanAnalysis* analysis = nullptr)
      : stats_(stats), options_(options), ctx_(ctx), analysis_(analysis) {}

  StatusOr<OperatorPtr> Translate(const LogicalOpPtr& plan);

 private:
  // Resolves the analysis node for `op`, translates (TranslateNodeImpl)
  // and wraps the result. All fractions of an Exchange share one node.
  StatusOr<OperatorPtr> TranslateNode(const LogicalOp& op, int fraction);
  StatusOr<OperatorPtr> TranslateNodeImpl(const LogicalOp& op, int fraction);
  StatusOr<OperatorPtr> TranslateScan(const LogicalOp& op, int fraction);
  StatusOr<OperatorPtr> TranslateExchange(const LogicalOp& op);

  // The row ranges `scan` reads: all its rows, or for a ranged scan its
  // matching runs.
  StatusOr<std::vector<RowRange>> ScanRanges(const LogicalOp& scan);
  // Per-fraction range lists of a partitioned scan, computed once per node.
  StatusOr<const std::vector<std::vector<RowRange>>*> FractionRanges(
      const LogicalOp& scan);

  ExecStats* stats_;
  TranslateOptions options_;
  ExecContext ctx_;
  PlanAnalysis* analysis_ = nullptr;
  PlanNodeStats* analyze_parent_ = nullptr;  // current parent during recursion
  std::unordered_map<const LogicalOp*, std::shared_ptr<SharedBuildState>>
      builds_;
  std::unordered_map<const LogicalOp*, std::vector<std::vector<RowRange>>>
      fraction_ranges_;
  // One shared morsel queue per kMorsel scan node; all fractions of its
  // Exchange claim row ranges from the same queue.
  std::unordered_map<const LogicalOp*, MorselQueuePtr> morsel_queues_;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_PLAN_TRANSLATOR_H_
