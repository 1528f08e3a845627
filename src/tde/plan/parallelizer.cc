#include "src/tde/plan/parallelizer.h"

#include <algorithm>

#include "src/tde/exec/cost_profile.h"
#include "src/tde/plan/binder.h"
#include "src/tde/plan/properties.h"

namespace vizq::tde {

namespace {

// Sum of per-row expression costs across the plan; feeds the DOP decision
// the way §4.2.2 describes (expensive expressions justify more fractions).
double PlanExprCostPerRow(const LogicalOp& op) {
  const CostProfile& profile = CostProfile::Default();
  double cost = 0;
  switch (op.kind) {
    case LogicalKind::kSelect:
      cost += EstimateExprCost(*op.predicate, profile);
      break;
    case LogicalKind::kProject:
      for (const NamedExpr& p : op.projections) {
        cost += EstimateExprCost(*p.expr, profile);
      }
      break;
    case LogicalKind::kAggregate:
      for (const NamedExpr& g : op.group_by) {
        cost += EstimateExprCost(*g.expr, profile);
      }
      for (const LogicalAgg& a : op.aggregates) {
        if (a.arg != nullptr) cost += EstimateExprCost(*a.arg, profile);
      }
      break;
    default:
      break;
  }
  for (const LogicalOpPtr& c : op.children) {
    cost += PlanExprCostPerRow(*c);
  }
  return cost;
}

struct Ctx {
  const ParallelOptions& opts;
  double cost_per_row = 0;
};

int DecideDop(int64_t rows, const Ctx& ctx) {
  if (!ctx.opts.enable_parallel || ctx.opts.max_dop <= 1) return 1;
  // Expensive expressions make each row "heavier", justifying more
  // fractions for the same row count.
  double weight = std::max(1.0, ctx.cost_per_row / 8.0);
  int64_t effective = static_cast<int64_t>(rows * weight);
  int64_t dop64 = effective / std::max<int64_t>(1, ctx.opts.min_rows_per_fraction);
  int dop = static_cast<int>(std::min<int64_t>(dop64, ctx.opts.max_dop));
  return dop < 2 ? 1 : dop;
}

LogicalOpPtr MakeExchange(int dop, LogicalOpPtr child) {
  auto x = std::make_shared<LogicalOp>();
  x->kind = LogicalKind::kExchange;
  x->dop = dop;
  x->children = {std::move(child)};
  x->bound = true;
  DeriveOutput(x.get()).ok();
  return x;
}

StatusOr<int> Par(LogicalOpPtr* node, Ctx& ctx);

StatusOr<int> ParAggregate(LogicalOpPtr* node, Ctx& ctx) {
  LogicalOpPtr op = *node;
  VIZQ_ASSIGN_OR_RETURN(int child_dop, Par(&op->children[0], ctx));
  // A pair the optimizer already split (aggregation below a join): the
  // partial runs in every fraction, and the final closes parallelism the
  // way the local/global split's final does.
  if (op->agg_phase == AggPhase::kPartial) return child_dop;
  if (child_dop <= 1) return 1;
  if (op->agg_phase == AggPhase::kFinal) {
    op->children[0] = MakeExchange(child_dop, op->children[0]);
    op->merge_dop = ctx.opts.enable_parallel_merge ? child_dop : 1;
    return 1;
  }

  // --- §4.2.3: remove the global aggregate via range partitioning ---
  if (ctx.opts.enable_range_partition && !op->group_by.empty()) {
    std::vector<int> scan_cols;
    LogicalOp* scan = TraceGroupColumnsToScan(*op, &scan_cols);
    int prefix_len = 0;
    if (scan != nullptr && scan->scan_dop > 1 &&
        scan->table->SubsetMatchesSortPrefix(scan_cols, &prefix_len)) {
      // Conservative application: skip when the partition key has very low
      // cardinality (e.g. partitioning on gender) — the fractions would be
      // few and skewed, and local/global wins instead.
      int major = scan->table->sort_columns()[0];
      int64_t distinct =
          scan->table->column(major)->stats().distinct_estimate;
      if (distinct >= ctx.opts.range_partition_min_distinct) {
        scan->partition = PartitionKind::kRangeOnSortPrefix;
        scan->range_prefix_len = prefix_len;
        // The aggregate itself stays complete and runs inside each
        // fraction; every group is wholly local (Lemma 2), so the merged
        // stream needs no further aggregation.
        return child_dop;
      }
    }
  }

  // --- §4.2.3: local/global aggregation ---
  bool reaggregable =
      std::all_of(op->aggregates.begin(), op->aggregates.end(),
                  [](const LogicalAgg& a) { return IsReaggregable(a.func); });
  if (ctx.opts.enable_local_global_agg && reaggregable) {
    // Partial (local) aggregate below the Exchange.
    auto partial = std::make_shared<LogicalOp>(*op);
    partial->children = {op->children[0]};
    partial->agg_phase = AggPhase::kPartial;
    partial->prefer_streaming = false;
    VIZQ_RETURN_IF_ERROR(DeriveOutput(partial.get()));

    LogicalOpPtr exchange = MakeExchange(child_dop, partial);

    // This node becomes the final (global) aggregate over partials.
    int ngroups = static_cast<int>(op->group_by.size());
    for (int i = 0; i < ngroups; ++i) {
      op->group_by[i].expr =
          ColIdx(i, partial->output[i].type);
    }
    int col = ngroups;
    for (LogicalAgg& a : op->aggregates) {
      a.arg = ColIdx(col, partial->output[col].type);
      AggSpec spec{a.func, a.arg, a.name};
      col += static_cast<int>(PartialStateColumns(spec).size());
    }
    op->agg_phase = AggPhase::kFinal;
    op->prefer_streaming = false;
    // The merge above the Exchange partitions partial states by group-key
    // hash and merges concurrently (DESIGN.md §12); one partition per
    // contributing lane is the natural fan-out.
    op->merge_dop = ctx.opts.enable_parallel_merge ? child_dop : 1;
    op->children[0] = exchange;
    VIZQ_RETURN_IF_ERROR(DeriveOutput(op.get()));
    return 1;
  }

  // --- plain: close parallelism below the aggregate ---
  op->children[0] = MakeExchange(child_dop, op->children[0]);
  op->prefer_streaming = false;  // the Exchange disturbed the sort (§4.2.4)
  return 1;
}

StatusOr<int> Par(LogicalOpPtr* node, Ctx& ctx) {
  LogicalOpPtr op = *node;
  switch (op->kind) {
    case LogicalKind::kScan: {
      // A ranged scan's matching-row count is unknown until execution;
      // assume the rewrite kept a meaningful fraction of the table. §4.3's
      // caveat — the index join "may also reduce the degree of
      // parallelism" — shows up here: fewer surviving rows means fewer,
      // potentially skewed fractions.
      bool ranged = op->run_predicate != nullptr;
      int64_t rows = op->table->num_rows();
      int dop = DecideDop(ranged ? rows / 4 : rows, ctx);
      op->scan_dop = dop;
      if (dop <= 1) {
        op->partition = PartitionKind::kNone;
      } else if (ctx.opts.enable_morsel && !ranged) {
        // Dynamic morsels by default; ParAggregate may still override to
        // kRangeOnSortPrefix, which needs static group-aligned fractions.
        // A ranged scan's fractions are balanced shares of its runs.
        op->partition = PartitionKind::kMorsel;
        op->morsel_rows = ctx.opts.morsel_rows;
      } else {
        op->partition = PartitionKind::kRandom;
      }
      return dop;
    }
    case LogicalKind::kSelect:
    case LogicalKind::kProject: {
      // Flow operators inherit the degree of parallelism from the child.
      return Par(&op->children[0], ctx);
    }
    case LogicalKind::kJoin: {
      // Left sub-tree participates in the main parallelism; the right
      // sub-tree is an independent unit whose materialized table and hash
      // table are shared by all probing threads.
      VIZQ_ASSIGN_OR_RETURN(int left_dop, Par(&op->children[0], ctx));
      VIZQ_ASSIGN_OR_RETURN(int right_dop, Par(&op->children[1], ctx));
      if (right_dop > 1) {
        op->children[1] = MakeExchange(right_dop, op->children[1]);
      }
      // The hash build over the materialized right side fans out on its
      // own (DESIGN.md §12), independent of how the right sub-tree was
      // produced; the runtime row threshold keeps small builds serial.
      op->build_dop = (ctx.opts.enable_parallel && ctx.opts.enable_parallel_build)
                          ? std::max(1, ctx.opts.max_dop)
                          : 1;
      return left_dop;
    }
    case LogicalKind::kAggregate:
      return ParAggregate(node, ctx);
    case LogicalKind::kOrder: {
      VIZQ_ASSIGN_OR_RETURN(int child_dop, Par(&op->children[0], ctx));
      if (child_dop > 1) {
        op->children[0] = MakeExchange(child_dop, op->children[0]);
      }
      return 1;
    }
    case LogicalKind::kTopN: {
      VIZQ_ASSIGN_OR_RETURN(int child_dop, Par(&op->children[0], ctx));
      if (child_dop <= 1) return 1;
      if (ctx.opts.enable_local_global_topn) {
        // Local TopN inside each fraction, global TopN above the Exchange
        // (§4.2.3: "the same approach can also be applied to TopN").
        auto local = std::make_shared<LogicalOp>(*op);
        local->children = {op->children[0]};
        VIZQ_RETURN_IF_ERROR(DeriveOutput(local.get()));
        op->children[0] = MakeExchange(child_dop, local);
      } else {
        op->children[0] = MakeExchange(child_dop, op->children[0]);
      }
      return 1;
    }
    case LogicalKind::kDistinct:
      return Internal("Distinct must be rewritten before parallelization");
    case LogicalKind::kExchange:
      return 1;  // already closed
  }
  return 1;
}

}  // namespace

Status ParallelizePlan(LogicalOpPtr* root, const ParallelOptions& options) {
  if (!(*root)->bound) {
    return FailedPrecondition("ParallelizePlan requires a bound plan");
  }
  Ctx ctx{options, PlanExprCostPerRow(**root)};
  VIZQ_ASSIGN_OR_RETURN(int dop, Par(root, ctx));
  if (dop > 1) {
    *root = MakeExchange(dop, *root);
  }
  return OkStatus();
}

}  // namespace vizq::tde
