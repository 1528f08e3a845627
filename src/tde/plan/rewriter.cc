#include "src/tde/plan/rewriter.h"

#include <algorithm>

#include "src/tde/plan/binder.h"

namespace vizq::tde {

namespace {

// DISTINCT -> GROUP BY over every output column (§4.1.2). Over a Project
// of bare column references (the compiler's dims-only shape) it groups the
// Project's input by those columns under the projection names, so the
// Aggregate can sit right on a scan chain.
Status RewriteDistinct(LogicalOpPtr* node) {
  LogicalOpPtr distinct = *node;
  LogicalOpPtr child = distinct->children[0];
  auto agg = std::make_shared<LogicalOp>();
  agg->kind = LogicalKind::kAggregate;
  const bool bare_project =
      child->kind == LogicalKind::kProject &&
      std::all_of(child->projections.begin(), child->projections.end(),
                  [](const NamedExpr& p) {
                    return p.expr->kind == ExprKind::kColumnRef;
                  });
  if (bare_project) {
    agg->children = {child->children[0]};
    agg->group_by = child->projections;
  } else {
    agg->children = {child};
    for (size_t i = 0; i < child->output.size(); ++i) {
      agg->group_by.push_back(NamedExpr{
          child->output[i].name,
          ColIdx(static_cast<int>(i), child->output[i].type)});
    }
  }
  agg->bound = true;
  VIZQ_RETURN_IF_ERROR(DeriveOutput(agg.get()));
  *node = agg;
  return OkStatus();
}

Status RewriteNode(LogicalOpPtr* node) {
  for (LogicalOpPtr& c : (*node)->children) {
    VIZQ_RETURN_IF_ERROR(RewriteNode(&c));
  }
  if ((*node)->kind == LogicalKind::kDistinct) {
    VIZQ_RETURN_IF_ERROR(RewriteDistinct(node));
  }
  return OkStatus();
}

}  // namespace

Status RewritePlan(LogicalOpPtr* root) {
  if (!(*root)->bound) {
    return FailedPrecondition("RewritePlan requires a bound plan");
  }
  return RewriteNode(root);
}

}  // namespace vizq::tde
