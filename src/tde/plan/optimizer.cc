#include "src/tde/plan/optimizer.h"

#include <algorithm>
#include <limits>

#include "src/tde/plan/binder.h"
#include "src/tde/plan/properties.h"

namespace vizq::tde {

void SplitConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out) {
  if (predicate->kind == ExprKind::kBinary &&
      predicate->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(predicate->children[0], out);
    SplitConjuncts(predicate->children[1], out);
    return;
  }
  out->push_back(predicate);
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    auto node = std::make_shared<Expr>();
    node->kind = ExprKind::kBinary;
    node->binary_op = BinaryOp::kAnd;
    node->children = {acc, conjuncts[i]};
    node->bound = true;
    node->result_type = DataType::Bool();
    acc = node;
  }
  return acc;
}

namespace {

bool HasColumnRefs(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return true;
  for (const ExprPtr& c : e.children) {
    if (HasColumnRefs(*c)) return true;
  }
  return false;
}

bool IsLiteralBool(const Expr& e, bool value) {
  return e.kind == ExprKind::kLiteral && e.literal.is_bool() &&
         e.literal.bool_value() == value;
}

// Substitutes bound column references through `exprs`: a reference to
// column i becomes exprs[i] (shared, immutable). Used when pushing a
// predicate below a Project or Aggregate.
ExprPtr SubstituteRefs(const ExprPtr& e, const std::vector<ExprPtr>& exprs) {
  if (e->kind == ExprKind::kColumnRef && e->column_index >= 0 &&
      e->column_index < static_cast<int>(exprs.size())) {
    return exprs[e->column_index];
  }
  auto out = std::make_shared<Expr>(*e);
  out->children.clear();
  for (const ExprPtr& c : e->children) {
    out->children.push_back(SubstituteRefs(c, exprs));
  }
  return out;
}

// --- constant folding ---

StatusOr<ExprPtr> FoldExpr(const ExprPtr& e) {
  auto folded = std::make_shared<Expr>(*e);
  folded->children.clear();
  for (const ExprPtr& c : e->children) {
    VIZQ_ASSIGN_OR_RETURN(ExprPtr fc, FoldExpr(c));
    folded->children.push_back(std::move(fc));
  }
  // Boolean identities first.
  if (folded->kind == ExprKind::kBinary) {
    const ExprPtr& a = folded->children[0];
    const ExprPtr& b = folded->children[1];
    if (folded->binary_op == BinaryOp::kAnd) {
      if (IsLiteralBool(*a, true)) return b;
      if (IsLiteralBool(*b, true)) return a;
      if (IsLiteralBool(*a, false) || IsLiteralBool(*b, false)) {
        return Lit(Value(false));
      }
    }
    if (folded->binary_op == BinaryOp::kOr) {
      if (IsLiteralBool(*a, false)) return b;
      if (IsLiteralBool(*b, false)) return a;
      if (IsLiteralBool(*a, true) || IsLiteralBool(*b, true)) {
        return Lit(Value(true));
      }
    }
  }
  // NOT NOT x -> x
  if (folded->kind == ExprKind::kUnary && folded->unary_op == UnaryOp::kNot) {
    const ExprPtr& a = folded->children[0];
    if (a->kind == ExprKind::kUnary && a->unary_op == UnaryOp::kNot) {
      return a->children[0];
    }
  }
  // Single-element IN -> equality.
  if (folded->kind == ExprKind::kIn && folded->in_set.size() == 1 &&
      !folded->in_set[0].is_null()) {
    auto lit = Lit(folded->in_set[0]);
    auto eq = std::make_shared<Expr>();
    eq->kind = ExprKind::kBinary;
    eq->binary_op = BinaryOp::kEq;
    eq->children = {folded->children[0], lit};
    eq->bound = true;
    eq->result_type = DataType::Bool();
    // The literal child of a bound tree must be bound too.
    auto bl = std::make_shared<Expr>(*lit);
    bl->bound = true;
    const Value& v = folded->in_set[0];
    if (v.is_string()) {
      bl->result_type = DataType::String();
    } else if (v.is_double()) {
      bl->result_type = DataType::Float64();
    } else if (v.is_bool()) {
      bl->result_type = DataType::Bool();
    } else {
      bl->result_type = DataType::Int64();
    }
    eq->children[1] = bl;
    return ExprPtr(eq);
  }
  // Fully-constant subtree: evaluate on a one-row batch.
  if (folded->bound && folded->kind != ExprKind::kLiteral &&
      !HasColumnRefs(*folded)) {
    Batch one;
    one.num_rows = 1;
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*folded, one));
    auto lit = std::make_shared<Expr>();
    lit->kind = ExprKind::kLiteral;
    lit->literal = v.GetValue(0);
    lit->bound = true;
    lit->result_type = folded->result_type;
    return ExprPtr(lit);
  }
  return ExprPtr(folded);
}

Status FoldNode(LogicalOpPtr* node) {
  for (LogicalOpPtr& c : (*node)->children) {
    VIZQ_RETURN_IF_ERROR(FoldNode(&c));
  }
  LogicalOp* op = node->get();
  switch (op->kind) {
    case LogicalKind::kSelect: {
      VIZQ_ASSIGN_OR_RETURN(op->predicate, FoldExpr(op->predicate));
      if (IsLiteralBool(*op->predicate, true)) {
        *node = op->children[0];
      }
      break;
    }
    case LogicalKind::kProject:
      for (NamedExpr& p : op->projections) {
        VIZQ_ASSIGN_OR_RETURN(p.expr, FoldExpr(p.expr));
      }
      break;
    case LogicalKind::kAggregate:
      for (NamedExpr& g : op->group_by) {
        VIZQ_ASSIGN_OR_RETURN(g.expr, FoldExpr(g.expr));
      }
      for (LogicalAgg& a : op->aggregates) {
        if (a.arg != nullptr) {
          VIZQ_ASSIGN_OR_RETURN(a.arg, FoldExpr(a.arg));
        }
      }
      break;
    case LogicalKind::kOrder:
    case LogicalKind::kTopN:
      for (LogicalSortKey& k : op->order_keys) {
        VIZQ_ASSIGN_OR_RETURN(k.expr, FoldExpr(k.expr));
      }
      break;
    default:
      break;
  }
  return OkStatus();
}

// --- select pushdown ---

// Tries to push the Select at *node one step down. Returns true if the
// tree changed.
StatusOr<bool> TryPushSelect(LogicalOpPtr* node) {
  LogicalOpPtr select = *node;
  LogicalOpPtr child = select->children[0];
  switch (child->kind) {
    case LogicalKind::kSelect: {
      // Merge adjacent selects.
      child->predicate =
          CombineConjuncts({child->predicate, select->predicate});
      *node = child;
      return true;
    }
    case LogicalKind::kProject: {
      // Select(p, Project(es, C)) == Project(es, Select(p[es], C)).
      std::vector<ExprPtr> exprs;
      exprs.reserve(child->projections.size());
      for (const NamedExpr& p : child->projections) exprs.push_back(p.expr);
      ExprPtr pushed = SubstituteRefs(select->predicate, exprs);
      auto new_select = std::make_shared<LogicalOp>();
      new_select->kind = LogicalKind::kSelect;
      new_select->predicate = pushed;
      new_select->children = {child->children[0]};
      new_select->bound = true;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(new_select.get()));
      child->children[0] = new_select;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(child.get()));
      *node = child;
      return true;
    }
    case LogicalKind::kOrder: {
      // Swap: Select(Order(x)) -> Order(Select(x)).
      LogicalOpPtr inner = child->children[0];
      select->children[0] = inner;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(select.get()));
      child->children[0] = select;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(child.get()));
      *node = child;
      return true;
    }
    case LogicalKind::kJoin: {
      int nleft = static_cast<int>(child->children[0]->output.size());
      int nright = static_cast<int>(child->children[1]->output.size());
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(select->predicate, &conjuncts);
      std::vector<ExprPtr> to_left, to_right, stay;
      for (const ExprPtr& c : conjuncts) {
        std::vector<int> refs;
        c->CollectColumnIndices(&refs);
        bool all_left = true, all_right = true;
        for (int r : refs) {
          if (r >= nleft) all_left = false;
          if (r < nleft) all_right = false;
        }
        if (!refs.empty() && all_left) {
          to_left.push_back(c);
        } else if (!refs.empty() && all_right &&
                   child->join_type == JoinType::kInner) {
          // Remap to right-child indices. (Not pushed through the null-
          // producing side of an outer join.)
          std::vector<int> mapping(nleft + nright);
          for (int i = 0; i < nleft + nright; ++i) mapping[i] = i - nleft;
          to_right.push_back(RemapColumns(c, mapping));
        } else {
          stay.push_back(c);
        }
      }
      if (to_left.empty() && to_right.empty()) return false;
      auto wrap = [](ExprPtr pred, LogicalOpPtr c) {
        auto s = std::make_shared<LogicalOp>();
        s->kind = LogicalKind::kSelect;
        s->predicate = std::move(pred);
        s->children = {std::move(c)};
        s->bound = true;
        DeriveOutput(s.get()).ok();
        return s;
      };
      if (!to_left.empty()) {
        child->children[0] = wrap(CombineConjuncts(to_left), child->children[0]);
      }
      if (!to_right.empty()) {
        child->children[1] =
            wrap(CombineConjuncts(to_right), child->children[1]);
      }
      VIZQ_RETURN_IF_ERROR(DeriveOutput(child.get()));
      if (stay.empty()) {
        *node = child;
      } else {
        select->predicate = CombineConjuncts(stay);
        select->children[0] = child;
        VIZQ_RETURN_IF_ERROR(DeriveOutput(select.get()));
      }
      return true;
    }
    case LogicalKind::kAggregate: {
      int ngroups = static_cast<int>(child->group_by.size());
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(select->predicate, &conjuncts);
      std::vector<ExprPtr> pushable, stay;
      std::vector<ExprPtr> group_exprs;
      for (const NamedExpr& g : child->group_by) group_exprs.push_back(g.expr);
      for (const ExprPtr& c : conjuncts) {
        std::vector<int> refs;
        c->CollectColumnIndices(&refs);
        bool only_groups = !refs.empty();
        for (int r : refs) {
          if (r >= ngroups) only_groups = false;
        }
        if (only_groups) {
          pushable.push_back(SubstituteRefs(c, group_exprs));
        } else {
          stay.push_back(c);
        }
      }
      if (pushable.empty()) return false;
      auto s = std::make_shared<LogicalOp>();
      s->kind = LogicalKind::kSelect;
      s->predicate = CombineConjuncts(pushable);
      s->children = {child->children[0]};
      s->bound = true;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(s.get()));
      child->children[0] = s;
      VIZQ_RETURN_IF_ERROR(DeriveOutput(child.get()));
      if (stay.empty()) {
        *node = child;
      } else {
        select->predicate = CombineConjuncts(stay);
        select->children[0] = child;
      }
      return true;
    }
    default:
      return false;
  }
}

Status PushdownNode(LogicalOpPtr* node) {
  if ((*node)->kind == LogicalKind::kSelect) {
    while (true) {
      VIZQ_ASSIGN_OR_RETURN(bool changed, TryPushSelect(node));
      if (!changed || (*node)->kind != LogicalKind::kSelect) break;
    }
  }
  for (LogicalOpPtr& c : (*node)->children) {
    VIZQ_RETURN_IF_ERROR(PushdownNode(&c));
  }
  return OkStatus();
}

// --- column pruning + join culling ---

// Prunes the subtree at *node so it only produces the columns in
// `required` (indices into the node's current output). Returns the mapping
// old-output-index -> new-output-index (-1 when dropped).
// `dup_insensitive` is true when the consumer ignores row multiplicity
// (enables fact-table culling under referential integrity).
StatusOr<std::vector<int>> PruneNode(LogicalOpPtr* node,
                                     std::vector<bool> required,
                                     bool dup_insensitive,
                                     bool enable_join_culling) {
  LogicalOp* op = node->get();
  int old_width = static_cast<int>(op->output.size());
  auto identity = [old_width]() {
    std::vector<int> m(old_width);
    for (int i = 0; i < old_width; ++i) m[i] = i;
    return m;
  };

  switch (op->kind) {
    case LogicalKind::kScan: {
      std::vector<int> mapping(old_width, -1);
      std::vector<int> new_cols;
      for (int i = 0; i < old_width; ++i) {
        if (required[i]) {
          mapping[i] = static_cast<int>(new_cols.size());
          new_cols.push_back(op->scan_columns[i]);
        }
      }
      if (new_cols.empty()) {
        // Keep one column: downstream operators need a row stream.
        mapping[0] = 0;
        new_cols.push_back(op->scan_columns[0]);
      }
      op->scan_columns = std::move(new_cols);
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return mapping;
    }
    case LogicalKind::kSelect: {
      std::vector<bool> child_req = required;
      std::vector<int> refs;
      op->predicate->CollectColumnIndices(&refs);
      for (int r : refs) child_req[r] = true;
      VIZQ_ASSIGN_OR_RETURN(
          std::vector<int> child_map,
          PruneNode(&op->children[0], child_req, dup_insensitive,
                    enable_join_culling));
      op->predicate = RemapColumns(op->predicate, child_map);
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return child_map;
    }
    case LogicalKind::kProject: {
      // Drop projections nobody needs.
      std::vector<int> mapping(old_width, -1);
      std::vector<NamedExpr> kept;
      for (int i = 0; i < old_width; ++i) {
        if (required[i]) {
          mapping[i] = static_cast<int>(kept.size());
          kept.push_back(op->projections[i]);
        }
      }
      if (kept.empty()) {
        mapping[0] = 0;
        kept.push_back(op->projections[0]);
      }
      std::vector<bool> child_req(op->children[0]->output.size(), false);
      for (const NamedExpr& p : kept) {
        std::vector<int> refs;
        p.expr->CollectColumnIndices(&refs);
        for (int r : refs) child_req[r] = true;
      }
      VIZQ_ASSIGN_OR_RETURN(
          std::vector<int> child_map,
          PruneNode(&op->children[0], child_req, dup_insensitive,
                    enable_join_culling));
      for (NamedExpr& p : kept) {
        p.expr = RemapColumns(p.expr, child_map);
      }
      op->projections = std::move(kept);
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return mapping;
    }
    case LogicalKind::kJoin: {
      int nleft = static_cast<int>(op->children[0]->output.size());
      int nright = static_cast<int>(op->children[1]->output.size());
      bool left_needed = false, right_needed = false;
      for (int i = 0; i < old_width; ++i) {
        if (!required[i]) continue;
        if (i < nleft) {
          left_needed = true;
        } else {
          right_needed = true;
        }
      }

      // Join culling (§4.1.2, §6): under assumed referential integrity an
      // inner join to the dimension adds no rows and filters none, so a
      // side whose columns are unused can be removed. Culling the fact
      // (left) side additionally requires a duplicate-insensitive consumer
      // since dimension rows may match many fact rows.
      if (enable_join_culling && op->referential &&
          op->join_type == JoinType::kInner) {
        if (!right_needed) {
          std::vector<bool> lreq(required.begin(), required.begin() + nleft);
          VIZQ_ASSIGN_OR_RETURN(
              std::vector<int> lmap,
              PruneNode(&op->children[0], lreq, dup_insensitive,
                        enable_join_culling));
          std::vector<int> mapping(old_width, -1);
          for (int i = 0; i < nleft; ++i) mapping[i] = lmap[i];
          *node = op->children[0];
          return mapping;
        }
        if (!left_needed && dup_insensitive) {
          std::vector<bool> rreq(required.begin() + nleft, required.end());
          VIZQ_ASSIGN_OR_RETURN(
              std::vector<int> rmap,
              PruneNode(&op->children[1], rreq, dup_insensitive,
                        enable_join_culling));
          std::vector<int> mapping(old_width, -1);
          for (int i = 0; i < nright; ++i) mapping[nleft + i] = rmap[i];
          *node = op->children[1];
          return mapping;
        }
      }

      std::vector<bool> lreq(nleft, false), rreq(nright, false);
      for (int i = 0; i < old_width; ++i) {
        if (!required[i]) continue;
        if (i < nleft) {
          lreq[i] = true;
        } else {
          rreq[i - nleft] = true;
        }
      }
      for (auto& [lk, rk] : op->join_keys) {
        std::vector<int> refs;
        lk->CollectColumnIndices(&refs);
        for (int r : refs) lreq[r] = true;
        refs.clear();
        rk->CollectColumnIndices(&refs);
        for (int r : refs) rreq[r] = true;
      }
      VIZQ_ASSIGN_OR_RETURN(std::vector<int> lmap,
                            PruneNode(&op->children[0], lreq, false,
                                      enable_join_culling));
      VIZQ_ASSIGN_OR_RETURN(std::vector<int> rmap,
                            PruneNode(&op->children[1], rreq, false,
                                      enable_join_culling));
      for (auto& [lk, rk] : op->join_keys) {
        lk = RemapColumns(lk, lmap);
        rk = RemapColumns(rk, rmap);
      }
      int new_nleft = static_cast<int>(op->children[0]->output.size());
      std::vector<int> mapping(old_width, -1);
      for (int i = 0; i < nleft; ++i) mapping[i] = lmap[i];
      for (int i = 0; i < nright; ++i) {
        mapping[nleft + i] = rmap[i] < 0 ? -1 : new_nleft + rmap[i];
      }
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return mapping;
    }
    case LogicalKind::kAggregate: {
      int ngroups = static_cast<int>(op->group_by.size());
      // Group columns always stay (they define the grouping); unused
      // aggregates are dropped. A split pair's partial states are laid out
      // by position, so a partial or final keeps every aggregate and a
      // final keeps every input column.
      const bool split = op->agg_phase != AggPhase::kComplete;
      std::vector<int> mapping(old_width, -1);
      std::vector<LogicalAgg> kept;
      for (int i = 0; i < ngroups; ++i) mapping[i] = i;
      for (int i = ngroups; i < old_width; ++i) {
        if (split) {
          mapping[i] = i;
        } else if (required[i]) {
          mapping[i] = ngroups + static_cast<int>(kept.size());
          kept.push_back(op->aggregates[i - ngroups]);
        }
      }
      if (!split) op->aggregates = std::move(kept);
      std::vector<bool> child_req(op->children[0]->output.size(),
                                  op->agg_phase == AggPhase::kFinal);
      auto mark = [&](const ExprPtr& e) {
        std::vector<int> refs;
        e->CollectColumnIndices(&refs);
        for (int r : refs) child_req[r] = true;
      };
      for (const NamedExpr& g : op->group_by) mark(g.expr);
      for (const LogicalAgg& a : op->aggregates) {
        if (a.arg != nullptr) mark(a.arg);
      }
      bool child_dup_ok =
          op->aggregates.empty() ||
          std::all_of(op->aggregates.begin(), op->aggregates.end(),
                      [](const LogicalAgg& a) {
                        return a.func == AggFunc::kMin ||
                               a.func == AggFunc::kMax ||
                               a.func == AggFunc::kCountDistinct;
                      });
      VIZQ_ASSIGN_OR_RETURN(
          std::vector<int> child_map,
          PruneNode(&op->children[0], child_req, child_dup_ok,
                    enable_join_culling));
      for (NamedExpr& g : op->group_by) {
        g.expr = RemapColumns(g.expr, child_map);
      }
      for (LogicalAgg& a : op->aggregates) {
        if (a.arg != nullptr) a.arg = RemapColumns(a.arg, child_map);
      }
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return mapping;
    }
    case LogicalKind::kOrder:
    case LogicalKind::kTopN: {
      std::vector<bool> child_req = required;
      for (const LogicalSortKey& k : op->order_keys) {
        std::vector<int> refs;
        k.expr->CollectColumnIndices(&refs);
        for (int r : refs) child_req[r] = true;
      }
      VIZQ_ASSIGN_OR_RETURN(
          std::vector<int> child_map,
          PruneNode(&op->children[0], child_req, false, enable_join_culling));
      for (LogicalSortKey& k : op->order_keys) {
        k.expr = RemapColumns(k.expr, child_map);
      }
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return child_map;
    }
    case LogicalKind::kDistinct:
    case LogicalKind::kExchange: {
      VIZQ_ASSIGN_OR_RETURN(
          std::vector<int> child_map,
          PruneNode(&op->children[0], required, dup_insensitive,
                    enable_join_culling));
      VIZQ_RETURN_IF_ERROR(DeriveOutput(op));
      return child_map;
    }
  }
  return identity();
}

// --- RLE range skipping (§4.3) ---

// kAuto applies range skipping when runs * kRleAutoRunFactor <= rows.
constexpr int64_t kRleAutoRunFactor = 8;

// Folds a Select's conjuncts on one RLE column of the Scan below it into
// that Scan's run predicate, making it a ranged scan.
StatusOr<bool> TryRleRewrite(LogicalOpPtr* node,
                             const OptimizerOptions& options) {
  LogicalOpPtr select = *node;
  if (select->kind != LogicalKind::kSelect) return false;
  LogicalOpPtr scan = select->children[0];
  if (scan->kind != LogicalKind::kScan || scan->run_predicate != nullptr) {
    return false;
  }

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(select->predicate, &conjuncts);

  // Find an RLE-encoded scanned column such that at least one conjunct
  // references only that column.
  int chosen_output_col = -1;
  std::vector<ExprPtr> run_conjuncts, rest;
  for (const ExprPtr& c : conjuncts) {
    std::vector<int> refs;
    c->CollectColumnIndices(&refs);
    bool single = !refs.empty() &&
                  std::all_of(refs.begin(), refs.end(),
                              [&](int r) { return r == refs[0]; });
    if (single && chosen_output_col < 0) {
      int table_col = scan->scan_columns[refs[0]];
      const Column& col = *scan->table->column(table_col);
      if (col.is_rle()) {
        bool apply = false;
        switch (options.rle_index) {
          case OptimizerOptions::RleIndexMode::kOff:
            break;
          case OptimizerOptions::RleIndexMode::kForce:
            apply = true;
            break;
          case OptimizerOptions::RleIndexMode::kAuto:
            apply = static_cast<int64_t>(col.rle_runs().size()) *
                        kRleAutoRunFactor <=
                    col.size();
            break;
        }
        if (apply) chosen_output_col = refs[0];
      }
    }
    if (chosen_output_col >= 0 && single && refs[0] == chosen_output_col) {
      // Remap to a single-column schema (index 0).
      std::vector<int> mapping(scan->output.size(), -1);
      mapping[chosen_output_col] = 0;
      run_conjuncts.push_back(RemapColumns(c, mapping));
    } else {
      rest.push_back(c);
    }
  }
  if (chosen_output_col < 0 || run_conjuncts.empty()) return false;

  scan->rle_column = scan->scan_columns[chosen_output_col];
  scan->run_predicate = CombineConjuncts(run_conjuncts);
  if (rest.empty()) {
    *node = scan;
  } else {
    select->predicate = CombineConjuncts(rest);
  }
  return true;
}

Status RleIndexPass(LogicalOpPtr* node, const OptimizerOptions& options) {
  VIZQ_RETURN_IF_ERROR(TryRleRewrite(node, options).status());
  for (LogicalOpPtr& c : (*node)->children) {
    VIZQ_RETURN_IF_ERROR(RleIndexPass(&c, options));
  }
  return OkStatus();
}

// --- encoding-aware execution (DESIGN.md §11) ---

// The pattern DecideEncodedExec looks for: Aggregate → [Select]* → Scan
// (full or ranged) where every group key is a bare reference to a column
// with a small dense domain (DenseKeyDomain). `candidate` means the pattern
// matched; `skip` names the first failed check (kNone when every gate
// passed too).
struct EncodedCandidate {
  bool candidate = false;
  EncodedSkip skip = EncodedSkip::kNone;
  LogicalOp* scan = nullptr;
  std::vector<LogicalOp*> selects;  // outermost first
  std::vector<int> key_columns;     // child-schema index per group key
  std::vector<int64_t> key_cards;   // domain size per group key
  std::vector<int64_t> key_mins;    // value of digit 1 per group key
  int64_t cells = 1;                // prod(card + 1)
  // Classified conjuncts, parallel to `selects`.
  std::vector<std::vector<EncodedConjunct>> conjuncts;
};

// The dense domain of a group-key column: a dictionary's tokens [0, size),
// or an integer payload's (bool, int64, date) [min, max] from its stats.
// `card` saturates below INT64_MAX, far over any cell cap, so a wide span
// never overflows. Stats of a loaded file are unchecked; the dense
// aggregate rejects a value outside them at run time.
bool DenseKeyDomain(const Column& col, int64_t* min, int64_t* card) {
  if (col.is_dictionary_string()) {
    *min = 0;
    *card = col.dictionary()->size();
    return true;
  }
  const TypeKind kind = col.type().kind;
  const ColumnStats& stats = col.stats();
  if ((kind != TypeKind::kBool && kind != TypeKind::kInt64 &&
       kind != TypeKind::kDate) ||
      !stats.has_min_max || !stats.min.is_int() || !stats.max.is_int() ||
      stats.max.int_value() < stats.min.int_value()) {
    return false;
  }
  const uint64_t span = static_cast<uint64_t>(stats.max.int_value()) -
                        static_cast<uint64_t>(stats.min.int_value());
  constexpr int64_t kMaxCard = std::numeric_limits<int64_t>::max() - 1;
  *min = stats.min.int_value();
  *card = span >= static_cast<uint64_t>(kMaxCard)
              ? kMaxCard
              : static_cast<int64_t>(span) + 1;
  return true;
}

// Analyzes a non-final Aggregate.
EncodedCandidate AnalyzeEncodedCandidate(LogicalOp* op,
                                         const OptimizerOptions& options) {
  EncodedCandidate cand;
  auto skip = [&cand](EncodedSkip why) {
    cand.skip = why;
    return cand;
  };
  if (op->group_by.empty()) return skip(EncodedSkip::kNoGroupKeys);
  // Walk the child chain: Selects over a table scan. A ranged scan
  // qualifies too: range skipping picks the rows, then the encoded Select
  // and the dense Aggregate run on them.
  LogicalOp* cur = op->children.empty() ? nullptr : op->children[0].get();
  while (cur != nullptr && cur->kind == LogicalKind::kSelect) {
    cand.selects.push_back(cur);
    cur = cur->children.empty() ? nullptr : cur->children[0].get();
  }
  if (cur == nullptr || cur->kind != LogicalKind::kScan ||
      cur->table == nullptr) {
    return skip(EncodedSkip::kNotScanChain);
  }
  cand.scan = cur;
  const Table& table = *cur->table;
  int num_cols = static_cast<int>(cur->scan_columns.size());

  auto table_column = [&](int child_col) -> const Column* {
    if (child_col < 0 || child_col >= num_cols) return nullptr;
    return table.column(cur->scan_columns[child_col]).get();
  };

  // Every group key must be a bare reference to a dense-domain column.
  for (const NamedExpr& g : op->group_by) {
    const Column* col = g.expr->kind == ExprKind::kColumnRef
                            ? table_column(g.expr->column_index)
                            : nullptr;
    int64_t min = 0, card = 0;
    if (col == nullptr || !DenseKeyDomain(*col, &min, &card)) {
      return skip(EncodedSkip::kKeyNotDense);
    }
    cand.key_columns.push_back(g.expr->column_index);
    cand.key_cards.push_back(card);
    cand.key_mins.push_back(min);
  }
  cand.candidate = true;

  // Gate 1: the dense cell space must fit under the cap (overflow-safe).
  int64_t cap = options.encoded_group_cells_max;
  for (int64_t card : cand.key_cards) {
    if (card + 1 > cap / cand.cells) return skip(EncodedSkip::kCellCap);
    cand.cells *= card + 1;
  }

  // Gate 2: aggregate arguments. Bare column refs fold run-aware; computed
  // args must only touch columns the scan will emit flat (non-RLE).
  for (const LogicalAgg& a : op->aggregates) {
    if (a.arg == nullptr) continue;
    if (a.arg->kind == ExprKind::kColumnRef) {
      if (table_column(a.arg->column_index) == nullptr) {
        return skip(EncodedSkip::kArgOverRle);
      }
      continue;
    }
    std::vector<int> refs;
    a.arg->CollectColumnIndices(&refs);
    for (int c : refs) {
      const Column* col = table_column(c);
      if (col == nullptr || col->is_rle()) {
        return skip(EncodedSkip::kArgOverRle);
      }
    }
  }

  // Gate 3: classify filter conjuncts. Single-column conjuncts over dict
  // columns evaluate per token, over RLE columns per run; everything else
  // runs per row and must only touch flat columns.
  for (LogicalOp* sel : cand.selects) {
    std::vector<ExprPtr> parts;
    SplitConjuncts(sel->predicate, &parts);
    std::vector<EncodedConjunct> classified;
    for (const ExprPtr& e : parts) {
      std::vector<int> refs;
      e->CollectColumnIndices(&refs);
      std::sort(refs.begin(), refs.end());
      refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
      EncodedConjunct ec;
      ec.expr = e;
      if (refs.size() == 1) {
        const Column* col = table_column(refs[0]);
        if (col == nullptr) return skip(EncodedSkip::kConjunctOverRle);
        ec.column_index = refs[0];
        if (col->is_dictionary_string()) {
          ec.kind = EncodedConjunct::Kind::kTokenBitmap;
        } else if (col->is_rle()) {
          ec.kind = EncodedConjunct::Kind::kPerRun;
        } else {
          ec.kind = EncodedConjunct::Kind::kPerRow;
        }
      } else {
        ec.kind = EncodedConjunct::Kind::kPerRow;
        for (int c : refs) {
          const Column* col = table_column(c);
          if (col == nullptr || col->is_rle()) {
            return skip(EncodedSkip::kConjunctOverRle);
          }
        }
      }
      classified.push_back(std::move(ec));
    }
    cand.conjuncts.push_back(std::move(classified));
  }
  return cand;
}

void DecideEncodedNode(const LogicalOpPtr& node,
                       const OptimizerOptions& options,
                       EncodedExecDecision* out) {
  LogicalOp* op = node.get();
  if (op->kind == LogicalKind::kAggregate &&
      op->agg_phase != AggPhase::kFinal) {
    EncodedCandidate cand = AnalyzeEncodedCandidate(op, options);
    // Streaming aggregation keeps precedence where it actually executes
    // (complete-phase, sorted input): it pipelines and never materializes
    // a table. Partial-phase nodes in parallel plans never run streaming,
    // so the dense path may claim them even if prefer_streaming survived
    // the phase split.
    if (cand.candidate && op->prefer_streaming &&
        op->agg_phase == AggPhase::kComplete) {
      cand.skip = EncodedSkip::kStreaming;
    }
    op->encoded_skip = cand.skip;
    if (cand.skip == EncodedSkip::kNone) {
      op->use_encoded_agg = true;
      op->encoded_key_columns = cand.key_columns;
      op->encoded_key_cards = cand.key_cards;
      op->encoded_key_mins = cand.key_mins;
      op->encoded_cells = cand.cells;
      cand.scan->emit_encoded = true;
      for (size_t i = 0; i < cand.selects.size(); ++i) {
        cand.selects[i]->encoded_filter = true;
        cand.selects[i]->encoded_conjuncts = cand.conjuncts[i];
      }
      ++out->plans;
    } else {
      ++out->skipped[static_cast<int>(cand.skip)];
      if (cand.candidate && cand.skip != EncodedSkip::kStreaming) {
        ++out->fallbacks;
      }
    }
  }
  for (const LogicalOpPtr& c : op->children) {
    DecideEncodedNode(c, options, out);
  }
}

// --- aggregation below a join (DESIGN.md §11) ---

// Rewrites Aggregate(G; A) over Join(L, R) into
//   Aggregate[kFinal](G; A)
//     Project [G..., partial states...]
//       Join(Aggregate[kPartial](K_L ∪ G_L; A) over L, R)
// where K_L are the join's left keys and G_L the group keys read from L,
// when that partial runs dense over L's scan chain. Fact rows that agree
// on K_L join exactly the same dimension rows, so one partial row stands
// for all of them: the join repeats its states as often as it would have
// repeated each row, NULL and unmatched keys included, and the final merge
// sums the repeats. Hence every aggregate must be re-aggregable and read
// only L.
StatusOr<bool> TryAggregateBelowJoin(const LogicalOpPtr& agg,
                                     const OptimizerOptions& options) {
  if (agg->kind != LogicalKind::kAggregate ||
      agg->agg_phase != AggPhase::kComplete ||
      agg->children[0]->kind != LogicalKind::kJoin) {
    return false;
  }
  LogicalOpPtr join = agg->children[0];
  const LogicalOpPtr& left = join->children[0];
  const int nleft = static_cast<int>(left->output.size());
  for (const LogicalAgg& a : agg->aggregates) {
    if (!IsReaggregable(a.func)) return false;
    if (a.arg == nullptr) continue;
    std::vector<int> refs;
    a.arg->CollectColumnIndices(&refs);
    for (int r : refs) {
      if (r >= nleft) return false;
    }
  }
  // The partial's keys: left columns, join keys first, each once.
  std::vector<int> keys;
  auto key_pos = [&keys](int c) {
    return static_cast<int>(std::find(keys.begin(), keys.end(), c) -
                            keys.begin());
  };
  auto add_key = [&](int c) {
    if (key_pos(c) == static_cast<int>(keys.size())) keys.push_back(c);
  };
  for (const auto& [lk, rk] : join->join_keys) {
    if (lk->kind != ExprKind::kColumnRef) return false;
    add_key(lk->column_index);
  }
  for (const NamedExpr& g : agg->group_by) {
    if (g.expr->kind != ExprKind::kColumnRef) return false;
    if (g.expr->column_index < nleft) add_key(g.expr->column_index);
  }

  auto partial = std::make_shared<LogicalOp>();
  partial->kind = LogicalKind::kAggregate;
  partial->agg_phase = AggPhase::kPartial;
  partial->children = {left};
  partial->bound = true;
  for (int c : keys) {
    partial->group_by.push_back(
        NamedExpr{left->output[c].name, ColIdx(c, left->output[c].type)});
  }
  partial->aggregates = agg->aggregates;
  VIZQ_RETURN_IF_ERROR(DeriveOutput(partial.get()));
  if (AnalyzeEncodedCandidate(partial.get(), options).skip !=
      EncodedSkip::kNone) {
    return false;
  }

  for (auto& [lk, rk] : join->join_keys) {
    lk = ColIdx(key_pos(lk->column_index), lk->result_type);
  }
  join->children[0] = partial;
  VIZQ_RETURN_IF_ERROR(DeriveOutput(join.get()));

  // [G..., states...]: the positional input a final aggregate reads.
  const int nkeys = static_cast<int>(keys.size());
  const int npartial = static_cast<int>(partial->output.size());
  auto project = std::make_shared<LogicalOp>();
  project->kind = LogicalKind::kProject;
  project->children = {join};
  project->bound = true;
  for (const NamedExpr& g : agg->group_by) {
    int c = g.expr->column_index;
    int at = c < nleft ? key_pos(c) : npartial + (c - nleft);
    project->projections.push_back(
        NamedExpr{g.name, ColIdx(at, g.expr->result_type)});
  }
  for (int c = nkeys; c < npartial; ++c) {
    project->projections.push_back(NamedExpr{
        partial->output[c].name, ColIdx(c, partial->output[c].type)});
  }
  VIZQ_RETURN_IF_ERROR(DeriveOutput(project.get()));

  const int ngroups = static_cast<int>(agg->group_by.size());
  for (int i = 0; i < ngroups; ++i) {
    agg->group_by[i].expr = ColIdx(i, project->output[i].type);
  }
  int col = ngroups;
  for (LogicalAgg& a : agg->aggregates) {
    const int width =
        static_cast<int>(PartialStateColumns({a.func, a.arg, a.name}).size());
    a.arg = ColIdx(col, project->output[col].type);
    col += width;
  }
  agg->agg_phase = AggPhase::kFinal;
  agg->children[0] = project;
  VIZQ_RETURN_IF_ERROR(DeriveOutput(agg.get()));
  return true;
}

Status AggregateBelowJoinPass(const LogicalOpPtr& node,
                              const OptimizerOptions& options) {
  VIZQ_RETURN_IF_ERROR(TryAggregateBelowJoin(node, options).status());
  for (const LogicalOpPtr& c : node->children) {
    VIZQ_RETURN_IF_ERROR(AggregateBelowJoinPass(c, options));
  }
  return OkStatus();
}

// --- streaming aggregate selection ---

Status StreamingNode(LogicalOpPtr* node) {
  for (LogicalOpPtr& c : (*node)->children) {
    VIZQ_RETURN_IF_ERROR(StreamingNode(&c));
  }
  LogicalOp* op = node->get();
  if (op->kind == LogicalKind::kAggregate &&
      op->agg_phase == AggPhase::kComplete) {
    PlanProperties child_props = DeriveProperties(*op->children[0]);
    if (GroupingSatisfiedBySort(*op, child_props)) {
      op->prefer_streaming = true;
    }
  }
  return OkStatus();
}

// --- redundant order removal ---

Status OrderNode(LogicalOpPtr* node) {
  LogicalOp* op = node->get();
  // An Order feeding a hash aggregate, another Order, or a TopN is useless
  // (§4.1.2 "removal of unnecessary orderings") — unless it is exactly what
  // enables a streaming aggregate.
  bool consumer_reorders =
      op->kind == LogicalKind::kOrder || op->kind == LogicalKind::kTopN ||
      (op->kind == LogicalKind::kAggregate && !op->prefer_streaming);
  if (consumer_reorders && !op->children.empty() &&
      op->children[0]->kind == LogicalKind::kOrder) {
    op->children[0] = op->children[0]->children[0];
  }
  for (LogicalOpPtr& c : op->children) {
    VIZQ_RETURN_IF_ERROR(OrderNode(&c));
  }
  return OkStatus();
}

}  // namespace

Status FoldConstantsPass(LogicalOpPtr* root) { return FoldNode(root); }

Status SelectPushdownPass(LogicalOpPtr* root) { return PushdownNode(root); }

Status ColumnPruningPass(LogicalOpPtr* root, bool enable_join_culling) {
  std::vector<bool> all((*root)->output.size(), true);
  return PruneNode(root, all, false, enable_join_culling).status();
}

Status StreamingAggPass(LogicalOpPtr* root) { return StreamingNode(root); }

EncodedExecDecision DecideEncodedExec(const LogicalOpPtr& root,
                                      const OptimizerOptions& options) {
  EncodedExecDecision decision;
  if (root == nullptr || !options.enable_encoded_exec) return decision;
  DecideEncodedNode(root, options, &decision);
  return decision;
}

Status OrderRemovalPass(LogicalOpPtr* root) { return OrderNode(root); }

Status OptimizePlan(LogicalOpPtr* root, const OptimizerOptions& options) {
  if (!(*root)->bound) {
    return FailedPrecondition("OptimizePlan requires a bound plan");
  }
  if (options.enable_constant_folding) {
    VIZQ_RETURN_IF_ERROR(FoldConstantsPass(root));
  }
  if (options.enable_select_pushdown) {
    VIZQ_RETURN_IF_ERROR(SelectPushdownPass(root));
  }
  if (options.enable_column_pruning) {
    VIZQ_RETURN_IF_ERROR(
        ColumnPruningPass(root, options.enable_join_culling));
    // Pushdown again: pruning can reshape projections.
    if (options.enable_select_pushdown) {
      VIZQ_RETURN_IF_ERROR(SelectPushdownPass(root));
    }
  }
  VIZQ_RETURN_IF_ERROR(RleIndexPass(root, options));
  if (options.enable_encoded_exec) {
    VIZQ_RETURN_IF_ERROR(AggregateBelowJoinPass(*root, options));
  }
  if (options.enable_streaming_agg) {
    VIZQ_RETURN_IF_ERROR(StreamingAggPass(root));
  }
  if (options.enable_order_removal) {
    VIZQ_RETURN_IF_ERROR(OrderRemovalPass(root));
  }
  return OkStatus();
}

}  // namespace vizq::tde
