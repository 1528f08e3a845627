#include "src/tde/plan/properties.h"

#include <algorithm>

namespace vizq::tde {

double EstimateSelectivity(const Expr& predicate) {
  switch (predicate.kind) {
    case ExprKind::kBinary:
      switch (predicate.binary_op) {
        case BinaryOp::kEq: return 0.05;
        case BinaryOp::kNe: return 0.95;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return 0.3;
        case BinaryOp::kAnd:
          return EstimateSelectivity(*predicate.children[0]) *
                 EstimateSelectivity(*predicate.children[1]);
        case BinaryOp::kOr: {
          double a = EstimateSelectivity(*predicate.children[0]);
          double b = EstimateSelectivity(*predicate.children[1]);
          return std::min(1.0, a + b - a * b);
        }
        default:
          return 0.5;
      }
    case ExprKind::kIn:
      return std::min(1.0, 0.02 * static_cast<double>(predicate.in_set.size()));
    case ExprKind::kIsNull:
      return 0.05;
    case ExprKind::kUnary:
      if (predicate.unary_op == UnaryOp::kNot) {
        return 1.0 - EstimateSelectivity(*predicate.children[0]);
      }
      return 0.5;
    case ExprKind::kLiteral:
      if (predicate.literal.is_bool()) {
        return predicate.literal.bool_value() ? 1.0 : 0.0;
      }
      return 0.5;
    default:
      return 0.5;
  }
}

PlanProperties DeriveProperties(const LogicalOp& op) {
  PlanProperties props;
  switch (op.kind) {
    case LogicalKind::kScan: {
      // A ranged scan's matching-row count is unknown until execution.
      props.estimated_rows = static_cast<double>(op.table->num_rows()) *
                             (op.run_predicate != nullptr ? 0.1 : 1.0);
      // Map the table's sort columns through the scan's projection while
      // they stay contiguous from the front.
      for (int sc : op.table->sort_columns()) {
        auto it = std::find(op.scan_columns.begin(), op.scan_columns.end(), sc);
        if (it == op.scan_columns.end()) break;
        props.sorted_by.push_back(
            static_cast<int>(it - op.scan_columns.begin()));
      }
      // A partitioned scan feeding an Exchange loses global order, but
      // within a fraction order holds; sortedness here describes the
      // serial stream, and the parallelizer/Exchange clears it when it
      // applies (§4.2.4).
      break;
    }
    case LogicalKind::kSelect: {
      props = DeriveProperties(*op.children[0]);
      props.estimated_rows *= EstimateSelectivity(*op.predicate);
      break;
    }
    case LogicalKind::kProject: {
      PlanProperties child = DeriveProperties(*op.children[0]);
      props.estimated_rows = child.estimated_rows;
      // Keep sort columns that project as pure pass-through refs.
      for (int sc : child.sorted_by) {
        int mapped = -1;
        for (size_t i = 0; i < op.projections.size(); ++i) {
          const Expr& e = *op.projections[i].expr;
          if (e.kind == ExprKind::kColumnRef && e.column_index == sc) {
            mapped = static_cast<int>(i);
            break;
          }
        }
        if (mapped < 0) break;
        props.sorted_by.push_back(mapped);
      }
      break;
    }
    case LogicalKind::kJoin: {
      PlanProperties left = DeriveProperties(*op.children[0]);
      PlanProperties right = DeriveProperties(*op.children[1]);
      // The probe side streams through in order; left columns keep their
      // indices in the join output.
      props.sorted_by = op.referential ? left.sorted_by : std::vector<int>{};
      props.estimated_rows =
          op.referential ? left.estimated_rows
                         : left.estimated_rows *
                               std::max(1.0, right.estimated_rows / 100.0);
      break;
    }
    case LogicalKind::kAggregate: {
      PlanProperties child = DeriveProperties(*op.children[0]);
      props.estimated_rows =
          std::min(child.estimated_rows,
                   std::max(1.0, child.estimated_rows / 16.0));
      if (op.prefer_streaming) {
        // Streaming aggregation emits groups in input order: sorted by the
        // group columns (output indices 0..k-1).
        for (size_t i = 0; i < op.group_by.size(); ++i) {
          props.sorted_by.push_back(static_cast<int>(i));
        }
      }
      break;
    }
    case LogicalKind::kOrder:
    case LogicalKind::kTopN: {
      PlanProperties child = DeriveProperties(*op.children[0]);
      props.estimated_rows =
          op.kind == LogicalKind::kTopN
              ? std::min<double>(child.estimated_rows,
                                 static_cast<double>(op.limit))
              : child.estimated_rows;
      for (const LogicalSortKey& k : op.order_keys) {
        if (!k.ascending) break;  // we only track ascending sortedness
        if (k.expr->kind != ExprKind::kColumnRef) break;
        props.sorted_by.push_back(k.expr->column_index);
      }
      break;
    }
    case LogicalKind::kDistinct: {
      PlanProperties child = DeriveProperties(*op.children[0]);
      props.estimated_rows = std::max(1.0, child.estimated_rows / 16.0);
      break;
    }
    case LogicalKind::kExchange: {
      PlanProperties child = DeriveProperties(*op.children[0]);
      props.estimated_rows = child.estimated_rows;
      // The Exchange operator disturbs the sorting properties (§4.2.4).
      props.sorted_by.clear();
      break;
    }
  }
  return props;
}

bool GroupingSatisfiedBySort(const LogicalOp& aggregate,
                             const PlanProperties& child_props) {
  size_t k = aggregate.group_by.size();
  if (k == 0) return true;  // scalar aggregation streams trivially
  if (child_props.sorted_by.size() < k) return false;
  std::vector<int> group_cols;
  for (const NamedExpr& g : aggregate.group_by) {
    if (g.expr->kind != ExprKind::kColumnRef || g.expr->column_index < 0) {
      return false;
    }
    group_cols.push_back(g.expr->column_index);
  }
  // First k sort columns must be exactly the group column set.
  for (size_t i = 0; i < k; ++i) {
    if (std::find(group_cols.begin(), group_cols.end(),
                  child_props.sorted_by[i]) == group_cols.end()) {
      return false;
    }
  }
  return true;
}

namespace {

// Maps output column `idx` of `op` down to (scan node, table column index),
// passing only through flow operators. Returns nullptr when blocked. A
// ranged scan blocks too: its fractions are balanced shares of the matching
// runs, not group-aligned slices, so range partitioning cannot apply.
LogicalOp* TraceColumnToScan(const LogicalOp& op, int idx, int* table_col) {
  switch (op.kind) {
    case LogicalKind::kScan:
      if (op.run_predicate != nullptr || idx < 0 ||
          idx >= static_cast<int>(op.scan_columns.size())) {
        return nullptr;
      }
      *table_col = op.scan_columns[idx];
      return const_cast<LogicalOp*>(&op);
    case LogicalKind::kSelect:
      return TraceColumnToScan(*op.children[0], idx, table_col);
    case LogicalKind::kProject: {
      const Expr& e = *op.projections[idx].expr;
      if (e.kind != ExprKind::kColumnRef || e.column_index < 0) return nullptr;
      return TraceColumnToScan(*op.children[0], e.column_index, table_col);
    }
    case LogicalKind::kJoin: {
      int nleft = static_cast<int>(op.children[0]->output.size());
      if (idx < nleft) {
        return TraceColumnToScan(*op.children[0], idx, table_col);
      }
      return nullptr;  // right-side columns are materialized by the build
    }
    default:
      return nullptr;
  }
}

}  // namespace

LogicalOp* TraceGroupColumnsToScan(const LogicalOp& aggregate,
                                   std::vector<int>* scan_column_indices) {
  scan_column_indices->clear();
  LogicalOp* scan = nullptr;
  for (const NamedExpr& g : aggregate.group_by) {
    if (g.expr->kind != ExprKind::kColumnRef || g.expr->column_index < 0) {
      return nullptr;
    }
    int table_col = -1;
    LogicalOp* s =
        TraceColumnToScan(*aggregate.children[0], g.expr->column_index,
                          &table_col);
    if (s == nullptr) return nullptr;
    if (scan == nullptr) {
      scan = s;
    } else if (scan != s) {
      return nullptr;  // group columns span multiple scans
    }
    scan_column_indices->push_back(table_col);
  }
  return scan;
}

}  // namespace vizq::tde
