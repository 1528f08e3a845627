#include "src/tde/plan/binder.h"

namespace vizq::tde {

namespace {

Status BindNode(const LogicalOpPtr& op, const Database& db);

Status BindScan(LogicalOp* op, const Database& db) {
  if (op->table == nullptr) {
    VIZQ_ASSIGN_OR_RETURN(op->table, db.GetTable(op->table_path));
  }
  if (op->scan_columns.empty()) {
    op->scan_columns.resize(op->table->num_columns());
    for (int i = 0; i < op->table->num_columns(); ++i) {
      op->scan_columns[i] = i;
    }
  }
  return OkStatus();
}

}  // namespace

Status DeriveOutput(LogicalOp* op) {
  op->output.clear();
  switch (op->kind) {
    case LogicalKind::kScan:
      for (int ci : op->scan_columns) {
        const ColumnInfo& info = op->table->column_info(ci);
        op->output.push_back(OutputColumn{info.name, info.type});
      }
      break;
    case LogicalKind::kSelect:
    case LogicalKind::kDistinct:
    case LogicalKind::kOrder:
    case LogicalKind::kTopN:
    case LogicalKind::kExchange:
      op->output = op->children[0]->output;
      break;
    case LogicalKind::kProject:
      for (const NamedExpr& p : op->projections) {
        op->output.push_back(OutputColumn{p.name, p.expr->result_type});
      }
      break;
    case LogicalKind::kJoin: {
      const auto& lout = op->children[0]->output;
      const auto& rout = op->children[1]->output;
      op->output = lout;
      for (const OutputColumn& rc : rout) {
        std::string name = rc.name;
        for (const OutputColumn& lc : lout) {
          if (lc.name == name) {
            name = "r." + name;
            break;
          }
        }
        op->output.push_back(OutputColumn{name, rc.type});
      }
      break;
    }
    case LogicalKind::kAggregate: {
      for (const NamedExpr& g : op->group_by) {
        op->output.push_back(OutputColumn{g.name, g.expr->result_type});
      }
      for (const LogicalAgg& a : op->aggregates) {
        DataType arg_type =
            a.arg != nullptr ? a.arg->result_type : DataType::Int64();
        if (op->agg_phase == AggPhase::kPartial) {
          AggSpec spec{a.func, a.arg, a.name};
          for (const ResultColumn& rc : PartialStateColumns(spec)) {
            op->output.push_back(OutputColumn{rc.name, rc.type});
          }
        } else {
          op->output.push_back(
              OutputColumn{a.name, AggResultType(a.func, arg_type)});
        }
      }
      break;
    }
  }
  return OkStatus();
}

namespace {

Status BindNode(const LogicalOpPtr& op, const Database& db) {
  if (op->bound) return OkStatus();
  for (const LogicalOpPtr& c : op->children) {
    VIZQ_RETURN_IF_ERROR(BindNode(c, db));
  }

  switch (op->kind) {
    case LogicalKind::kScan:
      VIZQ_RETURN_IF_ERROR(BindScan(op.get(), db));
      break;
    case LogicalKind::kSelect: {
      BatchSchema child_schema = op->children[0]->OutputBatchSchema();
      VIZQ_ASSIGN_OR_RETURN(op->predicate,
                            BindExpr(op->predicate, child_schema));
      if (op->predicate->result_type.kind != TypeKind::kBool) {
        return InvalidArgument("select predicate must be boolean: " +
                               op->predicate->ToString());
      }
      break;
    }
    case LogicalKind::kProject: {
      BatchSchema child_schema = op->children[0]->OutputBatchSchema();
      for (NamedExpr& p : op->projections) {
        VIZQ_ASSIGN_OR_RETURN(p.expr, BindExpr(p.expr, child_schema));
      }
      break;
    }
    case LogicalKind::kJoin: {
      BatchSchema ls = op->children[0]->OutputBatchSchema();
      BatchSchema rs = op->children[1]->OutputBatchSchema();
      if (op->join_keys.empty()) {
        return InvalidArgument("join requires at least one key pair");
      }
      for (auto& [lk, rk] : op->join_keys) {
        VIZQ_ASSIGN_OR_RETURN(lk, BindExpr(lk, ls));
        VIZQ_ASSIGN_OR_RETURN(rk, BindExpr(rk, rs));
      }
      break;
    }
    case LogicalKind::kAggregate: {
      BatchSchema child_schema = op->children[0]->OutputBatchSchema();
      for (NamedExpr& g : op->group_by) {
        VIZQ_ASSIGN_OR_RETURN(g.expr, BindExpr(g.expr, child_schema));
      }
      for (LogicalAgg& a : op->aggregates) {
        if (a.arg != nullptr) {
          VIZQ_ASSIGN_OR_RETURN(a.arg, BindExpr(a.arg, child_schema));
          if (a.func == AggFunc::kSum || a.func == AggFunc::kAvg) {
            if (!a.arg->result_type.is_numeric()) {
              return InvalidArgument(std::string(AggFuncToString(a.func)) +
                                     " requires a numeric argument");
            }
          }
        } else if (a.func != AggFunc::kCountStar) {
          return InvalidArgument(std::string(AggFuncToString(a.func)) +
                                 " requires an argument");
        }
      }
      break;
    }
    case LogicalKind::kOrder:
    case LogicalKind::kTopN: {
      BatchSchema child_schema = op->children[0]->OutputBatchSchema();
      for (LogicalSortKey& k : op->order_keys) {
        VIZQ_ASSIGN_OR_RETURN(k.expr, BindExpr(k.expr, child_schema));
      }
      if (op->kind == LogicalKind::kTopN && op->limit < 0) {
        return InvalidArgument("topn limit must be non-negative");
      }
      break;
    }
    case LogicalKind::kDistinct:
    case LogicalKind::kExchange:
      break;
  }
  VIZQ_RETURN_IF_ERROR(DeriveOutput(op.get()));
  op->bound = true;
  return OkStatus();
}

}  // namespace

Status BindPlan(const LogicalOpPtr& op, const Database& db) {
  return BindNode(op, db);
}

}  // namespace vizq::tde
