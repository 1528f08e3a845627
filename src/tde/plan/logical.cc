#include "src/tde/plan/logical.h"

namespace vizq::tde {

const char* LogicalKindToString(LogicalKind k) {
  switch (k) {
    case LogicalKind::kScan: return "Scan";
    case LogicalKind::kSelect: return "Select";
    case LogicalKind::kProject: return "Project";
    case LogicalKind::kJoin: return "Join";
    case LogicalKind::kAggregate: return "Aggregate";
    case LogicalKind::kOrder: return "Order";
    case LogicalKind::kTopN: return "TopN";
    case LogicalKind::kDistinct: return "Distinct";
    case LogicalKind::kExchange: return "Exchange";
  }
  return "?";
}

const char* EncodedSkipToString(EncodedSkip s) {
  switch (s) {
    case EncodedSkip::kNone: return "none";
    case EncodedSkip::kNoGroupKeys: return "no_group_keys";
    case EncodedSkip::kNotScanChain: return "not_scan_chain";
    case EncodedSkip::kKeyNotDense: return "key_not_dense";
    case EncodedSkip::kCellCap: return "cell_cap";
    case EncodedSkip::kArgOverRle: return "arg_over_rle";
    case EncodedSkip::kConjunctOverRle: return "conjunct_over_rle";
    case EncodedSkip::kStreaming: return "streaming";
  }
  return "unknown";
}

BatchSchema LogicalOp::OutputBatchSchema() const {
  BatchSchema schema;
  for (const OutputColumn& c : output) {
    schema.names.push_back(c.name);
    schema.prototypes.emplace_back(c.type);
  }
  return schema;
}

int LogicalOp::FindOutputColumn(const std::string& name) const {
  for (size_t i = 0; i < output.size(); ++i) {
    if (output[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

LogicalOpPtr LogicalOp::Clone() const {
  auto copy = std::make_shared<LogicalOp>(*this);
  copy->children.clear();
  for (const LogicalOpPtr& c : children) {
    copy->children.push_back(c->Clone());
  }
  return copy;
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = pad + LogicalKindToString(kind);
  switch (kind) {
    case LogicalKind::kScan:
      out += " " + table_path;
      if (scan_dop > 1) {
        out += " dop=" + std::to_string(scan_dop);
        switch (partition) {
          case PartitionKind::kRangeOnSortPrefix:
            out += " partition=range";
            break;
          case PartitionKind::kMorsel:
            out += " partition=morsel";
            break;
          default:
            out += " partition=random";
            break;
        }
      }
      if (run_predicate != nullptr) {
        out += " runs[" + run_predicate->ToString() + "]";
      }
      if (!scan_columns.empty()) {
        out += " cols[";
        for (size_t i = 0; i < scan_columns.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(scan_columns[i]);
        }
        out += "]";
      }
      break;
    case LogicalKind::kSelect:
      out += " " + (predicate != nullptr ? predicate->ToString() : "?");
      break;
    case LogicalKind::kProject: {
      out += " [";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += projections[i].name + "=" + projections[i].expr->ToString();
      }
      out += "]";
      break;
    }
    case LogicalKind::kJoin: {
      out += join_type == JoinType::kInner ? " inner" : " left";
      if (referential) out += " referential";
      out += " on [";
      for (size_t i = 0; i < join_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += join_keys[i].first->ToString() + "=" +
               join_keys[i].second->ToString();
      }
      out += "]";
      break;
    }
    case LogicalKind::kAggregate: {
      switch (agg_phase) {
        case AggPhase::kComplete: break;
        case AggPhase::kPartial: out += "(partial)"; break;
        case AggPhase::kFinal: out += "(final)"; break;
      }
      if (prefer_streaming) out += "(streaming)";
      out += " by[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_by[i].name;
      }
      out += "] aggs[";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out += ", ";
        out += aggregates[i].name + "=" +
               std::string(AggFuncToString(aggregates[i].func));
        if (aggregates[i].arg != nullptr) {
          out += "(" + aggregates[i].arg->ToString() + ")";
        }
      }
      out += "]";
      break;
    }
    case LogicalKind::kOrder:
    case LogicalKind::kTopN: {
      if (kind == LogicalKind::kTopN) out += " " + std::to_string(limit);
      out += " keys[";
      for (size_t i = 0; i < order_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += order_keys[i].expr->ToString();
        out += order_keys[i].ascending ? " asc" : " desc";
      }
      out += "]";
      break;
    }
    case LogicalKind::kDistinct:
      break;
    case LogicalKind::kExchange:
      out += " dop=" + std::to_string(dop);
      break;
  }
  out += "\n";
  for (const LogicalOpPtr& c : children) {
    out += c->ToString(indent + 1);
  }
  return out;
}

namespace {
LogicalOpPtr NewOp(LogicalKind kind) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = kind;
  return op;
}
}  // namespace

LogicalOpPtr MakeScan(std::string table_path) {
  auto op = NewOp(LogicalKind::kScan);
  op->table_path = std::move(table_path);
  return op;
}

LogicalOpPtr MakeSelect(ExprPtr predicate, LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kSelect);
  op->predicate = std::move(predicate);
  op->children = {std::move(child)};
  return op;
}

LogicalOpPtr MakeProject(std::vector<NamedExpr> projections,
                         LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kProject);
  op->projections = std::move(projections);
  op->children = {std::move(child)};
  return op;
}

LogicalOpPtr MakeJoin(JoinType type,
                      std::vector<std::pair<ExprPtr, ExprPtr>> keys,
                      LogicalOpPtr left, LogicalOpPtr right,
                      bool referential) {
  auto op = NewOp(LogicalKind::kJoin);
  op->join_type = type;
  op->join_keys = std::move(keys);
  op->children = {std::move(left), std::move(right)};
  op->referential = referential;
  return op;
}

LogicalOpPtr MakeAggregate(std::vector<NamedExpr> group_by,
                           std::vector<LogicalAgg> aggregates,
                           LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kAggregate);
  op->group_by = std::move(group_by);
  op->aggregates = std::move(aggregates);
  op->children = {std::move(child)};
  return op;
}

LogicalOpPtr MakeOrder(std::vector<LogicalSortKey> keys, LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kOrder);
  op->order_keys = std::move(keys);
  op->children = {std::move(child)};
  return op;
}

LogicalOpPtr MakeTopN(int64_t limit, std::vector<LogicalSortKey> keys,
                      LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kTopN);
  op->limit = limit;
  op->order_keys = std::move(keys);
  op->children = {std::move(child)};
  return op;
}

LogicalOpPtr MakeDistinct(LogicalOpPtr child) {
  auto op = NewOp(LogicalKind::kDistinct);
  op->children = {std::move(child)};
  return op;
}

}  // namespace vizq::tde
