#include "src/tde/exec/analyze.h"

#include <chrono>
#include <sstream>

namespace vizq::tde {

namespace {

// Lowercase per-kind key for the "tde.op.<key>.ms" histograms.
std::string MetricKeyFor(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kScan: return "scan";
    case LogicalKind::kSelect: return "filter";
    case LogicalKind::kProject: return "project";
    case LogicalKind::kJoin: return "join";
    case LogicalKind::kAggregate: return "aggregate";
    case LogicalKind::kOrder: return "sort";
    case LogicalKind::kTopN: return "topn";
    case LogicalKind::kDistinct: return "distinct";
    case LogicalKind::kExchange: return "exchange";
  }
  return "unknown";
}

std::string LabelFor(const LogicalOp& op) {
  std::ostringstream os;
  os << LogicalKindToString(op.kind);
  switch (op.kind) {
    case LogicalKind::kScan:
      os << " " << op.table_path << " [cols=" << op.scan_columns.size();
      if (op.run_predicate != nullptr) os << " runs";
      if (op.scan_dop > 1) os << " dop=" << op.scan_dop;
      if (op.emit_encoded) os << " encoded";
      os << "]";
      break;
    case LogicalKind::kSelect:
      if (op.encoded_filter) os << " [encoded]";
      break;
    case LogicalKind::kJoin:
      os << " [keys=" << op.join_keys.size()
         << (op.referential ? " referential" : "") << "]";
      break;
    case LogicalKind::kAggregate:
      os << " [groups=" << op.group_by.size()
         << " aggs=" << op.aggregates.size();
      if (op.agg_phase == AggPhase::kPartial) os << " phase=partial";
      if (op.agg_phase == AggPhase::kFinal) os << " phase=final";
      if (op.prefer_streaming) os << " streaming";
      if (op.use_encoded_agg) os << " dense";
      if (op.encoded_skip != EncodedSkip::kNone) {
        os << " skip=" << EncodedSkipToString(op.encoded_skip);
      }
      os << "]";
      break;
    case LogicalKind::kTopN:
      os << " [limit=" << op.limit << "]";
      break;
    case LogicalKind::kExchange:
      os << " [dop=" << op.dop << "]";
      break;
    default:
      break;
  }
  return os.str();
}

std::string FormatRows(int64_t rows) {
  return std::to_string(rows);
}

std::string FormatMs(double ms) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << ms;
  return os.str();
}

void RenderNode(const PlanNodeStats& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.label);
  out->append("  (rows=");
  out->append(FormatRows(node.rows_out.load(std::memory_order_relaxed)));
  if (!node.children.empty()) {
    out->append(" rows_in=");
    out->append(FormatRows(node.rows_in()));
  }
  out->append(" batches=");
  out->append(FormatRows(node.batches.load(std::memory_order_relaxed)));
  int64_t opens = node.opens.load(std::memory_order_relaxed);
  if (opens > 1) {
    out->append(" instances=");
    out->append(FormatRows(opens));
  }
  out->append(" time=");
  out->append(FormatMs(node.wall_ms()));
  out->append("ms)\n");
  for (const PlanNodeStats* child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

void Visit(const PlanNodeStats& node,
           const std::function<void(const PlanNodeStats&)>& fn) {
  fn(node);
  for (const PlanNodeStats* child : node.children) Visit(*child, fn);
}

}  // namespace

int64_t PlanNodeStats::rows_in() const {
  int64_t total = 0;
  for (const PlanNodeStats* child : children) {
    total += child->rows_out.load(std::memory_order_relaxed);
  }
  return total;
}

PlanNodeStats* PlanAnalysis::NodeFor(const LogicalOp& op,
                                     PlanNodeStats* parent) {
  auto it = index_.find(&op);
  if (it != index_.end()) return it->second;
  nodes_.push_back(std::make_unique<PlanNodeStats>());
  PlanNodeStats* node = nodes_.back().get();
  node->label = LabelFor(op);
  node->metric_key = MetricKeyFor(op.kind);
  index_.emplace(&op, node);
  if (parent != nullptr) {
    parent->children.push_back(node);
  } else if (root_ == nullptr) {
    root_ = node;
  }
  return node;
}

int64_t PlanAnalysis::root_rows() const {
  return root_ == nullptr ? 0
                          : root_->rows_out.load(std::memory_order_relaxed);
}

std::string PlanAnalysis::ToText() const {
  if (root_ == nullptr) return "(no plan)\n";
  std::string out;
  RenderNode(*root_, 0, &out);
  return out;
}

void PlanAnalysis::ForEach(
    const std::function<void(const PlanNodeStats&)>& fn) const {
  if (root_ != nullptr) Visit(*root_, fn);
}

namespace {

void AppendSignature(const PlanNodeStats& node, std::string* out) {
  out->append(node.label);
  if (node.children.empty()) return;
  out->push_back('(');
  bool first = true;
  for (const PlanNodeStats* child : node.children) {
    if (!first) out->push_back(',');
    first = false;
    AppendSignature(*child, out);
  }
  out->push_back(')');
}

}  // namespace

std::string PlanAnalysis::Signature() const {
  if (root_ == nullptr) return "";
  std::string out;
  AppendSignature(*root_, &out);
  return out;
}

// --- AnalyzeOperator ---

namespace {

class ScopedWall {
 public:
  explicit ScopedWall(std::atomic<int64_t>* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~ScopedWall() {
    sink_->fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count(),
                     std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t>* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Status AnalyzeOperator::Open() {
  node_->opens.fetch_add(1, std::memory_order_relaxed);
  ScopedWall wall(&node_->wall_ns);
  return child_->Open();
}

StatusOr<bool> AnalyzeOperator::Next(Batch* batch) {
  ScopedWall wall(&node_->wall_ns);
  StatusOr<bool> more = child_->Next(batch);
  if (more.ok() && *more && batch->num_rows > 0) {
    // Selection-carrying batches (encoded filters) only count live rows.
    node_->rows_out.fetch_add(batch->live_rows(), std::memory_order_relaxed);
    node_->batches.fetch_add(1, std::memory_order_relaxed);
  }
  return more;
}

Status AnalyzeOperator::Close() {
  ScopedWall wall(&node_->wall_ns);
  return child_->Close();
}

}  // namespace vizq::tde
