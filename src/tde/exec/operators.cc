#include "src/tde/exec/operators.h"

#include <algorithm>

namespace vizq::tde {

void RunTasks(int n, TaskClass priority, const ExecContext& ctx,
              const char* task_name, const std::function<void(int)>& fn) {
  if (n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(&Scheduler::Global(), priority, ctx);
  for (int i = 0; i < n; ++i) {
    group.Spawn([&fn, i] { fn(i); }, task_name);
  }
  group.Wait();
}

FilterOperator::FilterOperator(OperatorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

void FilterOperator::EnableEncodedFilter(std::vector<EncodedConjunct> conjuncts,
                                         ExecStats* stats) {
  encoded_ = true;
  conjuncts_ = std::move(conjuncts);
  stats_ = stats;
}

Status FilterOperator::Open() {
  VIZQ_RETURN_IF_ERROR(child_->Open());
  if (!encoded_) return OkStatus();
  bitmaps_.clear();
  bitmaps_.resize(conjuncts_.size());
  const BatchSchema& in = child_->schema();
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    const EncodedConjunct& c = conjuncts_[i];
    if (c.kind != EncodedConjunct::Kind::kTokenBitmap) continue;
    VIZQ_ASSIGN_OR_RETURN(bitmaps_[i],
                          BuildTokenMatchBitmap(*c.expr, c.column_index,
                                                in.prototypes[c.column_index]));
  }
  return OkStatus();
}

StatusOr<bool> FilterOperator::NextEncoded(Batch* batch) {
  Batch in;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    if (in.num_rows == 0) continue;
    // Live mask over physical rows, seeded from any incoming selection.
    std::vector<uint8_t> live;
    if (in.has_selection) {
      live.assign(in.num_rows, 0);
      for (int32_t r : in.selection) live[r] = 1;
    } else {
      live.assign(in.num_rows, 1);
    }
    for (size_t i = 0; i < conjuncts_.size(); ++i) {
      const EncodedConjunct& c = conjuncts_[i];
      ColumnVector* cv =
          c.column_index >= 0 ? &in.columns[c.column_index] : nullptr;
      switch (c.kind) {
        case EncodedConjunct::Kind::kTokenBitmap: {
          const TokenMatchBitmap& bm = bitmaps_[i];
          if (cv->is_run_encoded()) {
            for (const RleRun& r : cv->runs) {
              bool ok = cv->IsNull(r.start) ? bm.null_matches
                                            : bm.match[r.value] != 0;
              if (ok) continue;
              std::fill(live.begin() + r.start,
                        live.begin() + r.start + r.count, 0);
            }
          } else {
            for (int64_t r = 0; r < in.num_rows; ++r) {
              if (!live[r]) continue;
              bool ok = cv->IsNull(r) ? bm.null_matches
                                      : bm.match[cv->ints[r]] != 0;
              if (!ok) live[r] = 0;
            }
          }
          break;
        }
        case EncodedConjunct::Kind::kPerRun: {
          if (cv->is_run_encoded()) {
            VIZQ_ASSIGN_OR_RETURN(
                std::vector<uint8_t> verdicts,
                EvalPredicatePerRun(*c.expr, c.column_index, *cv));
            for (size_t k = 0; k < cv->runs.size(); ++k) {
              if (verdicts[k]) continue;
              const RleRun& r = cv->runs[k];
              std::fill(live.begin() + r.start,
                        live.begin() + r.start + r.count, 0);
            }
            break;
          }
          [[fallthrough]];  // batch arrived flat: evaluate per row
        }
        case EncodedConjunct::Kind::kPerRow: {
          // The planner only classifies kPerRow for conjuncts over flat
          // columns; flatten defensively in case a run reached us anyway.
          std::vector<int> refs;
          c.expr->CollectColumnIndices(&refs);
          for (int col : refs) in.columns[col].DecodeRuns();
          VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> sel,
                                EvalPredicate(*c.expr, in));
          std::vector<uint8_t> match(in.num_rows, 0);
          for (int64_t r : sel) match[r] = 1;
          for (int64_t r = 0; r < in.num_rows; ++r) {
            if (live[r] && !match[r]) live[r] = 0;
          }
          break;
        }
      }
    }
    int64_t survivors = 0;
    for (int64_t r = 0; r < in.num_rows; ++r) survivors += live[r];
    if (survivors == 0) {
      *batch = Batch{};
      return true;  // empty batch; caller loops
    }
    *batch = std::move(in);
    if (survivors == batch->num_rows) {
      batch->ClearSelection();
      return true;
    }
    batch->selection.clear();
    batch->selection.reserve(survivors);
    for (int64_t r = 0; r < batch->num_rows; ++r) {
      if (live[r]) batch->selection.push_back(static_cast<int32_t>(r));
    }
    batch->has_selection = true;
    return true;
  }
}

StatusOr<bool> FilterOperator::Next(Batch* batch) {
  if (encoded_) return NextEncoded(batch);
  Batch in;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    if (in.num_rows == 0) continue;
    VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> selected,
                          EvalPredicate(*predicate_, in));
    *batch = schema().NewBatch();
    for (size_t c = 0; c < in.columns.size(); ++c) {
      // Keep the input's layout (e.g. dictionary) on the way through.
      batch->columns[c] = ColumnVector::LayoutLike(in.columns[c]);
      batch->columns[c].Reserve(static_cast<int64_t>(selected.size()));
      for (int64_t row : selected) {
        batch->columns[c].AppendFrom(in.columns[c], row);
      }
    }
    batch->num_rows = static_cast<int64_t>(selected.size());
    return true;  // possibly-empty batch; caller loops
  }
}

ProjectOperator::ProjectOperator(OperatorPtr child,
                                 std::vector<NamedExpr> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (const NamedExpr& ne : exprs_) {
    schema_.names.push_back(ne.name);
    ColumnVector proto(ne.expr->result_type);
    // A bare column reference keeps its dictionary layout.
    if (ne.expr->kind == ExprKind::kColumnRef &&
        ne.expr->column_index >= 0 &&
        ne.expr->column_index < child_->schema().num_columns()) {
      proto.dict = child_->schema().prototypes[ne.expr->column_index].dict;
    }
    schema_.prototypes.push_back(std::move(proto));
  }
}

StatusOr<bool> ProjectOperator::Next(Batch* batch) {
  Batch in;
  VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  batch->columns.clear();
  batch->columns.reserve(exprs_.size());
  for (const NamedExpr& ne : exprs_) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*ne.expr, in));
    batch->columns.push_back(std::move(v));
  }
  batch->num_rows = in.num_rows;
  return true;
}

StatusOr<ResultTable> CollectToResultTable(Operator* op) {
  const BatchSchema& schema = op->schema();
  std::vector<ResultColumn> cols;
  cols.reserve(schema.names.size());
  for (int i = 0; i < schema.num_columns(); ++i) {
    cols.push_back(ResultColumn{schema.names[i], schema.prototypes[i].type});
  }
  ResultTable out(std::move(cols));
  VIZQ_RETURN_IF_ERROR(op->Open());
  Batch batch;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    // Batches from selection-aware operators carry dead physical rows.
    const int64_t live = batch.has_selection
                             ? static_cast<int64_t>(batch.selection.size())
                             : batch.num_rows;
    for (int64_t i = 0; i < live; ++i) {
      const int64_t r = batch.has_selection ? batch.selection[i] : i;
      out.AddRow(batch.GetRow(r));
    }
  }
  VIZQ_RETURN_IF_ERROR(op->Close());
  return out;
}

StatusOr<int64_t> CollectToBatch(Operator* op, Batch* out) {
  *out = op->schema().NewBatch();
  VIZQ_RETURN_IF_ERROR(op->Open());
  Batch batch;
  int64_t total = 0;
  while (true) {
    VIZQ_ASSIGN_OR_RETURN(bool more, op->Next(&batch));
    if (!more) break;
    const int64_t live = batch.has_selection
                             ? static_cast<int64_t>(batch.selection.size())
                             : batch.num_rows;
    for (size_t c = 0; c < out->columns.size(); ++c) {
      for (int64_t i = 0; i < live; ++i) {
        const int64_t r = batch.has_selection ? batch.selection[i] : i;
        out->columns[c].AppendFrom(batch.columns[c], r);
      }
    }
    total += live;
  }
  out->num_rows = total;
  VIZQ_RETURN_IF_ERROR(op->Close());
  return total;
}

}  // namespace vizq::tde
