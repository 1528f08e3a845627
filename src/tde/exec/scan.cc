#include "src/tde/exec/scan.h"

#include <algorithm>

namespace vizq::tde {

// Deadline/cancel poll frequency: every batch is cheap enough (an atomic
// load plus, on deadline contexts, one clock read per kCtxPollBatches).
constexpr int64_t kCtxPollBatches = 4;

TableScanOperator::TableScanOperator(std::shared_ptr<const Table> table,
                                     std::vector<int> column_indices,
                                     std::vector<RowRange> ranges,
                                     ExecStats* stats, const ExecContext& ctx)
    : table_(std::move(table)),
      column_indices_(std::move(column_indices)),
      ranges_(std::move(ranges)),
      stats_(stats),
      ctx_(ctx) {
  for (int ci : column_indices_) {
    const ColumnInfo& info = table_->column_info(ci);
    schema_.names.push_back(info.name);
    ColumnVector proto(info.type);
    if (table_->column(ci)->is_dictionary_string()) {
      proto.dict = table_->column(ci)->shared_dictionary();
    }
    schema_.prototypes.push_back(std::move(proto));
  }
}

TableScanOperator::TableScanOperator(std::shared_ptr<const Table> table,
                                     std::vector<int> column_indices)
    : TableScanOperator(table, std::move(column_indices),
                        {RowRange{0, table->num_rows()}}) {}

Status TableScanOperator::Open() {
  next_range_ = 0;
  cursor_ = range_end_ = 0;
  batches_emitted_ = 0;
  cursors_.assign(column_indices_.size(), Column::DecodeCursor{});
  span_ = ctx_.StartSpan("op:scan(" + table_->name() + ")");
  return OkStatus();
}

Status TableScanOperator::Close() {
  if (span_ != nullptr) {
    span_->End();
    span_ = nullptr;
  }
  return OkStatus();
}

StatusOr<bool> TableScanOperator::Next(Batch* batch) {
  if (batches_emitted_ % kCtxPollBatches == 0) {
    VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("table scan"));
  }
  ++batches_emitted_;
  // Fill the batch up to kBatchRows with pieces of consecutive ranges,
  // skipping empty ones. In morsel mode each claim is the next range and a
  // batch never spans two claims.
  pieces_.clear();
  int64_t num_rows = 0;
  while (num_rows < kBatchRows) {
    if (cursor_ < range_end_) {
      int64_t count = std::min(kBatchRows - num_rows, range_end_ - cursor_);
      pieces_.push_back(RowRange{cursor_, count});
      cursor_ += count;
      num_rows += count;
    } else if (morsels_ != nullptr) {
      if (num_rows > 0 || !morsels_->Claim(&cursor_, &range_end_)) break;
      if (stats_ != nullptr) {
        std::lock_guard<std::mutex> lock(stats_->mu);
        ++stats_->morsels_claimed;
        stats_->used_morsel_scan = true;
      }
    } else {
      if (next_range_ == ranges_.size()) break;
      const RowRange& range = ranges_[next_range_++];
      cursor_ = range.start;
      range_end_ = range.start + range.count;
    }
  }
  if (num_rows == 0) return false;

  *batch = schema_.NewBatch();
  int64_t encoded_rows = 0;
  for (size_t i = 0; i < column_indices_.size(); ++i) {
    const Column& col = *table_->column(column_indices_[i]);
    ColumnVector& cv = batch->columns[i];
    // One decoder call per column covers every piece of the batch (plain
    // strings copy per piece). kRle columns under encoded emission keep
    // their runs: the payload (ints, dict tokens, or bit-cast doubles)
    // stays run-length encoded, rebased to the batch.
    if (emit_encoded_ && col.is_rle()) {
      col.EmitRuns(&cursors_[i], pieces_, &cv.runs);
      cv.run_encoded = true;
      encoded_rows += num_rows;
    } else if (cv.type.kind == TypeKind::kFloat64) {
      col.DecodeDoubles(&cursors_[i], pieces_, &cv.doubles);
    } else if (cv.type.kind == TypeKind::kString && cv.dict == nullptr) {
      cv.Reserve(num_rows);
      for (const RowRange& piece : pieces_) {
        col.DecodeStrings(piece.start, piece.count, &cv.strings);
      }
    } else {
      col.DecodeIntsResumable(&cursors_[i], pieces_, &cv.ints);
    }
    col.DecodeNulls(pieces_, 0, &cv.nulls);
  }
  batch->num_rows = num_rows;
  if (stats_ != nullptr) {
    std::lock_guard<std::mutex> lock(stats_->mu);
    stats_->rows_scanned += num_rows;
    stats_->encoded_rows_undecoded += encoded_rows;
    ++stats_->batches;
  }
  return true;
}

std::vector<int64_t> SplitRows(int64_t num_rows, int dop) {
  if (dop < 1) dop = 1;
  std::vector<int64_t> offsets;
  offsets.reserve(dop + 1);
  for (int i = 0; i <= dop; ++i) {
    offsets.push_back(num_rows * i / dop);
  }
  return offsets;
}

std::vector<int64_t> SplitRowsOnSortedPrefix(const Table& table,
                                             int prefix_len, int dop) {
  const std::vector<int>& sort_cols = table.sort_columns();
  std::vector<int> keys(sort_cols.begin(), sort_cols.begin() + prefix_len);
  int64_t n = table.num_rows();
  std::vector<int64_t> offsets{0};
  if (n == 0 || dop <= 1) {
    offsets.push_back(n);
    return offsets;
  }

  // Encoding-aware comparison: adjacent rows in the same RLE run or with
  // equal dict tokens compare equal without materializing Values.
  auto keys_equal = [&](int64_t a, int64_t b) {
    for (int k : keys) {
      if (table.column(k)->CompareRows(a, b) != 0) return false;
    }
    return true;
  };

  // Start from even split points and push each forward to the next group
  // boundary so no group straddles a fraction.
  for (int i = 1; i < dop; ++i) {
    int64_t b = std::max(n * i / dop, offsets.back() + 1);
    while (b < n && keys_equal(b - 1, b)) ++b;
    if (b < n && b > offsets.back()) offsets.push_back(b);
  }
  offsets.push_back(n);
  return offsets;
}

StatusOr<std::vector<RowRange>> ComputeMatchingRuns(const Table& table,
                                                    int rle_column,
                                                    const ExprPtr& predicate) {
  const Column& col = *table.column(rle_column);
  if (!col.is_rle()) {
    return FailedPrecondition("column '" + table.column_info(rle_column).name +
                              "' is not RLE encoded");
  }
  const std::vector<RleRun>& runs = col.rle_runs();

  // Build the IndexTable's value column: one row per run, in the column's
  // decoded representation (dictionary tokens keep their dictionary).
  Batch index_batch;
  ColumnVector values(table.column_info(rle_column).type);
  if (col.is_dictionary_string()) values.dict = col.shared_dictionary();
  values.Reserve(static_cast<int64_t>(runs.size()));
  for (const RleRun& run : runs) {
    // A run of nulls carries value 0 with the null mask set on its rows.
    bool run_is_null = col.IsNull(run.start);
    if (run_is_null) {
      values.AppendNull();
    } else if (values.type.kind == TypeKind::kFloat64) {
      double d;
      static_assert(sizeof(d) == sizeof(run.value));
      __builtin_memcpy(&d, &run.value, sizeof(d));
      values.AppendDouble(d);
    } else {
      values.AppendInt(run.value);
    }
  }
  index_batch.columns.push_back(std::move(values));
  index_batch.num_rows = static_cast<int64_t>(runs.size());

  VIZQ_ASSIGN_OR_RETURN(std::vector<int64_t> selected,
                        EvalPredicate(*predicate, index_batch));
  std::vector<RowRange> ranges;
  ranges.reserve(selected.size());
  for (int64_t run_idx : selected) {
    ranges.push_back(RowRange{runs[run_idx].start, runs[run_idx].count});
  }
  return ranges;
}

std::vector<std::vector<RowRange>> SplitRanges(
    const std::vector<RowRange>& ranges, int dop) {
  if (dop < 1) dop = 1;
  std::vector<std::vector<RowRange>> out(dop);
  // Greedy least-loaded assignment keeps the per-thread row counts close,
  // mitigating (not eliminating) the data-skew concern §4.3 raises.
  std::vector<int64_t> load(dop, 0);
  // Assign big ranges first.
  std::vector<RowRange> sorted = ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.count > b.count;
            });
  for (const RowRange& r : sorted) {
    int best = 0;
    for (int i = 1; i < dop; ++i) {
      if (load[i] < load[best]) best = i;
    }
    out[best].push_back(r);
    load[best] += r.count;
  }
  // Keep each thread's ranges in ascending row order for locality.
  for (auto& group : out) {
    std::sort(group.begin(), group.end(),
              [](const RowRange& a, const RowRange& b) {
                return a.start < b.start;
              });
  }
  return out;
}

}  // namespace vizq::tde
