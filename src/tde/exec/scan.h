// TableScan and FractionTable (§4.2.1): scans a list of row ranges of a
// stored table. The list is the whole table, one fraction of it, or the
// runs of an RLE column that satisfy a filter (RLE range skipping, §4.3:
// "range skipping expressed as a join in the query plan"). A batch may
// span several ranges, so short matching runs still arrive in full
// batches. The
// parallelizer partitions a table into N fractions and gives each
// Exchange input a FractionTable-style scan over its own ranges — random
// (contiguous) partitioning, range partitioning aligned to group
// boundaries when the sort order allows (§4.2.3), or a balanced share of
// the matching runs — or a shared morsel queue (§10).

#ifndef VIZQUERY_TDE_EXEC_SCAN_H_
#define VIZQUERY_TDE_EXEC_SCAN_H_

#include <memory>
#include <vector>

#include "src/tde/exec/morsel.h"
#include "src/tde/exec/operators.h"
#include "src/tde/storage/table.h"

namespace vizq::tde {

class TableScanOperator : public Operator {
 public:
  // Scans `ranges` of `table` in list order, producing the columns in
  // `column_indices` (in that order). Each batch fills up to kBatchRows
  // rows from consecutive ranges, so it may span several ranges (the
  // matching runs of a ranged scan arrive in full batches); empty ranges
  // are skipped, and an empty list scans no rows. The scan polls `ctx`
  // every few batches, so a deadline or cancellation actually stops the
  // work mid-scan.
  TableScanOperator(std::shared_ptr<const Table> table,
                    std::vector<int> column_indices,
                    std::vector<RowRange> ranges, ExecStats* stats = nullptr,
                    const ExecContext& ctx = ExecContext::Background());
  // Scans every row of `table`.
  TableScanOperator(std::shared_ptr<const Table> table,
                    std::vector<int> column_indices);

  // Morsel mode (§10): instead of the constructor's ranges, the scan
  // claims row-range morsels from `queue` until it is drained. Sibling
  // scans of one Exchange share the queue, so work distributes
  // dynamically. A batch never spans two claims.
  void SetMorselQueue(MorselQueuePtr queue) { morsels_ = std::move(queue); }

  // Encoded emission (DESIGN.md §11): kRle columns are emitted as
  // run-encoded ColumnVectors (clipped, batch-relative runs over the raw
  // payload / dict tokens; a batch spanning several ranges concatenates
  // their runs) instead of being flattened. Only enabled by the planner
  // when every downstream operator on the path is run-aware.
  void SetEmitEncoded(bool v) { emit_encoded_ = v; }

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:
  std::shared_ptr<const Table> table_;
  std::vector<int> column_indices_;
  std::vector<RowRange> ranges_;
  std::vector<RowRange> pieces_;  // the current batch's row ranges
  size_t next_range_ = 0;  // index of the range after the current one
  int64_t cursor_ = 0;     // next row to emit
  int64_t range_end_ = 0;  // end of the current range or claimed morsel
  MorselQueuePtr morsels_;
  bool emit_encoded_ = false;
  // Per-output-column resume cursors: kRle runs and kDelta prefix sums
  // are walked forward across pieces and batches, never searched again.
  std::vector<Column::DecodeCursor> cursors_;
  BatchSchema schema_;
  ExecStats* stats_;
  ExecContext ctx_;
  Span* span_ = nullptr;
  int64_t batches_emitted_ = 0;
};

// Computes contiguous fraction boundaries for `num_rows` split `dop` ways:
// dop+1 offsets, first 0, last num_rows.
std::vector<int64_t> SplitRows(int64_t num_rows, int dop);

// Range partitioning (§4.2.3): splits `table` into at most `dop` fractions
// at boundaries where the value of the leading `prefix_len` sort columns
// changes, guaranteeing every group (w.r.t. those columns) lands in exactly
// one fraction. Returns dop'+1 offsets with dop' <= dop.
std::vector<int64_t> SplitRowsOnSortedPrefix(const Table& table,
                                             int prefix_len, int dop);

// RLE range skipping (§4.3): evaluates `predicate` once per run of the RLE
// column `rle_column` of `table` — the filter runs over the run table (the
// paper's IndexTable), typically a few rows, instead of over every tuple.
// `predicate` must be bound against a single-column schema holding that
// column. Returns the row ranges of the runs whose value satisfies the
// predicate, in row order. Runs whose value is null never match.
StatusOr<std::vector<RowRange>> ComputeMatchingRuns(const Table& table,
                                                    int rle_column,
                                                    const ExprPtr& predicate);

// Splits `ranges` into `dop` lists balanced by total row count, each in row
// order. Groups are not aligned: one sort-key group may span two lists.
std::vector<std::vector<RowRange>> SplitRanges(
    const std::vector<RowRange>& ranges, int dop);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_SCAN_H_
