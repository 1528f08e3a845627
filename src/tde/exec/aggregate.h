// Aggregation operators.
//
// HashAggregateOperator supports three phases, which is how the
// parallelizer expresses §4.2.3's strategies:
//   kComplete — ordinary aggregation (serial plans, or parallel fractions
//               under range partitioning where each group is wholly local).
//   kPartial  — local aggregation below the Exchange; emits re-aggregable
//               partial states (AVG decomposes into SUM and COUNT columns).
//   kFinal    — global aggregation above the Exchange, combining partials.
//
// StreamingAggregateOperator handles input already grouped by the key
// columns (sorted input is the sufficient condition the optimizer tracks,
// §4.2.4); it holds one group at a time.

#ifndef VIZQUERY_TDE_EXEC_AGGREGATE_H_
#define VIZQUERY_TDE_EXEC_AGGREGATE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/scheduler.h"
#include "src/tde/exec/operators.h"

namespace vizq::tde {

// One aggregate computation: func over arg (arg is null for COUNT(*)).
struct AggSpec {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;  // bound against the child schema; nullptr for COUNT(*)
  std::string output_name;
};

enum class AggPhase : uint8_t { kComplete, kPartial, kFinal };

// A named grouping expression.
struct GroupExpr {
  std::string name;
  ExprPtr expr;  // bound against the child schema
};

// Returns the partial-state column layout of `spec` (1 column for most
// functions, SUM+COUNT for AVG). Used by the parallelizer to wire
// kPartial -> Exchange -> kFinal plans.
std::vector<ResultColumn> PartialStateColumns(const AggSpec& spec);

// Configuration of the dense (token-indexed) grouping path: every group key
// is a bare reference to a child column over a small domain — dictionary
// tokens [0, size) or integer values [min, max] — so a group's identity is
// a mixed-radix cell index over (value - min + 1) digits — radix card+1,
// digit 0 reserved for NULL — and the usual hash probe becomes one array
// lookup. Decided by the optimizer (DecideEncodedExec, DESIGN.md §11).
struct DenseAggConfig {
  bool enabled = false;
  std::vector<int> key_columns;    // child column index per group key
  std::vector<int64_t> key_cards;  // domain size per key column
  std::vector<int64_t> key_mins;   // value of digit 1 (0 for dictionaries)
  int64_t total_cells = 1;         // prod(card + 1), capped by the optimizer
};

// Configuration of the parallel kFinal merge (DESIGN.md §12): partial
// states are partitioned by group-key hash and the partitions merged
// concurrently on a TaskGroup under the query's priority class.
struct AggMergeOptions {
  int merge_dop = 1;                 // >1: partitioned parallel merge
  int64_t min_parallel_rows = 4096;  // serial below this many partial rows
  TaskClass priority = TaskClass::kInteractive;  // the query's class
};

class HashAggregateOperator : public Operator {
 public:
  // For kFinal, `child` must produce: group columns (in group_exprs order,
  // referenced by index through the GroupExpr exprs) followed by the
  // concatenated PartialStateColumns of each spec.
  HashAggregateOperator(OperatorPtr child, std::vector<GroupExpr> group_exprs,
                        std::vector<AggSpec> specs, AggPhase phase,
                        const ExecContext& ctx = ExecContext::Background());

  // Switches group lookup to the dense token-indexed path and enables
  // whole-run folding of RLE argument columns (one multiply-add per run).
  // Only valid when the config matches this operator's group exprs; the
  // planner guarantees that. Not supported for kFinal. A key value outside
  // its domain (stats of a damaged file) fails the query with DataLoss.
  void EnableDenseGroups(DenseAggConfig config, ExecStats* stats);

  // Enables the partitioned parallel merge; only meaningful for kFinal
  // with group keys (scalar finals stay serial — one group, nothing to
  // partition). The row threshold keeps tiny merges off the scheduler.
  void EnableParallelMerge(const AggMergeOptions& options, ExecStats* stats);

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:
  struct Accumulator {
    std::vector<double> sum_d;
    std::vector<int64_t> sum_i;
    std::vector<int64_t> count;
    std::vector<Value> extreme;
    std::vector<char> has_value;
    std::vector<std::set<Value>> distinct;
  };

  // One independent group hash table: keys, hash buckets, accumulators.
  // The serial paths use main_; the parallel kFinal merge gives each hash
  // partition its own table so merge tasks never share mutable state.
  struct GroupTable {
    std::vector<ColumnVector> group_store;  // one row per group
    std::unordered_map<uint64_t, std::vector<int64_t>> buckets;
    int64_t num_groups = 0;
    std::vector<Accumulator> accums;  // one per spec
  };

  GroupTable NewGroupTable() const;
  Status Consume(const Batch& in);
  Status ConsumeDense(Batch& in);
  // Buffers the child's partial states, then merges hash partitions
  // concurrently (falls back to serial Consume below the row threshold).
  Status ConsumeFinalParallel();
  int64_t FindOrCreateGroup(GroupTable& gt,
                            const std::vector<ColumnVector>& key_cols,
                            int64_t row);
  int64_t FindOrCreateGroup(GroupTable& gt,
                            const std::vector<ColumnVector>& key_cols,
                            int64_t row, uint64_t hash);
  // Pushes the per-spec accumulator slots of a freshly created group.
  void AppendGroupSlots(GroupTable& gt);
  void UpdateAccumulator(GroupTable& gt, int spec_idx, int64_t group,
                         const ColumnVector& arg_col, int64_t row);
  void UpdateFinalAccumulator(GroupTable& gt, int spec_idx, int64_t group,
                              const Batch& in, int first_col, int64_t row);
  void EmitGroup(const GroupTable& gt, int64_t group, Batch* batch) const;

  OperatorPtr child_;
  std::vector<GroupExpr> group_exprs_;
  std::vector<AggSpec> specs_;
  AggPhase phase_;
  BatchSchema schema_;

  GroupTable main_;
  // Parallel-merge state: one table per hash partition; emission walks
  // emit_tables_ (either {&main_} or the merge partitions) in order.
  AggMergeOptions merge_;
  std::vector<GroupTable> merge_tables_;
  std::vector<const GroupTable*> emit_tables_;
  size_t emit_table_idx_ = 0;
  // Parallel-merge stage 3 pre-materializes the output batches per
  // partition (emission walks every group and is itself worth fanning
  // out); Next() then just hands them over.
  std::vector<Batch> prebuilt_;
  size_t prebuilt_idx_ = 0;
  bool prebuilt_ready_ = false;

  bool consumed_ = false;
  int64_t emit_cursor_ = 0;
  ExecContext ctx_;
  Span* span_ = nullptr;
  int64_t batches_consumed_ = 0;

  // Dense path state: cell index -> compact group id (-1 = unseen), sized
  // lazily to total_cells on first dense batch. Group ids stay compact and
  // first-seen-ordered, so emission is identical to the hash path's.
  DenseAggConfig dense_;
  std::vector<int32_t> cell_to_group_;
  ExecStats* stats_ = nullptr;
};

class StreamingAggregateOperator : public Operator {
 public:
  // Requires the child to deliver rows grouped by the group expressions
  // (e.g. sorted by them). Same output schema as HashAggregate kComplete.
  StreamingAggregateOperator(OperatorPtr child,
                             std::vector<GroupExpr> group_exprs,
                             std::vector<AggSpec> specs,
                             const ExecContext& ctx = ExecContext::Background());

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:
  void StartGroup(const std::vector<ColumnVector>& keys, int64_t row);
  void UpdateGroup(int spec_idx, const ColumnVector& arg_col, int64_t row);
  void FlushGroup(Batch* out);

  OperatorPtr child_;
  std::vector<GroupExpr> group_exprs_;
  std::vector<AggSpec> specs_;
  BatchSchema schema_;

  bool in_group_ = false;
  bool done_ = false;
  bool saw_any_row_ = false;
  std::vector<Value> current_key_;
  // single-group accumulators
  std::vector<double> sum_d_;
  std::vector<int64_t> sum_i_;
  std::vector<int64_t> count_;
  std::vector<Value> extreme_;
  std::vector<char> has_value_;
  std::vector<std::set<Value>> distinct_;
  ExecContext ctx_;
  Span* span_ = nullptr;
  int64_t batches_consumed_ = 0;
};

// Output schema shared by both aggregate operators.
BatchSchema MakeAggSchema(const std::vector<GroupExpr>& group_exprs,
                          const std::vector<AggSpec>& specs, AggPhase phase,
                          const BatchSchema& child_schema);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_AGGREGATE_H_
