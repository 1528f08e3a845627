// The Volcano execution framework (§4.1.3): every physical operator
// implements Open/Next/Close and pulls Batches from its children. Streaming
// operators (Filter, Project, Scan) emit rows as they consume them;
// stop-and-go operators (Aggregate, Sort, TopN, the build side of HashJoin)
// consume their whole input first.

#ifndef VIZQUERY_TDE_EXEC_OPERATORS_H_
#define VIZQUERY_TDE_EXEC_OPERATORS_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/result_table.h"
#include "src/common/scheduler.h"
#include "src/common/status.h"
#include "src/tde/exec/batch.h"
#include "src/tde/exec/expression.h"

namespace vizq::tde {

// Execution statistics collected while a plan runs. Parallel workers
// (scans, join-build tasks, final-merge tasks) update the counters under
// `mu`.
struct ExecStats {
  std::mutex mu;
  int64_t rows_scanned = 0;
  int64_t batches = 0;
  int64_t morsels_claimed = 0;     // row ranges claimed from MorselQueues
  int64_t join_build_morsels = 0;  // build-side morsels hashed in parallel
  int64_t merge_partitions = 0;    // kFinal merge partitions fanned out
  int dop = 1;                     // degree of parallelism of the plan
  bool used_parallel_plan = false;
  bool used_local_global_agg = false;
  bool used_range_partition = false;
  bool used_rle_index = false;
  bool used_streaming_agg = false;
  bool used_morsel_scan = false;
  bool used_encoded_path = false;
  bool used_parallel_build = false;  // partitioned hash-join build ran
  bool used_parallel_merge = false;  // partitioned kFinal merge ran
  bool used_agg_below_join = false;  // a join probed partial aggregates
  // Encoding-aware execution (DESIGN.md §11): rows that crossed the
  // storage→exec boundary without being decoded to flat vectors, and
  // encoded-path candidates that had to fall back to the row path.
  int64_t encoded_rows_undecoded = 0;
  int64_t encoded_fallbacks = 0;
  int64_t encoded_plans = 0;
};

// Base class of all physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  // Output schema (valid after construction, before Open).
  virtual const BatchSchema& schema() const = 0;

  virtual Status Open() = 0;

  // Produces the next batch into *batch (overwritten). Returns false at end
  // of stream; a true return may carry an empty batch (callers skip those).
  virtual StatusOr<bool> Next(Batch* batch) = 0;

  virtual Status Close() = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

// One conjunct of an encoded filter, classified by how the encoded path
// evaluates it (classification happens in the optimizer's
// DecideEncodedExec; see DESIGN.md §11).
struct EncodedConjunct {
  enum class Kind : uint8_t {
    kTokenBitmap,  // single dict-string column: eval once per distinct token
    kPerRun,       // single run-encoded fixed-width column: eval once per run
    kPerRow,       // anything else: normal vectorized per-row evaluation
                   // (must only touch flat, non-run-encoded columns)
  };
  ExprPtr expr;           // bound against the filter's child schema
  int column_index = -1;  // the column driving kTokenBitmap / kPerRun
  Kind kind = Kind::kPerRow;
};

// --- Filter (the TQL Select operator): streaming predicate evaluation ---
class FilterOperator : public Operator {
 public:
  // `predicate` must be bound against child->schema().
  FilterOperator(OperatorPtr child, ExprPtr predicate);

  // Switches to encoded mode: instead of materializing the surviving rows,
  // Next() moves the child batch through with a selection vector attached,
  // evaluating each conjunct once per dictionary token (kTokenBitmap), once
  // per RLE run (kPerRun), or per row (kPerRow). The downstream operator
  // must be selection-aware (the planner guarantees this).
  void EnableEncodedFilter(std::vector<EncodedConjunct> conjuncts,
                           ExecStats* stats);

  const BatchSchema& schema() const override { return child_->schema(); }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override { return child_->Close(); }

 private:
  StatusOr<bool> NextEncoded(Batch* batch);

  OperatorPtr child_;
  ExprPtr predicate_;
  bool encoded_ = false;
  std::vector<EncodedConjunct> conjuncts_;
  // Parallel to conjuncts_; populated at Open for kTokenBitmap entries.
  std::vector<TokenMatchBitmap> bitmaps_;
  ExecStats* stats_ = nullptr;
};

// --- Project: computes named expressions over the child ---
class ProjectOperator : public Operator {
 public:
  struct NamedExpr {
    std::string name;
    ExprPtr expr;  // bound against the child schema
  };

  ProjectOperator(OperatorPtr child, std::vector<NamedExpr> exprs);

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override { return child_->Open(); }
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override { return child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<NamedExpr> exprs_;
  BatchSchema schema_;
};

// Runs fn(0..n-1) for a blocking operator's fan-out (the hash-join build,
// the kFinal merge): inline when n <= 1, otherwise as tasks named
// `task_name` of one TaskGroup under the query's `priority`. Wait() on a
// worker thread steals queued tasks instead of parking (scheduler.h).
void RunTasks(int n, TaskClass priority, const ExecContext& ctx,
              const char* task_name, const std::function<void(int)>& fn);

// Runs `op` to completion and materializes everything into a ResultTable.
StatusOr<ResultTable> CollectToResultTable(Operator* op);

// Runs `op` to completion, appending all batches into one big Batch with
// `schema` layouts. Returns total rows.
StatusOr<int64_t> CollectToBatch(Operator* op, Batch* out);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_OPERATORS_H_
