// Hash join (§4.2.2, Fig. 4): the right side is built into a hash table;
// the left side probes. In parallel plans the right sub-tree forms its own
// independent unit whose result — the SharedTable — and the single hash
// table built from it are shared by every left-hand fraction. That sharing
// is implemented by SharedBuildState: all per-fraction HashJoinOperator
// instances hold the same state and the first Open() performs the build.
//
// The build itself fans out (DESIGN.md §12): build rows are consumed
// morsel-wise by a TaskGroup that inherits the query's priority class,
// hashed in parallel, then inserted into hash partitions (partitioned by
// key hash, one owning task per partition — no insert locking). The sealed
// partitions form a read-only probe table; probe fractions are unchanged.

#ifndef VIZQUERY_TDE_EXEC_JOIN_H_
#define VIZQUERY_TDE_EXEC_JOIN_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/scheduler.h"
#include "src/tde/exec/operators.h"

namespace vizq::tde {

enum class JoinType : uint8_t { kInner, kLeftOuter };

// One equi-join condition left_key = right_key.
struct JoinKey {
  ExprPtr left;   // bound against the left schema
  ExprPtr right;  // bound against the right schema
};

// How a SharedBuildState builds its probe table.
struct JoinBuildOptions {
  int build_dop = 1;                  // >1: partitioned parallel build
  int64_t min_parallel_rows = 65536;  // serial below this many build rows
  TaskClass priority = TaskClass::kInteractive;  // the query's class
  ExecStats* stats = nullptr;  // optional; build counters
};

// The materialized right side plus its hash-partitioned table; build-once.
class SharedBuildState {
 public:
  // Takes ownership of the right-side plan. `right_keys` are bound against
  // right->schema().
  SharedBuildState(OperatorPtr right, std::vector<ExprPtr> right_keys,
                   JoinBuildOptions options = {});

  // Runs the build if nobody has; concurrency-safe build-once. Concurrent
  // callers wait for the builder without blocking it, polling their own
  // `ctx` so a cancelled waiter exits promptly; the builder polls
  // CheckContinue throughout the build (every morsel / every
  // kBuildPollRows rows), so cancelling the query aborts a large build
  // mid-flight. A failed build releases the built-once latch so a later
  // Open() may retry.
  Status EnsureBuilt(const ExecContext& ctx);

  const BatchSchema& right_schema() const { return right_->schema(); }
  const Batch& build_batch() const { return build_; }
  const std::vector<ColumnVector>& key_columns() const { return key_cols_; }

  // Row indices of build rows whose key hash is `h`. Only valid after a
  // successful EnsureBuilt; the table is read-only from then on.
  const std::vector<int64_t>* Probe(uint64_t h) const {
    const auto& part = partitions_[h & partition_mask_];
    auto it = part.find(h);
    return it == part.end() ? nullptr : &it->second;
  }

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

 private:
  enum class BuildPhase { kIdle, kBuilding, kDone };

  // The build body; runs outside mu_ (the phase latch serializes builders).
  Status Build(const ExecContext& ctx);
  Status BuildSerial(const ExecContext& ctx, int64_t rows);
  Status BuildPartitioned(const ExecContext& ctx, int64_t rows);

  std::mutex mu_;
  std::condition_variable build_cv_;
  BuildPhase phase_ = BuildPhase::kIdle;

  OperatorPtr right_;
  std::vector<ExprPtr> right_keys_;
  JoinBuildOptions options_;

  Batch build_;
  std::vector<ColumnVector> key_cols_;
  // Scratch shared by the two parallel build stages: per-row key hashes
  // and null-key flags, written by morsel tasks over disjoint row ranges.
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t> null_key_;
  // The sealed probe table: hash partitions, selected by h & partition_mask_.
  // The serial build uses a single partition (mask 0).
  std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> partitions_;
  uint64_t partition_mask_ = 0;
};

class HashJoinOperator : public Operator {
 public:
  // `left_keys` bound against left->schema(); paired positionally with the
  // build state's right keys. Output schema: left columns then right
  // columns (right column names prefixed with `right_prefix` when a name
  // collision would result). Probing polls `ctx` between batches.
  HashJoinOperator(OperatorPtr left, std::shared_ptr<SharedBuildState> build,
                   std::vector<ExprPtr> left_keys, JoinType join_type,
                   const ExecContext& ctx = ExecContext::Background());

  const BatchSchema& schema() const override { return schema_; }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

 private:
  OperatorPtr left_;
  std::shared_ptr<SharedBuildState> build_;
  std::vector<ExprPtr> left_keys_;
  JoinType join_type_;
  BatchSchema schema_;
  ExecContext ctx_;
  Span* span_ = nullptr;
  int64_t batches_probed_ = 0;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_JOIN_H_
