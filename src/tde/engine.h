// TdeEngine: the public facade of the Tableau-Data-Engine-style column
// store. Owns a Database; compiles and executes TQL queries (text or
// logical trees) through the full pipeline:
//
//   parse -> bind -> rewrite -> optimize -> parallelize -> translate -> run
//
// Execution knobs (parallelism, local/global aggregation, range
// partitioning, RLE range skipping, streaming aggregates) are exposed via
// QueryOptions so benches can ablate each §4.2/§4.3 technique.

#ifndef VIZQUERY_TDE_ENGINE_H_
#define VIZQUERY_TDE_ENGINE_H_

#include <memory>
#include <string>

#include "src/common/exec_context.h"
#include "src/common/result_table.h"
#include "src/common/scheduler.h"
#include "src/tde/exec/analyze.h"
#include "src/tde/plan/logical.h"
#include "src/tde/plan/optimizer.h"
#include "src/tde/plan/parallelizer.h"
#include "src/tde/storage/database.h"

namespace vizq::tde {

struct QueryOptions {
  OptimizerOptions optimizer;
  ParallelOptions parallel;

  // Collect operator-level EXPLAIN ANALYZE stats (rows/batches/wall time
  // per plan node) into QueryResult::analysis. Cheap (a few atomic adds
  // and two clock reads per batch per operator); benches that want the
  // bare pipeline can switch it off.
  bool collect_analysis = true;

  // The scheduler class every task of this query — Exchange producers,
  // join-build tasks, final-merge tasks — is submitted under.
  TaskClass priority = TaskClass::kInteractive;

  // A convenient all-serial baseline.
  static QueryOptions Serial() {
    QueryOptions o;
    o.parallel.enable_parallel = false;
    return o;
  }
};

// Execution outcome: the rows, the optimized plan (for tests / debugging)
// and the collected runtime statistics.
struct QueryResult {
  ResultTable table;
  std::string plan_text;
  std::shared_ptr<ExecStats> stats;
  // Per-operator runtime accounting (null when collect_analysis is off).
  // analysis->ToText() is the annotated EXPLAIN ANALYZE plan; the same
  // text is the "tde.analyze" attribute of the tde:run span.
  std::shared_ptr<PlanAnalysis> analysis;
  // The executed operator tree, kept alive until the caller drops the
  // result. Execute() returns as soon as the table is collected; freeing
  // per-query scratch (materialized join build sides, partition hash
  // tables) rides on the result's lifetime instead of the response path,
  // like a real cursor. Opaque: nothing should reach back into it.
  std::shared_ptr<void> pipeline;
};

class TdeEngine {
 public:
  explicit TdeEngine(std::shared_ptr<Database> db) : db_(std::move(db)) {}

  Database& database() { return *db_; }
  const Database& database() const { return *db_; }
  std::shared_ptr<Database> shared_database() const { return db_; }

  // Compiles and runs a TQL text query with default options.
  StatusOr<ResultTable> Query(const std::string& tql);

  // Full-control entry points. The ExecContext overloads honor the
  // context's deadline/cancellation (operators poll it between batches)
  // and record "tde:*" spans; the context-less forms delegate to
  // ExecContext::Background().
  StatusOr<QueryResult> Execute(const std::string& tql,
                                const QueryOptions& options);
  StatusOr<QueryResult> Execute(const std::string& tql,
                                const QueryOptions& options,
                                const ExecContext& ctx);
  // Takes any (possibly unbound) logical plan; the plan is cloned, so the
  // caller's tree is not mutated.
  StatusOr<QueryResult> Execute(const LogicalOpPtr& plan,
                                const QueryOptions& options);
  StatusOr<QueryResult> Execute(const LogicalOpPtr& plan,
                                const QueryOptions& options,
                                const ExecContext& ctx);

  // Compiles without running; returns the optimized + parallelized plan.
  StatusOr<LogicalOpPtr> Compile(const LogicalOpPtr& plan,
                                 const QueryOptions& options) const;

 private:
  std::shared_ptr<Database> db_;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_ENGINE_H_
