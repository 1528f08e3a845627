// TQL logical operator trees (§4.1.2).
//
// TQL is "a logical tree style language" with the classic operators:
// TableScan, Select, Project, Join, Aggregate, Order, TopN (plus Distinct,
// which the compiler rewrites into a GROUP BY). The parallelizer adds
// Exchange nodes and aggregate phases; the optimizer may fold a Select's
// conjuncts on an RLE column into its Scan as a run predicate, so the Scan
// reads only the matching runs (a ranged scan, §4.3).
//
// Trees are built unbound (column names as strings), then bound against a
// database (tables resolved, expressions type-checked, output schemas
// derived). Plans are mutable shared_ptr trees during compilation; the
// translator turns them into physical operator pipelines.

#ifndef VIZQUERY_TDE_PLAN_LOGICAL_H_
#define VIZQUERY_TDE_PLAN_LOGICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tde/exec/aggregate.h"
#include "src/tde/exec/expression.h"
#include "src/tde/exec/join.h"
#include "src/tde/storage/database.h"

namespace vizq::tde {

enum class LogicalKind : uint8_t {
  kScan,
  kSelect,
  kProject,
  kJoin,
  kAggregate,
  kOrder,
  kTopN,
  kDistinct,       // rewritten to kAggregate by the compiler
  kExchange,       // inserted by the parallelizer
};

const char* LogicalKindToString(LogicalKind k);

// How a partitioned scan splits its rows across Exchange inputs (§4.2.3).
enum class PartitionKind : uint8_t {
  kNone = 0,    // serial scan
  kRandom,      // contiguous even slices (TDE "random" partitioning)
  kRangeOnSortPrefix,  // group-aligned slices on the sorted prefix
  kMorsel,      // dynamic row-range morsels from a shared queue (§10)
};

// Why DecideEncodedExec left a non-final Aggregate on the row path
// (DESIGN.md §11). The first three mean the pattern did not match; the
// three gates are the encoded path's fallbacks.
enum class EncodedSkip : uint8_t {
  kNone = 0,          // took the dense path, or was not considered
  kNoGroupKeys,       // a scalar aggregate
  kNotScanChain,      // the input is not [Select]* over a Scan (a join...)
  kKeyNotDense,       // a group key is neither a bare dictionary-string
                      // column nor a bare integer column with min/max
  kCellCap,           // gate 1: the dense cell space exceeds the cap
  kArgOverRle,        // gate 2: a computed argument reads an RLE column
  kConjunctOverRle,   // gate 3: a multi-column conjunct reads an RLE column
  kStreaming,         // a streaming aggregate executes here instead
};
inline constexpr int kNumEncodedSkips = 8;

// Short stable token, e.g. "key_not_dense"; used as the
// tde.encoded.skip.<reason> metric suffix and in EXPLAIN ANALYZE labels.
const char* EncodedSkipToString(EncodedSkip s);

// A named output expression (projection entry / group-by entry).
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

// A logical aggregate computation.
struct LogicalAgg {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;  // nullptr for COUNT(*)
  std::string name;
};

// A logical ordering key.
struct LogicalSortKey {
  ExprPtr expr;
  bool ascending = true;
};

struct LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

// Output column of a plan node, derived at bind time.
struct OutputColumn {
  std::string name;
  DataType type;
};

struct LogicalOp {
  LogicalKind kind = LogicalKind::kScan;
  std::vector<LogicalOpPtr> children;

  // --- kScan ---
  std::string table_path;
  std::shared_ptr<const Table> table;  // resolved at bind time
  std::vector<int> scan_columns;       // table column indices produced
  // Parallel annotations (set by the parallelizer):
  int scan_dop = 1;
  PartitionKind partition = PartitionKind::kNone;
  int range_prefix_len = 0;  // for kRangeOnSortPrefix
  int64_t morsel_rows = 0;   // for kMorsel: rows per claimed morsel
  // Ranged scan (RLE range skipping, set by the optimizer): the scan reads
  // only the runs of `rle_column` that satisfy `run_predicate`.
  int rle_column = -1;        // table column index the runs belong to
  ExprPtr run_predicate;      // bound against a 1-column schema of it
  // Encoding-aware execution (DESIGN.md §11), set by DecideEncodedExec:
  // kScan emits kRle columns run-encoded instead of flattening them.
  bool emit_encoded = false;

  // --- kSelect ---
  ExprPtr predicate;
  // Encoded filter: pass batches through with a selection vector,
  // evaluating classified conjuncts per token / per run (DESIGN.md §11).
  bool encoded_filter = false;
  std::vector<EncodedConjunct> encoded_conjuncts;

  // --- kProject ---
  std::vector<NamedExpr> projections;

  // --- kJoin ---
  JoinType join_type = JoinType::kInner;
  std::vector<std::pair<ExprPtr, ExprPtr>> join_keys;  // (left, right)
  // "Assume referential integrity": every left (fact) row matches exactly
  // one right (dimension) row. Gates join culling both ways (§6's join
  // culling, and fact-table culling for domain queries §4.1.2).
  bool referential = false;
  // Parallelism of the partitioned hash build (set by the parallelizer;
  // 1 = serial build). Gated at runtime by the build side's row count.
  int build_dop = 1;

  // --- kAggregate / kDistinct ---
  std::vector<NamedExpr> group_by;
  std::vector<LogicalAgg> aggregates;
  AggPhase agg_phase = AggPhase::kComplete;
  bool prefer_streaming = false;  // set by the optimizer when sortedness
                                  // makes a streaming aggregate applicable
  // Parallelism of the kFinal partitioned merge (set by the parallelizer
  // alongside the local/global split; 1 = serial merge above the Exchange).
  int merge_dop = 1;
  // Dense token-indexed grouping (DESIGN.md §11), set by DecideEncodedExec.
  bool use_encoded_agg = false;
  std::vector<int> encoded_key_columns;    // child column index per key
  std::vector<int64_t> encoded_key_cards;  // domain size per key
  std::vector<int64_t> encoded_key_mins;   // value of digit 1 per key
  int64_t encoded_cells = 1;               // prod(card + 1)
  EncodedSkip encoded_skip = EncodedSkip::kNone;

  // --- kOrder / kTopN ---
  std::vector<LogicalSortKey> order_keys;
  int64_t limit = 0;  // kTopN

  // --- kExchange ---
  int dop = 1;

  // Derived at bind time.
  bool bound = false;
  std::vector<OutputColumn> output;

  // The BatchSchema equivalent of `output` (no dictionary info; binding
  // only needs names and types).
  BatchSchema OutputBatchSchema() const;

  int FindOutputColumn(const std::string& name) const;

  // Deep copy of the plan tree (expressions are shared, they're immutable).
  LogicalOpPtr Clone() const;

  // Multi-line indented rendering for debugging and plan tests.
  std::string ToString(int indent = 0) const;
};

// --- construction helpers (unbound) ---
LogicalOpPtr MakeScan(std::string table_path);
LogicalOpPtr MakeSelect(ExprPtr predicate, LogicalOpPtr child);
LogicalOpPtr MakeProject(std::vector<NamedExpr> projections, LogicalOpPtr child);
LogicalOpPtr MakeJoin(JoinType type,
                      std::vector<std::pair<ExprPtr, ExprPtr>> keys,
                      LogicalOpPtr left, LogicalOpPtr right,
                      bool referential = false);
LogicalOpPtr MakeAggregate(std::vector<NamedExpr> group_by,
                           std::vector<LogicalAgg> aggregates,
                           LogicalOpPtr child);
LogicalOpPtr MakeOrder(std::vector<LogicalSortKey> keys, LogicalOpPtr child);
LogicalOpPtr MakeTopN(int64_t limit, std::vector<LogicalSortKey> keys,
                      LogicalOpPtr child);
LogicalOpPtr MakeDistinct(LogicalOpPtr child);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_PLAN_LOGICAL_H_
