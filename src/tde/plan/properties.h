// Property derivation (§4.1.2, §4.2.4): the optimizer derives sortedness
// and cardinality estimates bottom-up and uses them for streaming-aggregate
// selection, range-partitioning decisions and DOP choices. Following the
// paper, only sorting properties are tracked (sorting is a sufficient but
// not necessary condition for the grouping requirement), and the Exchange
// operator disturbs them.

#ifndef VIZQUERY_TDE_PLAN_PROPERTIES_H_
#define VIZQUERY_TDE_PLAN_PROPERTIES_H_

#include <vector>

#include "src/tde/plan/logical.h"

namespace vizq::tde {

struct PlanProperties {
  // Output column indices the stream is sorted by, major first (ascending).
  std::vector<int> sorted_by;
  // Crude row-count estimate.
  double estimated_rows = 0;
};

// Derives the properties of `op`'s output. Requires a bound plan.
PlanProperties DeriveProperties(const LogicalOp& op);

// True when the first group_by.size() entries of `sorted_by` cover exactly
// the set of group-by column indices — the streaming-aggregate grouping
// requirement. All group exprs must be bound column references; otherwise
// false.
bool GroupingSatisfiedBySort(const LogicalOp& aggregate,
                             const PlanProperties& child_props);

// If every group-by expression of `aggregate` is a pure column reference
// that traces down through flow operators (Select / pass-through Project /
// left side of a join) to columns of a single Scan that is not a ranged
// scan, returns that scan node and fills `scan_column_indices` with the
// mapped table column indices.
// Used by the parallelizer's range-partitioning rule (§4.2.3): the
// Aggregate pushes its partitioning requirement down to the TableScan.
LogicalOp* TraceGroupColumnsToScan(const LogicalOp& aggregate,
                                   std::vector<int>* scan_column_indices);

// Rough selectivity guess for a predicate (used for row estimates).
double EstimateSelectivity(const Expr& predicate);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_PLAN_PROPERTIES_H_
