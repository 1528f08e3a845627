// JoinFuzz: the differential fuzzer's join lane. Generates two-table
// equi-joins — fact ⋈ dimension on d0 = k, inner and left-outer — topped
// by a generated aggregation over the joined schema, and diffs every TDE
// execution mode against a nested-loop reference join evaluated with the
// row-at-a-time oracle aggregator (reference_oracle.h).
//
// Semantics under test (DESIGN.md §8 plus the join contract):
//   * NULL keys never match — on either side, for both join types.
//   * Duplicate dimension keys multiply matches (one fact row can emit
//     several joined rows).
//   * A left-outer fact row with no match emits NULL dimension columns,
//     which then flow through grouping (NULL is an ordinary group key)
//     and aggregation (aggregates skip NULLs, COUNT(*) does not).
//
// Lanes: join_serial (all-serial plan), join_parallel (forced morsels +
// partitioned build + partitioned final merge at tiny thresholds) and
// join_plain (the forced-kPlain encoding twin), all diffed
// order-insensitively against the oracle.

#ifndef VIZQUERY_TESTING_JOIN_FUZZ_H_
#define VIZQUERY_TESTING_JOIN_FUZZ_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/query/abstract_query.h"
#include "src/tde/exec/join.h"
#include "src/tde/plan/logical.h"
#include "src/testing/dataset_gen.h"
#include "src/testing/lanes.h"

namespace vizq::testing {

// One generated join case: the join shape plus an aggregation whose
// dimensions/measures name columns of the joined schema (fact columns
// d0..m1 and dimension columns k, p — no name collisions by construction).
// `agg.filters` holds at most one predicate on a fact column, applied by a
// Select on the fact scan.
struct JoinFuzzCase {
  tde::JoinType join_type = tde::JoinType::kInner;
  query::AbstractQuery agg;

  std::string Describe() const;
};

// Deterministic in `rng`: group-by over 0–2 of {d0, d1, d2, k} with 1–2
// aggregates over {m0, m1, p} (SUM/MIN/MAX/COUNT/AVG/COUNTD) and an
// occasional COUNT(*). Half the cases also get a fact-side predicate,
// drawn from `filter_rng` alone so `rng` yields the same shapes either way.
JoinFuzzCase GenerateJoinCase(const Dataset& ds, Rng& rng, Rng& filter_rng);

// The logical plan: Aggregate(agg) over Join([Select] Scan(fact),
// Scan(dim)).
tde::LogicalOpPtr BuildJoinPlan(const Dataset& ds, const JoinFuzzCase& jc);

// Nested-loop reference: materializes the join row-at-a-time (NULL keys
// never match; left-outer emits NULL right columns), then aggregates with
// OracleAggregateRows. Written independently of the hash-join operator.
StatusOr<ResultTable> OracleJoinExecute(const Dataset& ds,
                                        const JoinFuzzCase& jc);

// Runs the case through the serial, forced-parallel and forced-plain
// engines, diffing each against the nested-loop oracle. Adds to
// `*agg_below_join` the executions whose join probed partial aggregates
// (ExecStats::used_agg_below_join).
std::vector<LaneCheck> RunJoinLanes(const Dataset& ds, const JoinFuzzCase& jc,
                                    const DiffOptions& diff,
                                    int64_t* agg_below_join);

}  // namespace vizq::testing

#endif  // VIZQUERY_TESTING_JOIN_FUZZ_H_
