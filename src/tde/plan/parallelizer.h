// Parallel plan generation (§4.2.2–§4.2.3).
//
// Following Vectorwise's style, the parallelizer takes the optimized serial
// plan and transforms it into a parallel plan bottom-up:
//
//   1. At each TableScan the optimizer inspects metadata (row count, the
//      per-row cost of the expressions the scan feeds) and picks a degree
//      of parallelism N >= 1 (the table is split into N fractions).
//   2. Flow operators (Select, Project) inherit the child's DOP.
//   3. At a stop-and-go operator (Aggregate, Order, TopN) an Exchange is
//      inserted between child and parent — with these §4.2.3 refinements:
//        * local/global aggregation: a partial aggregate below the
//          Exchange and a final one above, shrinking Exchange input;
//        * removal of the global aggregate entirely when a permutation of
//          a subset of the GROUP BY columns is a prefix of the scan
//          table's sort order — the scan switches to range partitioning so
//          each group lands in exactly one fraction (Lemmas 1–3);
//        * local/global TopN, same idea.
//   4. Joins: the left (fact) sub-tree joins the main parallelism; the
//      right sub-tree forms an independent unit whose result and hash
//      table are shared across the probing threads.
//   5. If the root still has DOP > 1, a final Exchange closes the plan.
//
// The Exchange here is N-inputs/one-output only, exactly the Tableau 9.0
// restriction; everything above an Exchange runs serially.

#ifndef VIZQUERY_TDE_PLAN_PARALLELIZER_H_
#define VIZQUERY_TDE_PLAN_PARALLELIZER_H_

#include "src/tde/plan/logical.h"

namespace vizq::tde {

struct ParallelOptions {
  bool enable_parallel = true;
  int max_dop = 4;
  // A fraction must be worth at least this many rows of work.
  int64_t min_rows_per_fraction = 65536;
  bool enable_local_global_agg = true;
  bool enable_range_partition = true;
  bool enable_local_global_topn = true;
  // Range partitioning is applied conservatively (§4.2.3): skipped when
  // the sort-prefix key has fewer distinct values than this (low
  // cardinality would starve fractions / skew them).
  int64_t range_partition_min_distinct = 8;
  // Morsel-driven scans (DESIGN.md §10): randomly-partitioned scans claim
  // dynamic row-range morsels from a queue shared by the Exchange inputs
  // instead of fixed fractions, so skew self-balances. Range-partitioned
  // scans keep static group-aligned fractions (alignment is the point).
  bool enable_morsel = true;
  int64_t morsel_rows = 8192;  // rows per claimed morsel
  // Blocking-operator parallelism (DESIGN.md §12): the partitioned
  // hash-join build and the partitioned kFinal merge. The dop lands as a
  // plan annotation (build_dop / merge_dop); the row thresholds gate the
  // fan-out at runtime, when the actual build/partial sizes are known.
  bool enable_parallel_build = true;
  bool enable_parallel_merge = true;
  int64_t parallel_build_min_rows = 65536;
  int64_t parallel_merge_min_rows = 4096;
};

// Rewrites the optimized, bound plan in place into a parallel plan.
// Annotations: scans get scan_dop/partition, aggregates get phases,
// Exchange nodes appear at serialization points.
Status ParallelizePlan(LogicalOpPtr* root, const ParallelOptions& options);

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_PLAN_PARALLELIZER_H_
