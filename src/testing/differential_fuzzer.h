// The differential fuzzer driver: deterministic, seed-reproducible
// generation of datasets and query batches, execution through every lane
// (lanes.h), metamorphic cross-checks (query_gen.h), and a minimizing
// reporter.
//
// Reproducing a failure: every FuzzFailure carries the dataset seed and
// the per-query lane seed. `GenerateDataset(dataset_seed)` rebuilds the
// exact fixture; `ExecutionLanes(ds, opts).RunQuery(query, lane_seed)`
// replays the failing check. Running the CLI again with the same --seed
// and --iterations replays the whole campaign.

#ifndef VIZQUERY_TESTING_DIFFERENTIAL_FUZZER_H_
#define VIZQUERY_TESTING_DIFFERENTIAL_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/query/abstract_query.h"
#include "src/testing/lanes.h"

namespace vizq::testing {

struct FuzzOptions {
  uint64_t seed = 20150406;  // any value; fixed default for tier-1 runs
  int iterations = 200;
  int queries_per_iteration = 3;
  // A fresh dataset (and fresh lane services/caches) every N iterations;
  // within a window, caches persist so cross-query interactions are
  // fuzzed too.
  int dataset_every = 8;
  bool include_federated = true;
  bool deadline_lane = true;
  // Overload lane: every response from a saturated frontend is exact-
  // correct, labeled stale within the serve bound, or a typed shed.
  bool stale_shed_lane = true;
  // Sharded-cluster lane: the iteration batch scattered across a 3-node
  // simulated Data Server and diffed against the single-node oracle,
  // with seed-selected node-kill / kill-then-revive fault variants.
  bool cluster_lane = true;
  bool metamorphic = true;
  // Two-table equi-join lane (join_fuzz.h): one generated inner or
  // left-outer join + aggregation per iteration, diffed against a
  // nested-loop reference join in serial, forced-parallel (partitioned
  // hash-join build + partitioned final merge) and plain-encoding modes.
  bool join_lane = true;
  // Self-test: bump one aggregate cell of the engine result by one in a
  // scratch lane; the diff must catch it.
  bool inject_offby_one = false;
  // Stop after this many distinct failures (each is minimized, which
  // costs extra executions).
  int max_failures = 5;
  bool minimize = true;
  DiffOptions diff;
};

struct FuzzFailure {
  int iteration = 0;
  uint64_t dataset_seed = 0;  // GenerateDataset(dataset_seed) rebuilds it
  uint64_t lane_seed = 0;     // RunQuery(query, lane_seed) replays it
  std::string lane;
  query::AbstractQuery query;
  // Shrunk query that still fails this lane on a fresh lane set; equals
  // `query` when the failure needs cross-query cache state (noted in
  // `detail`) or minimization is off.
  query::AbstractQuery minimized;
  std::string detail;

  std::string ToString() const;
};

struct FuzzReport {
  int iterations_run = 0;
  int queries_generated = 0;
  int64_t lane_checks = 0;
  // Join-lane executions whose join probed partial aggregates
  // (ExecStats::used_agg_below_join).
  int64_t agg_below_join = 0;
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

FuzzReport RunDifferentialFuzz(const FuzzOptions& options);

// Re-checks `q` against `lane` on a fresh ExecutionLanes over `ds`;
// returns true when the lane still fails (used by the minimizer and by
// regression tests replaying a reported failure).
bool LaneStillFails(const Dataset& ds, const LaneSetupOptions& lane_options,
                    const query::AbstractQuery& q, const std::string& lane,
                    uint64_t lane_seed, std::string* detail);

}  // namespace vizq::testing

#endif  // VIZQUERY_TESTING_DIFFERENTIAL_FUZZER_H_
