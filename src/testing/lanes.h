// ExecutionLanes: runs one generated query through every execution path
// the system has and diffs each against the reference oracle:
//
//   tde_direct      — QueryService over the in-process TDE, all caching,
//                     fusion and adjustment off (the "plain engine" lane).
//   morsel_parallel — the same query through a TDE service with parallel
//                     plans forced on (tiny fractions, tiny morsels):
//                     Exchange producers run as scheduler tasks claiming
//                     dynamic morsels; the result is diffed against the
//                     serial oracle ordering-insensitively.
//   plain_encoding  — the same query over the dataset's forced-kPlain twin
//                     (db_plain): every iteration diffs the encoded
//                     execution path (dictionary/RLE/delta columns, dense
//                     grouping, per-token filters) against fully decoded
//                     storage.
//   derived_hit     — a generalized version of the query is executed and
//                     stored in a fresh IntelligentCache; the original must
//                     then be answered as a (usually derived) hit,
//                     exercising MatchQueries + ApplyMatchPlan roll-up,
//                     residual filtering, AVG-pair and COUNTD derivations.
//   crowded_bucket  — one IntelligentCache per dataset collects every
//                     query's generalization and every top-n query
//                     itself, so its one bucket holds entries that fail
//                     the proof at each step. The query is probed before
//                     and after its own entries are stored; each probe
//                     must agree with a brute-force MatchQueries pass over
//                     the cache's snapshot (hit exactly when some entry
//                     matches, else a miss counted under the nearest
//                     reason), a hit must match the oracle, and the
//                     second probe must hit.
//   literal_first / literal_replay — the query runs twice through a
//                     literal-cache-only service; the second run must be
//                     served from the literal cache and still be right.
//   fed_mssql       — a simulated single-threaded MSSQL-like backend
//                     (temp tables, TOP n, low externalization threshold).
//   fed_legacy      — a simulated legacy file driver (no temp tables, no
//                     top-n: the client applies order/limit locally).
//   batch_fused / batch_unfused — the whole iteration batch through
//                     QueryService with fusion/analysis/adjustment on vs.
//                     off.
//   deadline        — the query runs against a slow simulated backend
//                     under a tight deadline; the outcome must be either a
//                     fully correct table or kDeadlineExceeded/kAborted —
//                     never a partial-but-OK result.
//   cluster_batch   — the iteration batch, rewritten onto three published
//                     cluster views, scattered across a 3-node simulated
//                     Data Server (consistent-hash routing, per-node
//                     caches over a shared tier) and gathered; diffed
//                     query-by-query against the oracle. Seed-selected
//                     variants kill an owning node first (failover must
//                     re-serve correctly or fail with a typed error —
//                     never silent partials) and then revive it (the
//                     administrative rebalance must leave no stale owner).
//   stale_shed      — the query hits a Frontend under injected overload
//                     (admission cap 0: nothing runs the full pipeline)
//                     over a tiny-TTL cache that is randomly pre-warmed
//                     with the exact query, a generalized superset, or
//                     nothing. Every response must be exact-correct,
//                     correctly-LABELED stale within the serve bound, or
//                     a typed kResourceExhausted shed — never silently
//                     wrong, unboundedly old, or an untyped failure.
//   injected_offby_one — only with inject_offby_one: a copy of the
//                     tde_direct result with one aggregate cell bumped by
//                     one, which the differ must flag (fuzzer self-test).
//
// Federated and literal services persist across queries of one dataset,
// so cross-query cache interactions (key collisions, stale replays) are
// exercised, not just single-query correctness.

#ifndef VIZQUERY_TESTING_LANES_H_
#define VIZQUERY_TESTING_LANES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/intelligent_cache.h"
#include "src/cluster/coordinator.h"
#include "src/dashboard/query_service.h"
#include "src/server/frontend.h"
#include "src/testing/dataset_gen.h"
#include "src/testing/table_diff.h"

namespace vizq::testing {

struct LaneSetupOptions {
  bool include_federated = true;
  bool deadline_lane = true;
  bool stale_shed_lane = true;
  bool cluster_lane = true;
  bool inject_offby_one = false;
  DiffOptions diff;
};

// One lane-vs-oracle verdict. `query_key` is the ToKeyString of the query
// the check ran (lets the fuzzer attribute batch-lane failures).
struct LaneCheck {
  std::string lane;
  bool ok = true;
  std::string detail;
  std::string query_key;
};

// Reference results for one query: with and without order/limit applied.
struct OraclePair {
  ResultTable limited;
  ResultTable unlimited;
};

class ExecutionLanes {
 public:
  ExecutionLanes(Dataset dataset, LaneSetupOptions options);

  // All per-query lanes; `lane_seed` drives randomized per-query choices
  // (derived-hit generalization, deadline budget) deterministically.
  std::vector<LaneCheck> RunQuery(const query::AbstractQuery& q,
                                  uint64_t lane_seed);

  // Batch lanes over the whole iteration batch (positional results).
  // `lane_seed` picks the cluster lane's fault variant (none / node-kill
  // failover / kill-then-revive rebalance) deterministically.
  std::vector<LaneCheck> RunBatch(const std::vector<query::AbstractQuery>& batch,
                                  uint64_t lane_seed = 0);

  // The oracle's answer for `q` (memoized per key string).
  StatusOr<OraclePair> OracleFor(const query::AbstractQuery& q);

  // Executes `q` through the plain-engine lane (used by the metamorphic
  // checks, which combine lane results in known ways).
  StatusOr<ResultTable> ExecuteTruth(const query::AbstractQuery& q);

  const Dataset& dataset() const { return dataset_; }
  int64_t checks_run() const { return checks_run_; }

 private:
  // Diffs `result` against the oracle and appends the verdict.
  void Check(const std::string& lane, const query::AbstractQuery& q,
             const StatusOr<ResultTable>& result, std::vector<LaneCheck>* out);
  // One crowded_bucket probe of `q` against crowded_cache_.
  void ProbeCrowdedBucket(const query::AbstractQuery& q, bool must_hit,
                          std::vector<LaneCheck>* out);

  Dataset dataset_;
  LaneSetupOptions options_;
  std::shared_ptr<tde::Table> table_;

  dashboard::BatchOptions truth_opts_;
  std::unique_ptr<dashboard::QueryService> truth_service_;
  std::unique_ptr<dashboard::QueryService> morsel_service_;
  std::unique_ptr<dashboard::QueryService> plain_service_;
  std::unique_ptr<dashboard::QueryService> literal_service_;
  std::unique_ptr<dashboard::QueryService> batch_service_;
  std::unique_ptr<dashboard::QueryService> fed_mssql_;
  std::unique_ptr<dashboard::QueryService> fed_legacy_;
  std::unique_ptr<dashboard::QueryService> deadline_service_;
  // stale_shed lane: a tiny-TTL cached service behind a saturated
  // frontend (admission cap 0) that can only answer via the shed ladder.
  std::unique_ptr<dashboard::QueryService> stale_service_;
  std::unique_ptr<server::Frontend> stale_frontend_;
  // cluster_batch lane: a 3-node scatter/gather coordinator hosting the
  // fuzz table under three published views.
  std::unique_ptr<cluster::ClusterCoordinator> cluster_;
  // crowded_bucket lane: lives as long as the dataset.
  cache::IntelligentCache crowded_cache_;

  std::map<std::string, OraclePair> oracle_memo_;
  int64_t checks_run_ = 0;
};

// The generalized query the derived-hit lane stores: order/limit and
// filters stripped, filter + COUNTD columns added as dimensions (plus one
// unused dimension when available, forcing a roll-up), AVG decomposed into
// SUM + COUNT, COUNT(*) always present. Exposed for tests.
query::AbstractQuery GeneralizeForDerivedHit(const query::AbstractQuery& q,
                                             const Dataset& ds);

}  // namespace vizq::testing

#endif  // VIZQUERY_TESTING_LANES_H_
