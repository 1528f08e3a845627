// The intelligent query cache (§3.2).
//
// "The intelligent cache maps the internal query structure to a key that is
// associated with the query results. ... When looking for matches, we
// attempt to prove that results of the stored query subsume the requested
// data" — database view matching, with local post-processing limited to
// roll-up, filtering, calculation projection and column restriction.
//
// Matching rules implemented here (stored = S, requested = R):
//   * same data source and view;
//   * dims(R) ⊆ dims(S) — missing granularity can be rolled up;
//   * filters(R) must imply filters(S) (S retained every row R wants), and
//     every *residual* predicate of R must be over a column in dims(S)
//     (post-filtering is only possible on grouped columns);
//   * every measure of R must be derivable from S's columns: identical
//     measure when no roll-up/filter is needed; otherwise via
//     re-aggregation (SUM/MIN/MAX roll up as themselves, COUNT rolls up by
//     summation, AVG needs SUM+COUNT in S, COUNTD needs its column in
//     dims(S));
//   * a stored top-n result is truncated, so it only serves byte-identical
//     requests; a requested top-n is applied locally.
//
// Two match strategies: first match (what shipped in Tableau 9.0) and
// least post-processing (the paper's stated future work), ablated in
// bench_intelligent_cache.

#ifndef VIZQUERY_CACHE_INTELLIGENT_CACHE_H_
#define VIZQUERY_CACHE_INTELLIGENT_CACHE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/eviction.h"
#include "src/cache/sharding.h"
#include "src/common/exec_context.h"
#include "src/common/result_table.h"
#include "src/query/abstract_query.h"

namespace vizq::cache {

// How a requested measure is computed from a stored result's columns.
struct MeasureDerivation {
  enum class Kind : uint8_t {
    kDirect,    // copy column `column_a`
    kReagg,     // re-aggregate column `column_a` with `func`
    kAvgPair,   // sum(column_a) / sum(column_b)
    kCountDistinctDim,  // COUNTD of dimension column `column_a`
  };
  Kind kind = Kind::kDirect;
  AggFunc func = AggFunc::kSum;  // for kReagg
  int column_a = -1;             // index into the stored result
  int column_b = -1;             // for kAvgPair (count column)
};

// A proof that a stored entry answers a request, plus the post-processing
// recipe (§3.2: roll-up, filtering, projection, column restriction).
struct MatchPlan {
  bool exact = false;                 // no post-processing at all
  bool needs_rollup = false;
  std::vector<int> dim_columns;       // stored column index per R dimension
  std::vector<MeasureDerivation> measures;  // per R measure
  std::vector<query::ColumnPredicate> residual_filters;
  bool apply_order_limit = false;
  // Rough cost of post-processing (stored rows to touch); used by the
  // least-post-processing strategy.
  int64_t post_cost = 0;
};

// Why a lookup (or one candidate within it) failed the subsumption proof.
// Ordered by how far the proof progressed before failing: aggregating the
// max across a bucket's candidates reports the *closest* near-miss, which
// is the actionable one ("only the measure wasn't derivable" suggests
// AdjustForReuse; "wrong view" suggests nothing).
enum class MissReason : uint8_t {
  kNone = 0,             // not a miss
  kNoCandidate,          // nothing stored for this (source, view)
  kStoredTopN,           // candidate was a truncated top-n result
  kDimensionNotStored,   // requested dim absent from stored granularity
  kFiltersNotImplied,    // request not at least as restrictive as stored
  kResidualNotGrouped,   // residual predicate on a non-grouped column
  kMeasureNotDerivable,  // a measure could not be derived / re-aggregated
  kEntryStale,           // proof succeeded but the entry is older than the
                         // freshness TTL (and the lookup did not opt into
                         // stale answers covering that age)
  kPostProcessFailed,    // the match plan failed while being applied
};
inline constexpr int kNumMissReasons = 9;

// Short stable token, e.g. "measure_not_derivable"; used as the
// cache.intelligent.miss.<reason> metric suffix and in breadcrumbs.
const char* MissReasonToString(MissReason r);

// Attempts the subsumption proof. Returns nullopt when `stored` cannot
// answer `requested`. When `reason` is non-null and the proof fails, it
// receives which check rejected the candidate (untouched on success).
std::optional<MatchPlan> MatchQueries(const query::AbstractQuery& stored,
                                      const query::AbstractQuery& requested,
                                      MissReason* reason = nullptr);

// The same proof with both descriptors' ToKeyString() supplied, for
// callers that match one query against many and build each key once.
std::optional<MatchPlan> MatchQueries(const query::AbstractQuery& stored,
                                      const std::string& stored_key,
                                      const query::AbstractQuery& requested,
                                      const std::string& requested_key,
                                      MissReason* reason = nullptr);

// Executes the post-processing recipe over the stored rows.
StatusOr<ResultTable> ApplyMatchPlan(const ResultTable& stored,
                                     const MatchPlan& plan,
                                     const query::AbstractQuery& requested);

// §3.2: "The query processor might choose to adjust queries before
// sending, in order to make the results more useful for future reuse."
struct AdjustOptions {
  // AVG(c) is sent as SUM(c) + COUNT(c) so the result stays re-aggregable.
  bool decompose_avg = true;
  // Filtered columns are added as extra dimensions so later interactions
  // that change the filter selection post-process instead of re-querying
  // (the Fig. 1 discussion: "as long as the filtering columns are
  // included").
  bool add_filter_dimensions = false;
};

// Returns the adjusted query to send. The original request is then always
// answerable from the adjusted result via MatchQueries/ApplyMatchPlan.
query::AbstractQuery AdjustForReuse(const query::AbstractQuery& q,
                                    const AdjustOptions& options);

enum class MatchStrategy : uint8_t { kFirstMatch, kLeastPostProcessing };

struct IntelligentCacheOptions {
  int64_t max_bytes = 256 << 20;
  // Results whose evaluation took less than this are not worth caching
  // (§3.2: "we cache all the query results unless computation time is
  // comparable with a cache lookup time"), and results bigger than
  // max_result_bytes are excessively large.
  double min_eval_cost_ms = 0.0;
  int64_t max_result_bytes = 64 << 20;
  MatchStrategy strategy = MatchStrategy::kFirstMatch;
  // Entries older than this are no longer "fresh": a default lookup treats
  // them as misses (kEntryStale) so the stack recomputes, while a lookup
  // that opts in via LookupOptions::max_age_ms may still be served from
  // them — labeled stale, with the actual age attached. 0 = entries never
  // go stale (the historical behavior; data sources here are immutable, so
  // staleness is a freshness policy, not a correctness one).
  double fresh_ttl_ms = 0.0;
  EvictionConfig eviction;
  // Lock striping width; normalized to a power of two in [1, 256], 0 =
  // default (16). One shard degenerates to the old single-mutex cache.
  int num_shards = 0;
};

struct CacheStats {
  int64_t exact_hits = 0;
  int64_t derived_hits = 0;  // answered via post-processing
  int64_t stale_hits = 0;    // served past the freshness TTL (opt-in only)
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t inserts = 0;
  int64_t invalidations = 0;  // entries purged by InvalidateDataSource
  // Misses broken down by the closest-progress MissReason across the
  // bucket's candidates; indexed by static_cast<int>(MissReason).
  // Invariant: sum(miss_reasons) == misses.
  std::array<int64_t, kNumMissReasons> miss_reasons{};
  // Every served answer, fresh or stale.
  int64_t hits() const { return exact_hits + derived_hits + stale_hits; }
};

// An intelligent-cache hit. `table` is an immutable snapshot shared with
// the cache (exact hits) or freshly post-processed (derived hits); either
// way it is safe to hold without copying and never mutated by the cache.
struct CacheHit {
  std::shared_ptr<const ResultTable> table;
  bool exact = false;
  // Age of the serving entry at lookup time and whether it was past the
  // freshness TTL (only possible for lookups that opted into stale
  // answers). Stale answers are always correctly *labeled*: callers that
  // surface them must carry age_ms along (the load-shed ladder does).
  double age_ms = 0.0;
  bool stale = false;
};

// Per-lookup freshness policy (the load-shed ladder's knob).
struct LookupOptions {
  // < 0: fresh answers only — entries older than the cache's fresh TTL
  // are treated as misses (kEntryStale). >= 0: accept entries up to this
  // old, labeling the hit stale when it is past the TTL.
  double max_age_ms = -1.0;
  // Restrict the lookup to the exact-key probe; the subsumption scan is
  // skipped. Rung 1 of the shed ladder serves exact stale answers before
  // falling back to derived ones.
  bool exact_only = false;
};

// Thread-safe, lock-striped. Shards are selected by the hash of the
// (data_source, view) bucket key, so one lookup — exact probe plus
// subsumption scan — touches exactly one shard mutex. Under the shard
// lock only metadata work happens (map probes, the subsumption scan,
// usage bumps); exact hits hand back a refcounted snapshot and the
// expensive derived-hit roll-up (ApplyMatchPlan) runs on a snapshotted
// entry after the lock is released. The scan first tests each
// candidate's match signature (computed once at Put): a candidate the
// signature proves unanswerable is rejected with the MissReason the
// proof would return, and only the rest run MatchQueries.
class IntelligentCache {
 public:
  explicit IntelligentCache(IntelligentCacheOptions options = {});

  // Looks up `q`; on a hit returns the shared (exact) or freshly
  // post-processed (derived) result without copying row data. Counts the
  // outcome on `ctx` (cache.intelligent.exact_hit / derived_hit / miss)
  // and observes cache.intelligent.lock_wait_us / derived_apply_us.
  std::optional<CacheHit> LookupHit(
      const query::AbstractQuery& q,
      const ExecContext& ctx = ExecContext::Background(),
      const LookupOptions& lookup = {});

  // Copying convenience wrapper over LookupHit; the copy happens outside
  // any shard lock.
  std::optional<ResultTable> Lookup(
      const query::AbstractQuery& q,
      const ExecContext& ctx = ExecContext::Background());

  // Stores a result. `eval_cost_ms` drives both the admission decision and
  // the eviction score.
  void Put(const query::AbstractQuery& q, ResultTable result,
           double eval_cost_ms,
           const ExecContext& ctx = ExecContext::Background());

  // §3.2: entries are purged when a connection to a data source is closed
  // or refreshed.
  void InvalidateDataSource(const std::string& data_source);
  // Drops every entry AND resets stats: the cache is as-new, so hit-rate
  // reporting starts from zero instead of mixing epochs.
  void Clear();

  CacheStats stats() const;
  int64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  int64_t num_entries() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Live entries per shard; lets tests and benches quantify imbalance.
  std::vector<int64_t> ShardOccupancy() const;

  // Persistence support: snapshot / restore every live entry. The
  // snapshot is per-shard sequentially consistent (each shard is copied
  // atomically; concurrent writers may land between shards).
  struct Snapshot {
    query::AbstractQuery descriptor;
    ResultTable result;
    double eval_cost_ms;
  };
  std::vector<Snapshot> TakeSnapshot() const;
  void Restore(std::vector<Snapshot> entries);
  // Persistence: overwrite the hit/miss counters after a Restore() (SET
  // semantics), so round-tripped stats do not double-count the inserts
  // that Restore issues through Put().
  void SetStatsForRestore(const CacheStats& stats);

 private:
  struct Entry {
    query::AbstractQuery descriptor;
    std::shared_ptr<const ResultTable> result;
    // Wall-free insertion instant; an entry's age at lookup decides fresh
    // vs stale under the fresh_ttl_ms policy.
    std::chrono::steady_clock::time_point stored_at{};
    // Match signature, set at Put for RejectBySignature:
    // descriptor.has_limit(), and one bit per dimension and per filtered
    // column. A name whose bit is clear is certainly absent; a set bit
    // proves nothing, because two names can share a bit.
    bool has_limit = false;
    uint64_t dim_bits = 0;
    uint64_t filter_bits = 0;
    EntryUsage usage;
    uint64_t heap_seq = 0;  // bumped per usage change (lazy heap deletion)
    bool evicted = false;   // left the maps; heap nodes must skip it
    std::string key;        // descriptor.ToKeyString(), cached
    std::string bucket_key;
  };

  struct Shard {
    mutable std::mutex mu;
    // Exact-key fast path.
    std::map<std::string, std::shared_ptr<Entry>> by_key;
    // Bucketed by (data_source, view): the index that keeps subsumption
    // scans from touching unrelated entries.
    std::map<std::string, std::vector<std::shared_ptr<Entry>>> buckets;
    EvictionHeap<Entry> heap;
    int64_t bytes = 0;
  };

  Shard& ShardFor(const std::string& bucket_key) {
    return *shards_[ShardIndexFor(bucket_key,
                                  static_cast<int>(shards_.size()))];
  }

  // The MissReason MatchQueries(entry.descriptor, q) would return, when
  // the signatures (`q_dims`, `q_filters` are q's) prove that the proof
  // fails at its top-n, dimension or filter-implication step; kNone when
  // the proof must run.
  static MissReason RejectBySignature(const Entry& entry,
                                      const query::AbstractQuery& q,
                                      const std::string& key, uint64_t q_dims,
                                      uint64_t q_filters);
  // Unlinks `entry` from the shard maps (shard lock held by caller).
  void RemoveLocked(Shard& shard, const std::shared_ptr<Entry>& entry);
  // Evicts shard-local victims round-robin until under budget. Must be
  // called with NO shard lock held.
  void EvictIfNeeded(const ExecContext& ctx);

  IntelligentCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> tick_{0};
  std::atomic<size_t> evict_cursor_{0};

  struct AtomicStats {
    std::atomic<int64_t> exact_hits{0};
    std::atomic<int64_t> derived_hits{0};
    std::atomic<int64_t> stale_hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> inserts{0};
    std::atomic<int64_t> invalidations{0};
    std::array<std::atomic<int64_t>, kNumMissReasons> miss_reasons{};
  };
  AtomicStats stats_;

  // Counts the miss (total + per-reason + ctx metric + breadcrumb).
  void CountMiss(MissReason reason, const query::AbstractQuery& q,
                 const ExecContext& ctx);
};

}  // namespace vizq::cache

#endif  // VIZQUERY_CACHE_INTELLIGENT_CACHE_H_
