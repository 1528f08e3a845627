#include "src/testing/differential_fuzzer.h"

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/rng.h"
#include "src/testing/join_fuzz.h"
#include "src/testing/query_gen.h"
#include "src/testing/reference_oracle.h"

namespace vizq::testing {

namespace {

using query::AbstractQuery;
using query::ColumnPredicate;
using query::OrderSpec;

// Drops order-by entries that no longer name an output column (the
// minimizer removes dimensions/measures greedily).
void PruneOrderBy(AbstractQuery* q) {
  std::set<std::string> names;
  for (const std::string& n : q->OutputNames()) names.insert(n);
  std::vector<OrderSpec> kept;
  for (const OrderSpec& o : q->order_by) {
    if (names.count(o.by_alias) > 0) kept.push_back(o);
  }
  q->order_by = std::move(kept);
  if (q->order_by.empty()) q->limit = 0;
}

bool IsValidQuery(const AbstractQuery& q) {
  return !q.dimensions.empty() || !q.measures.empty();
}

// Candidate shrinking steps, coarse first. Each returns a modified copy.
std::vector<AbstractQuery> ShrinkCandidates(const AbstractQuery& q) {
  std::vector<AbstractQuery> out;
  auto push = [&](AbstractQuery c) {
    PruneOrderBy(&c);
    c.Canonicalize();
    if (IsValidQuery(c)) out.push_back(std::move(c));
  };

  if (!q.order_by.empty() || q.has_limit()) {
    AbstractQuery c = q;
    c.order_by.clear();
    c.limit = 0;
    push(std::move(c));
  }
  for (size_t i = 0; i < q.filters.predicates.size(); ++i) {
    AbstractQuery c = q;
    c.filters.predicates.erase(c.filters.predicates.begin() + i);
    push(std::move(c));
  }
  for (size_t i = 0; i < q.measures.size(); ++i) {
    AbstractQuery c = q;
    c.measures.erase(c.measures.begin() + i);
    push(std::move(c));
  }
  for (size_t i = 0; i < q.dimensions.size(); ++i) {
    AbstractQuery c = q;
    c.dimensions.erase(c.dimensions.begin() + i);
    push(std::move(c));
  }
  // Halve IN-lists; drop range bounds.
  for (size_t i = 0; i < q.filters.predicates.size(); ++i) {
    const ColumnPredicate& p = q.filters.predicates[i];
    if (p.kind == ColumnPredicate::Kind::kInSet && p.values.size() > 1) {
      size_t half = p.values.size() / 2;
      AbstractQuery c1 = q;
      c1.filters.predicates[i].values.assign(p.values.begin(),
                                             p.values.begin() + half);
      push(std::move(c1));
      AbstractQuery c2 = q;
      c2.filters.predicates[i].values.assign(p.values.begin() + half,
                                             p.values.end());
      push(std::move(c2));
    } else if (p.kind == ColumnPredicate::Kind::kRange) {
      if (p.lower.has_value() && p.upper.has_value()) {
        AbstractQuery c1 = q;
        c1.filters.predicates[i].lower.reset();
        push(std::move(c1));
        AbstractQuery c2 = q;
        c2.filters.predicates[i].upper.reset();
        push(std::move(c2));
      }
    }
  }
  return out;
}

}  // namespace

bool LaneStillFails(const Dataset& ds, const LaneSetupOptions& lane_options,
                    const AbstractQuery& q, const std::string& lane,
                    uint64_t lane_seed, std::string* detail) {
  ExecutionLanes lanes(ds, lane_options);
  std::vector<LaneCheck> checks;
  if (lane == "batch_fused" || lane == "batch_unfused" ||
      lane == "cluster_batch") {
    checks = lanes.RunBatch({q}, lane_seed);
  } else {
    checks = lanes.RunQuery(q, lane_seed);
  }
  for (const LaneCheck& c : checks) {
    if (c.lane == lane && !c.ok) {
      if (detail != nullptr) *detail = c.detail;
      return true;
    }
  }
  return false;
}

namespace {

// Greedy shrink to a fixpoint: repeatedly take the first candidate that
// still fails the lane on a fresh lane set. Bounded by a re-execution
// budget so pathological cases cannot stall the run.
AbstractQuery Minimize(const Dataset& ds, const LaneSetupOptions& lane_options,
                       const AbstractQuery& q, const std::string& lane,
                       uint64_t lane_seed, bool* standalone) {
  std::string detail;
  if (!LaneStillFails(ds, lane_options, q, lane, lane_seed, &detail)) {
    // Not reproducible in isolation: the failure needed cross-query cache
    // state from earlier queries in the window.
    *standalone = false;
    return q;
  }
  *standalone = true;
  AbstractQuery current = q;
  int budget = 150;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    for (AbstractQuery& candidate : ShrinkCandidates(current)) {
      if (--budget <= 0) break;
      if (LaneStillFails(ds, lane_options, candidate, lane, lane_seed,
                         nullptr)) {
        current = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  return current;
}

void RecordFailures(const std::vector<LaneCheck>& checks, int iteration,
                    uint64_t dataset_seed, uint64_t lane_seed,
                    const std::map<std::string, AbstractQuery>& by_key,
                    const Dataset& ds, const LaneSetupOptions& lane_options,
                    const FuzzOptions& options,
                    std::set<std::string>* seen_failures,
                    FuzzReport* report) {
  for (const LaneCheck& c : checks) {
    if (c.ok) continue;
    if (static_cast<int>(report->failures.size()) >= options.max_failures) {
      return;
    }
    // One report per (lane, query) pair.
    std::string fp = c.lane + "|" + c.query_key;
    if (!seen_failures->insert(fp).second) continue;

    FuzzFailure f;
    f.iteration = iteration;
    f.dataset_seed = dataset_seed;
    f.lane_seed = lane_seed;
    f.lane = c.lane;
    f.detail = c.detail;
    auto it = by_key.find(c.query_key);
    if (it != by_key.end()) f.query = it->second;
    f.minimized = f.query;
    bool metamorphic_lane = c.lane.rfind("metamorphic", 0) == 0;
    if (options.minimize && it != by_key.end() && !metamorphic_lane) {
      bool standalone = false;
      f.minimized = Minimize(ds, lane_options, f.query, c.lane, lane_seed,
                             &standalone);
      if (!standalone) {
        f.detail +=
            " [not reproducible standalone: needs cross-query cache state "
            "from this dataset window]";
      }
    }
    report->failures.push_back(std::move(f));
  }
}

}  // namespace

std::string FuzzFailure::ToString() const {
  std::ostringstream os;
  os << "lane=" << lane << " iteration=" << iteration
     << " dataset_seed=" << dataset_seed << " lane_seed=" << lane_seed
     << "\n  query:     " << query.ToKeyString()
     << "\n  minimized: " << minimized.ToKeyString() << "\n  detail:    "
     << detail;
  return os.str();
}

std::string FuzzReport::Summary() const {
  std::ostringstream os;
  os << "differential fuzz: " << iterations_run << " iterations, "
     << queries_generated << " queries, " << lane_checks << " lane checks, "
     << failures.size() << " failure(s), " << agg_below_join
     << " join lane run(s) aggregated below the join";
  for (const FuzzFailure& f : failures) {
    os << "\n--- FAILURE ---\n" << f.ToString();
  }
  return os.str();
}

FuzzReport RunDifferentialFuzz(const FuzzOptions& options) {
  FuzzReport report;
  LaneSetupOptions lane_options;
  lane_options.include_federated = options.include_federated;
  lane_options.deadline_lane = options.deadline_lane;
  lane_options.stale_shed_lane = options.stale_shed_lane;
  lane_options.cluster_lane = options.cluster_lane;
  lane_options.inject_offby_one = options.inject_offby_one;
  lane_options.diff = options.diff;

  Dataset ds;
  std::unique_ptr<ExecutionLanes> lanes;
  uint64_t dataset_seed = 0;
  std::set<std::string> seen_failures;

  for (int iter = 0; iter < options.iterations; ++iter) {
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
    uint64_t iter_seed = HashCombine(options.seed, static_cast<uint64_t>(iter));
    if (lanes == nullptr || iter % options.dataset_every == 0) {
      dataset_seed = iter_seed;
      ds = GenerateDataset(dataset_seed);
      lanes = std::make_unique<ExecutionLanes>(ds, lane_options);
    }
    ++report.iterations_run;

    Rng rng(HashCombine(iter_seed, 0x9e3779));
    std::vector<AbstractQuery> batch;
    std::map<std::string, AbstractQuery> by_key;
    for (int i = 0; i < options.queries_per_iteration; ++i) {
      AbstractQuery q = GenerateQuery(ds, rng);
      by_key.emplace(q.ToKeyString(), q);
      batch.push_back(std::move(q));
    }
    report.queries_generated += static_cast<int>(batch.size());

    for (size_t i = 0; i < batch.size(); ++i) {
      uint64_t lane_seed = HashCombine(iter_seed, 0xface + i);
      auto checks = lanes->RunQuery(batch[i], lane_seed);
      RecordFailures(checks, iter, dataset_seed, lane_seed, by_key, ds,
                     lane_options, options, &seen_failures, &report);
    }
    {
      uint64_t batch_seed = HashCombine(iter_seed, 0xba7c4);
      auto checks = lanes->RunBatch(batch, batch_seed);
      RecordFailures(checks, iter, dataset_seed, batch_seed, by_key, ds,
                     lane_options, options, &seen_failures, &report);
    }

    // --- metamorphic cross-checks on the first query of the batch ---
    if (options.metamorphic && !batch.empty()) {
      AbstractQuery base = batch[0];
      base.order_by.clear();
      base.limit = 0;
      base.Canonicalize();
      std::vector<LaneCheck> checks;
      std::map<std::string, AbstractQuery> meta_keys;

      auto split = SplitInFilter(base, rng);
      if (split.has_value()) {
        auto a = lanes->ExecuteTruth(split->first);
        auto b = lanes->ExecuteTruth(split->second);
        auto oracle = lanes->OracleFor(base);
        ++report.lane_checks;
        if (a.ok() && b.ok() && oracle.ok()) {
          ResultTable merged(std::vector<ResultColumn>(a->columns()));
          for (const auto& row : a->rows()) merged.AddRow(row);
          for (const auto& row : b->rows()) merged.AddRow(row);
          DiffResult diff = DiffTables(oracle->limited, merged, options.diff);
          if (!diff.equivalent) {
            checks.push_back(LaneCheck{
                "metamorphic_split", false,
                "union of IN-split parts differs from whole: " + diff.message +
                    " [parts: " + split->first.ToKeyString() + " | " +
                    split->second.ToKeyString() + "]",
                base.ToKeyString()});
            meta_keys.emplace(base.ToKeyString(), base);
          }
        }
      }

      auto coarse = RollUpQuery(base, rng);
      if (coarse.has_value()) {
        auto fine = lanes->ExecuteTruth(base);
        auto coarse_res = lanes->ExecuteTruth(*coarse);
        ++report.lane_checks;
        if (fine.ok() && coarse_res.ok() && fine->num_rows() > 0) {
          AbstractQuery spec = RollupSpec(base, *coarse);
          auto rolled = OracleAggregateRows(fine->columns(), fine->rows(),
                                            spec);
          if (rolled.ok()) {
            DiffResult diff = DiffTables(*rolled, *coarse_res, options.diff);
            if (!diff.equivalent) {
              checks.push_back(LaneCheck{
                  "metamorphic_rollup", false,
                  "coarse result differs from roll-up of fine result: " +
                      diff.message + " [fine: " + base.ToKeyString() + "]",
                  coarse->ToKeyString()});
              meta_keys.emplace(coarse->ToKeyString(), *coarse);
            }
          }
        }
      }
      RecordFailures(checks, iter, dataset_seed,
                     HashCombine(iter_seed, 0x3e7a), meta_keys, ds,
                     lane_options, options, &seen_failures, &report);
    }

    // --- join lane: a generated two-table equi-join vs the nested-loop
    // oracle join (join_fuzz.h). No minimizer entry: the case description
    // rides in the failure detail, and the fingerprint dedups per case. ---
    if (options.join_lane) {
      Rng filter_rng(HashCombine(iter_seed, 0x5e1ec7));
      JoinFuzzCase jc = GenerateJoinCase(ds, rng, filter_rng);
      auto checks =
          RunJoinLanes(ds, jc, options.diff, &report.agg_below_join);
      report.lane_checks += static_cast<int64_t>(checks.size());
      RecordFailures(checks, iter, dataset_seed,
                     HashCombine(iter_seed, 0x107a9), {}, ds, lane_options,
                     options, &seen_failures, &report);
    }

    report.lane_checks = lanes->checks_run() + report.lane_checks;
  }
  return report;
}

}  // namespace vizq::testing
