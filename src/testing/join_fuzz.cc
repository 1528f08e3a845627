#include "src/testing/join_fuzz.h"

#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "src/tde/engine.h"
#include "src/tde/exec/expression.h"
#include "src/testing/query_gen.h"
#include "src/testing/reference_oracle.h"
#include "src/testing/table_diff.h"

namespace vizq::testing {

namespace {

using query::AbstractQuery;
using query::Measure;

// Measure candidates over the joined schema. COUNTD is included because it
// is not re-aggregable from partials: it forces the final-merge path to
// carry whole distinct sets across partitions.
struct MeasureCandidate {
  AggFunc func;
  const char* column;
};
constexpr MeasureCandidate kMeasureCandidates[] = {
    {AggFunc::kSum, "m0"},  {AggFunc::kMin, "m0"},
    {AggFunc::kMax, "m0"},  {AggFunc::kCount, "m0"},
    {AggFunc::kAvg, "m0"},  {AggFunc::kSum, "m1"},
    {AggFunc::kAvg, "m1"},  {AggFunc::kMin, "m1"},
    {AggFunc::kSum, "p"},   {AggFunc::kCount, "p"},
    {AggFunc::kMax, "p"},   {AggFunc::kCountDistinct, "p"},
    {AggFunc::kCountDistinct, "d1"},
};

}  // namespace

std::string JoinFuzzCase::Describe() const {
  return std::string(join_type == tde::JoinType::kInner ? "join:inner|"
                                                        : "join:left|") +
         agg.ToKeyString();
}

JoinFuzzCase GenerateJoinCase(const Dataset& ds, Rng& rng, Rng& filter_rng) {
  JoinFuzzCase jc;
  jc.join_type = rng.Chance(0.5) ? tde::JoinType::kInner
                                 : tde::JoinType::kLeftOuter;
  query::QueryBuilder qb(kFuzzDataSource, ds.table + "*" + ds.dim_table);

  // 0–2 distinct group-by columns; "k" groups by the join key itself,
  // which is NULL for unmatched left-outer rows.
  std::vector<std::string> dim_pool = {"d0", "d1", "d2", "k"};
  int num_dims = static_cast<int>(rng.Below(3));
  for (int i = 0; i < num_dims && !dim_pool.empty(); ++i) {
    size_t pick = rng.Below(dim_pool.size());
    qb.Dim(dim_pool[pick]);
    dim_pool.erase(dim_pool.begin() + pick);
  }

  // 1–2 distinct measures, plus an occasional COUNT(*) — the one aggregate
  // that counts unmatched left-outer rows.
  std::vector<int> measure_pool;
  for (int i = 0; i < static_cast<int>(std::size(kMeasureCandidates)); ++i) {
    measure_pool.push_back(i);
  }
  int num_measures = 1 + static_cast<int>(rng.Below(2));
  for (int i = 0; i < num_measures; ++i) {
    size_t pick = rng.Below(measure_pool.size());
    const MeasureCandidate& c = kMeasureCandidates[measure_pool[pick]];
    qb.Agg(c.func, c.column);
    measure_pool.erase(measure_pool.begin() + pick);
  }
  if (rng.Chance(0.3)) qb.CountAll();

  jc.agg = qb.Build();
  if (filter_rng.Chance(0.5)) {
    std::vector<std::string> columns = ds.all_columns();
    const std::string& column = columns[filter_rng.Below(columns.size())];
    jc.agg.filters.predicates.push_back(
        RandomPredicate(ds, column, filter_rng));
    jc.agg.Canonicalize();
  }
  return jc;
}

tde::LogicalOpPtr BuildJoinPlan(const Dataset& ds, const JoinFuzzCase& jc) {
  tde::LogicalOpPtr fact = tde::MakeScan(ds.table);
  if (!jc.agg.filters.predicates.empty()) {
    fact = tde::MakeSelect(jc.agg.filters.ToExpr(), std::move(fact));
  }
  tde::LogicalOpPtr join =
      tde::MakeJoin(jc.join_type, {{tde::Col("d0"), tde::Col("k")}},
                    std::move(fact), tde::MakeScan(ds.dim_table));
  std::vector<tde::NamedExpr> groups;
  for (const std::string& d : jc.agg.dimensions) {
    groups.push_back({d, tde::Col(d)});
  }
  std::vector<tde::LogicalAgg> aggs;
  for (const Measure& m : jc.agg.measures) {
    tde::LogicalAgg a;
    a.func = m.func;
    a.arg = m.column.empty() ? nullptr : tde::Col(m.column);
    a.name = m.EffectiveAlias();
    aggs.push_back(std::move(a));
  }
  return tde::MakeAggregate(std::move(groups), std::move(aggs),
                            std::move(join));
}

StatusOr<ResultTable> OracleJoinExecute(const Dataset& ds,
                                        const JoinFuzzCase& jc) {
  VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<tde::Table> fact,
                        ds.db->GetTable(ds.table));
  VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<tde::Table> dim,
                        ds.db->GetTable(ds.dim_table));
  auto all_columns = [](const tde::Table& t) {
    std::vector<int> out;
    for (int i = 0; i < t.num_columns(); ++i) out.push_back(i);
    return out;
  };
  ResultTable left = fact->Slice(0, fact->num_rows(), all_columns(*fact));
  ResultTable right = dim->Slice(0, dim->num_rows(), all_columns(*dim));

  std::vector<ResultColumn> joined_columns = left.columns();
  joined_columns.insert(joined_columns.end(), right.columns().begin(),
                        right.columns().end());
  std::optional<int> left_key = left.FindColumn("d0");
  std::optional<int> right_key = right.FindColumn("k");
  if (!left_key.has_value() || !right_key.has_value()) {
    return Internal("join fuzz: key column missing");
  }

  std::vector<ResultTable::Row> joined;
  for (const ResultTable::Row& lr : left.rows()) {
    bool matched = false;
    const Value& key = lr[*left_key];
    if (!key.is_null()) {  // NULL keys never match
      for (const ResultTable::Row& rr : right.rows()) {
        const Value& rkey = rr[*right_key];
        if (rkey.is_null() || !key.Equals(rkey)) continue;
        ResultTable::Row row = lr;
        row.insert(row.end(), rr.begin(), rr.end());
        joined.push_back(std::move(row));
        matched = true;
      }
    }
    if (!matched && jc.join_type == tde::JoinType::kLeftOuter) {
      ResultTable::Row row = lr;
      row.resize(joined_columns.size(), Value::Null());
      joined.push_back(std::move(row));
    }
  }
  return OracleAggregateRows(joined_columns, joined, jc.agg);
}

std::vector<LaneCheck> RunJoinLanes(const Dataset& ds, const JoinFuzzCase& jc,
                                    const DiffOptions& diff,
                                    int64_t* agg_below_join) {
  std::vector<LaneCheck> out;
  const std::string key = jc.Describe();
  StatusOr<ResultTable> oracle = OracleJoinExecute(ds, jc);
  if (!oracle.ok()) {
    out.push_back(LaneCheck{"join_oracle", false,
                            "oracle failed: " + oracle.status().ToString(),
                            key});
    return out;
  }
  tde::LogicalOpPtr plan = BuildJoinPlan(ds, jc);

  auto run = [&](const std::string& lane,
                 const std::shared_ptr<tde::Database>& db,
                 const tde::QueryOptions& options) {
    tde::TdeEngine engine(db);
    StatusOr<tde::QueryResult> result = engine.Execute(plan, options);
    if (!result.ok()) {
      out.push_back(LaneCheck{
          lane, false,
          "execution failed: " + result.status().ToString() + " [case: " +
              key + "]",
          key});
      return;
    }
    if (result->stats->used_agg_below_join) ++*agg_below_join;
    DiffResult d = DiffTables(*oracle, result->table, diff);
    std::string detail =
        d.equivalent ? "" : d.message + " [case: " + key + "]";
    out.push_back(LaneCheck{lane, d.equivalent, std::move(detail), key});
  };

  run("join_serial", ds.db, tde::QueryOptions::Serial());

  // Forced-parallel: tiny thresholds route the build through the
  // partitioned morsel-parallel path and the aggregate through the
  // partitioned final merge even at fuzzing row counts.
  tde::QueryOptions parallel;
  parallel.parallel.max_dop = 3;
  parallel.parallel.min_rows_per_fraction = 1;
  parallel.parallel.enable_morsel = true;
  parallel.parallel.morsel_rows = 7;
  parallel.parallel.parallel_build_min_rows = 1;
  parallel.parallel.parallel_merge_min_rows = 1;
  run("join_parallel", ds.db, parallel);

  if (ds.db_plain != nullptr) {
    run("join_plain", ds.db_plain, tde::QueryOptions::Serial());
  }
  return out;
}

}  // namespace vizq::testing
