// QueryGen: random abstract aggregate-select-project queries over a
// generated Dataset — GROUP BY subsets (including dims-only domain
// queries and scalar aggregates), every AggFunc, IN-set / range / null
// predicates, and optional order-by + limit — plus metamorphic rewrites
// with known answer relationships:
//   * SplitInFilter: when an IN-filtered column is also a dimension, the
//     result is the disjoint union of the results over a partition of the
//     IN-set;
//   * RollUpQuery: a coarser GROUP BY whose (re-aggregable) answer must
//     equal the naive roll-up of the finer result.

#ifndef VIZQUERY_TESTING_QUERY_GEN_H_
#define VIZQUERY_TESTING_QUERY_GEN_H_

#include <optional>

#include "src/common/rng.h"
#include "src/query/abstract_query.h"
#include "src/testing/dataset_gen.h"

namespace vizq::testing {

// A random IN-set or range predicate on `column` of `ds`, drawn from the
// column's literal pool.
query::ColumnPredicate RandomPredicate(const Dataset& ds,
                                       const std::string& column, Rng& rng);

// Generates one random query against `ds`. Always satisfiable by every
// lane: at least one dimension or measure; limit only with order-by.
query::AbstractQuery GenerateQuery(const Dataset& ds, Rng& rng);

// Metamorphic rewrite: if `q` has an IN filter on one of its dimensions
// with >= 2 values, returns two copies of `q` whose IN-sets partition the
// original. result(q) == result(first) ⊎ result(second).
std::optional<std::pair<query::AbstractQuery, query::AbstractQuery>>
SplitInFilter(const query::AbstractQuery& q, Rng& rng);

// Metamorphic rewrite: drops a strict subset of q's dimensions (and any
// order/limit). Only valid when every measure re-aggregates (SUM, MIN,
// MAX, COUNT(*)); returns nullopt otherwise. result(coarse) ==
// OracleAggregateRows(result(q), rollup-spec).
std::optional<query::AbstractQuery> RollUpQuery(const query::AbstractQuery& q,
                                                Rng& rng);

// The aggregation query that rolls a fine result (named by f's output
// columns) up to `coarse`'s granularity: COUNT(c) becomes SUM over the
// fine count column, etc. Used with OracleAggregateRows on the fine
// lane's rows.
query::AbstractQuery RollupSpec(const query::AbstractQuery& fine,
                                const query::AbstractQuery& coarse);

}  // namespace vizq::testing

#endif  // VIZQUERY_TESTING_QUERY_GEN_H_
