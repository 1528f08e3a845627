#include "src/testing/query_gen.h"

#include <algorithm>
#include <set>
#include <utility>

namespace vizq::testing {

namespace {

using query::AbstractQuery;
using query::ColumnPredicate;
using query::Measure;
using query::OrderSpec;

// Non-null members of a pool.
std::vector<Value> NonNull(const std::vector<Value>& pool) {
  std::vector<Value> out;
  for (const Value& v : pool) {
    if (!v.is_null()) out.push_back(v);
  }
  return out;
}

Measure RandomMeasure(const Dataset& ds, Rng& rng) {
  static const AggFunc kFuncs[] = {
      AggFunc::kSum,   AggFunc::kMin,       AggFunc::kMax,
      AggFunc::kCount, AggFunc::kCountStar, AggFunc::kAvg,
      AggFunc::kCountDistinct,
  };
  AggFunc func = kFuncs[rng.Below(7)];
  Measure m;
  m.func = func;
  if (func == AggFunc::kCountStar) return m;
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    // Numeric-only arguments: the int dim or either measure column.
    static const char* kNumeric[] = {"d2", "m0", "m1"};
    m.column = kNumeric[rng.Below(3)];
  } else {
    // MIN/MAX/COUNT/COUNTD take any column.
    std::vector<std::string> all = ds.all_columns();
    m.column = all[rng.Below(all.size())];
  }
  return m;
}

}  // namespace

ColumnPredicate RandomPredicate(const Dataset& ds, const std::string& column,
                                Rng& rng) {
  const std::vector<Value>& pool = ds.pools.at(column);
  if (rng.Chance(0.55)) {
    // IN-set.
    std::vector<Value> values;
    std::vector<Value> candidates = NonNull(pool);
    size_t want;
    if (candidates.size() > 60 && rng.Chance(0.35)) {
      // Large enumeration: big enough to trip IN-externalization on
      // backends with a low externalize threshold.
      want = 60 + rng.Below(candidates.size() - 60);
    } else {
      want = 1 + rng.Below(std::min<size_t>(5, candidates.size()));
    }
    // Sample without replacement via partial shuffle.
    for (size_t i = 0; i < want && i < candidates.size(); ++i) {
      size_t j = i + rng.Below(candidates.size() - i);
      std::swap(candidates[i], candidates[j]);
      values.push_back(candidates[i]);
    }
    // A NULL literal in the set matches nothing — adversarial but legal.
    if (rng.Chance(0.15)) values.push_back(Value::Null());
    return ColumnPredicate::InSet(column, std::move(values));
  }
  // Range, possibly one-sided, random inclusivity.
  std::vector<Value> candidates = NonNull(pool);
  Value a = candidates[rng.Below(candidates.size())];
  Value b = candidates[rng.Below(candidates.size())];
  if (a.Compare(b) > 0) std::swap(a, b);
  std::optional<Value> lower = a;
  std::optional<Value> upper = b;
  if (rng.Chance(0.25)) lower.reset();
  else if (rng.Chance(0.25)) upper.reset();
  return ColumnPredicate::Range(column, lower, upper, rng.Chance(0.8),
                                rng.Chance(0.8));
}

AbstractQuery GenerateQuery(const Dataset& ds, Rng& rng) {
  AbstractQuery q;
  q.data_source = kFuzzDataSource;
  q.view = ds.table;

  for (const std::string& d : ds.dim_columns) {
    if (rng.Chance(0.4)) q.dimensions.push_back(d);
  }

  size_t n_measures = rng.Below(4);
  if (q.dimensions.empty() && n_measures == 0) n_measures = 1;
  std::set<std::string> seen;
  for (size_t i = 0; i < n_measures; ++i) {
    Measure m = RandomMeasure(ds, rng);
    if (!seen.insert(m.ToKeyString()).second) continue;  // dedup aliases
    q.measures.push_back(std::move(m));
  }
  if (q.dimensions.empty() && q.measures.empty()) {
    q.measures.push_back(Measure{AggFunc::kCountStar, "", ""});
  }

  // 0..2 predicates over distinct columns.
  size_t n_filters = rng.Below(3);
  std::vector<std::string> cols = ds.all_columns();
  std::set<std::string> filtered;
  for (size_t i = 0; i < n_filters; ++i) {
    const std::string& col = cols[rng.Below(cols.size())];
    if (!filtered.insert(col).second) continue;
    q.filters.predicates.push_back(RandomPredicate(ds, col, rng));
  }

  if (rng.Chance(0.35)) {
    std::vector<std::string> names = q.OutputNames();
    size_t n_keys = 1 + rng.Below(std::min<size_t>(2, names.size()));
    std::set<std::string> used;
    for (size_t i = 0; i < n_keys; ++i) {
      const std::string& name = names[rng.Below(names.size())];
      if (!used.insert(name).second) continue;
      q.order_by.push_back(OrderSpec{name, rng.Chance(0.5)});
    }
    if (rng.Chance(0.6)) q.limit = 1 + static_cast<int64_t>(rng.Below(10));
  }

  q.Canonicalize();
  return q;
}

std::optional<std::pair<AbstractQuery, AbstractQuery>> SplitInFilter(
    const AbstractQuery& q, Rng& rng) {
  for (size_t pi = 0; pi < q.filters.predicates.size(); ++pi) {
    const ColumnPredicate& p = q.filters.predicates[pi];
    if (p.kind != ColumnPredicate::Kind::kInSet) continue;
    bool is_dim = false;
    for (const std::string& d : q.dimensions) {
      if (d == p.column) is_dim = true;
    }
    if (!is_dim) continue;
    std::vector<Value> values = p.values;
    if (values.size() < 2) continue;
    // Random nonempty bipartition.
    size_t cut = 1 + rng.Below(values.size() - 1);
    std::vector<Value> first(values.begin(), values.begin() + cut);
    std::vector<Value> second(values.begin() + cut, values.end());
    AbstractQuery a = q, b = q;
    a.filters.predicates[pi] = ColumnPredicate::InSet(p.column, first);
    b.filters.predicates[pi] = ColumnPredicate::InSet(p.column, second);
    a.Canonicalize();
    b.Canonicalize();
    return std::make_pair(std::move(a), std::move(b));
  }
  return std::nullopt;
}

std::optional<AbstractQuery> RollUpQuery(const AbstractQuery& q, Rng& rng) {
  if (q.dimensions.empty() || q.has_limit()) return std::nullopt;
  for (const Measure& m : q.measures) {
    if (m.func == AggFunc::kAvg || m.func == AggFunc::kCountDistinct) {
      return std::nullopt;  // not re-aggregable from the fine result
    }
  }
  AbstractQuery coarse = q;
  coarse.order_by.clear();
  coarse.limit = 0;
  // Drop a random nonempty subset of the dimensions.
  size_t n_drop = 1 + rng.Below(q.dimensions.size());
  if (n_drop == q.dimensions.size() && coarse.measures.empty()) {
    if (q.dimensions.size() == 1) return std::nullopt;
    n_drop = q.dimensions.size() - 1;  // keep a domain query nonempty
  }
  std::vector<std::string> dims = q.dimensions;
  for (size_t i = 0; i < n_drop; ++i) {
    size_t j = i + rng.Below(dims.size() - i);
    std::swap(dims[i], dims[j]);
  }
  coarse.dimensions.assign(dims.begin() + n_drop, dims.end());
  coarse.Canonicalize();
  return coarse;
}

AbstractQuery RollupSpec(const AbstractQuery& fine,
                         const AbstractQuery& coarse) {
  AbstractQuery spec;
  spec.data_source = fine.data_source;
  spec.view = fine.view;
  spec.dimensions = coarse.dimensions;
  for (const Measure& m : coarse.measures) {
    Measure rolled;
    rolled.alias = m.EffectiveAlias();
    switch (m.func) {
      case AggFunc::kSum:
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        // Sums and counts combine by summation over the fine column.
        rolled.func = AggFunc::kSum;
        rolled.column = m.EffectiveAlias();
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        rolled.func = m.func;
        rolled.column = m.EffectiveAlias();
        break;
      default:
        rolled.func = m.func;  // unreachable: RollUpQuery filtered these
        rolled.column = m.EffectiveAlias();
        break;
    }
    spec.measures.push_back(std::move(rolled));
  }
  return spec;
}

}  // namespace vizq::testing
