#include "src/cache/intelligent_cache.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>

namespace vizq::cache {

using query::AbstractQuery;
using query::ColumnPredicate;
using query::Measure;

namespace {

// Index of the stored measure with this func/column, or -1.
int FindStoredMeasure(const AbstractQuery& stored, AggFunc func,
                      const std::string& column) {
  for (size_t i = 0; i < stored.measures.size(); ++i) {
    if (stored.measures[i].func == func && stored.measures[i].column == column) {
      return static_cast<int>(stored.dimensions.size() + i);
    }
  }
  return -1;
}

int FindStoredDimension(const AbstractQuery& stored, const std::string& name) {
  for (size_t i = 0; i < stored.dimensions.size(); ++i) {
    if (stored.dimensions[i] == name) return static_cast<int>(i);
  }
  return -1;
}

// The entry signature's bit for a column name. Two names can share a bit,
// so only a clear bit is proof: a name whose bit is clear is absent.
uint64_t ColumnBit(const std::string& name) {
  return uint64_t{1} << (std::hash<std::string>{}(name) & 63);
}

uint64_t DimensionBits(const AbstractQuery& q) {
  uint64_t bits = 0;
  for (const std::string& dim : q.dimensions) bits |= ColumnBit(dim);
  return bits;
}

uint64_t FilterColumnBits(const AbstractQuery& q) {
  uint64_t bits = 0;
  for (const ColumnPredicate& p : q.filters.predicates) {
    bits |= ColumnBit(p.column);
  }
  return bits;
}

bool SameDimensionSet(const AbstractQuery& a, const AbstractQuery& b) {
  if (a.dimensions.size() != b.dimensions.size()) return false;
  std::set<std::string> sa(a.dimensions.begin(), a.dimensions.end());
  std::set<std::string> sb(b.dimensions.begin(), b.dimensions.end());
  return sa == sb;
}

bool RowPassesPredicate(const Value& v, const ColumnPredicate& p) {
  // SQL comparison semantics: NULL matches nothing — not even a NULL
  // literal in an IN-set (the TDE engine's kIn yields NULL for NULL
  // inputs, which the filter rejects). The null test must precede the
  // set scan or Value::Equals(null, null) would admit the row.
  if (v.is_null()) return false;
  if (p.kind == ColumnPredicate::Kind::kInSet) {
    for (const Value& allowed : p.values) {
      if (v.Equals(allowed)) return true;
    }
    return false;
  }
  if (p.lower.has_value()) {
    int cmp = v.Compare(*p.lower);
    if (cmp < 0 || (cmp == 0 && !p.lower_inclusive)) return false;
  }
  if (p.upper.has_value()) {
    int cmp = v.Compare(*p.upper);
    if (cmp > 0 || (cmp == 0 && !p.upper_inclusive)) return false;
  }
  return true;
}

}  // namespace

const char* MissReasonToString(MissReason r) {
  switch (r) {
    case MissReason::kNone: return "none";
    case MissReason::kNoCandidate: return "no_candidate";
    case MissReason::kStoredTopN: return "stored_topn";
    case MissReason::kDimensionNotStored: return "dimension_not_stored";
    case MissReason::kFiltersNotImplied: return "filters_not_implied";
    case MissReason::kResidualNotGrouped: return "residual_not_grouped";
    case MissReason::kMeasureNotDerivable: return "measure_not_derivable";
    case MissReason::kEntryStale: return "entry_stale";
    case MissReason::kPostProcessFailed: return "post_process_failed";
  }
  return "unknown";
}

namespace {

// `return Fail(reason, out)` from MatchQueries: records why and misses.
std::nullopt_t Fail(MissReason r, MissReason* out) {
  if (out != nullptr) *out = r;
  return std::nullopt;
}

}  // namespace

std::optional<MatchPlan> MatchQueries(const AbstractQuery& stored,
                                      const AbstractQuery& requested,
                                      MissReason* reason) {
  return MatchQueries(stored, stored.ToKeyString(), requested,
                      requested.ToKeyString(), reason);
}

std::optional<MatchPlan> MatchQueries(const AbstractQuery& stored,
                                      const std::string& stored_key,
                                      const AbstractQuery& requested,
                                      const std::string& requested_key,
                                      MissReason* reason) {
  if (stored.data_source != requested.data_source ||
      stored.view != requested.view) {
    return Fail(MissReason::kNoCandidate, reason);
  }

  // Byte-identical request: zero post-processing.
  if (stored_key == requested_key) {
    MatchPlan plan;
    plan.exact = true;
    return plan;
  }

  // A truncated (top-n) stored result cannot answer anything else.
  if (stored.has_limit()) return Fail(MissReason::kStoredTopN, reason);

  // Dimensions of the request must exist in the stored granularity.
  MatchPlan plan;
  for (const std::string& dim : requested.dimensions) {
    int idx = FindStoredDimension(stored, dim);
    if (idx < 0) return Fail(MissReason::kDimensionNotStored, reason);
    plan.dim_columns.push_back(idx);
  }

  // Filters: the request must be at least as restrictive as the stored
  // query, and residual predicates must be post-filterable (grouped cols).
  if (!requested.filters.Implies(stored.filters)) {
    return Fail(MissReason::kFiltersNotImplied, reason);
  }
  plan.residual_filters = requested.filters.ResidualAgainst(stored.filters);
  for (const ColumnPredicate& p : plan.residual_filters) {
    if (FindStoredDimension(stored, p.column) < 0) {
      return Fail(MissReason::kResidualNotGrouped, reason);
    }
  }
  // After the filter steps, where most proofs fail: this builds two sets.
  plan.needs_rollup = !SameDimensionSet(stored, requested);

  // Measures.
  for (const Measure& m : requested.measures) {
    MeasureDerivation d;
    if (!plan.needs_rollup) {
      int direct = FindStoredMeasure(stored, m.func, m.column);
      if (direct >= 0) {
        d.kind = MeasureDerivation::Kind::kDirect;
        d.column_a = direct;
        plan.measures.push_back(d);
        continue;
      }
      if (m.func == AggFunc::kAvg) {
        int sum = FindStoredMeasure(stored, AggFunc::kSum, m.column);
        int cnt = FindStoredMeasure(stored, AggFunc::kCount, m.column);
        if (sum >= 0 && cnt >= 0) {
          d.kind = MeasureDerivation::Kind::kAvgPair;
          d.column_a = sum;
          d.column_b = cnt;
          plan.measures.push_back(d);
          continue;
        }
      }
      return Fail(MissReason::kMeasureNotDerivable, reason);
    }
    // Roll-up derivations.
    switch (m.func) {
      case AggFunc::kSum: {
        int src = FindStoredMeasure(stored, AggFunc::kSum, m.column);
        if (src < 0) return Fail(MissReason::kMeasureNotDerivable, reason);
        d.kind = MeasureDerivation::Kind::kReagg;
        d.func = AggFunc::kSum;
        d.column_a = src;
        break;
      }
      case AggFunc::kCount: {
        int src = FindStoredMeasure(stored, AggFunc::kCount, m.column);
        if (src < 0) return Fail(MissReason::kMeasureNotDerivable, reason);
        d.kind = MeasureDerivation::Kind::kReagg;
        d.func = AggFunc::kSum;  // counts combine by summation
        d.column_a = src;
        break;
      }
      case AggFunc::kCountStar: {
        int src = FindStoredMeasure(stored, AggFunc::kCountStar, "");
        if (src < 0) return Fail(MissReason::kMeasureNotDerivable, reason);
        d.kind = MeasureDerivation::Kind::kReagg;
        d.func = AggFunc::kSum;
        d.column_a = src;
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        int src = FindStoredMeasure(stored, m.func, m.column);
        if (src < 0) return Fail(MissReason::kMeasureNotDerivable, reason);
        d.kind = MeasureDerivation::Kind::kReagg;
        d.func = m.func;
        d.column_a = src;
        break;
      }
      case AggFunc::kAvg: {
        int sum = FindStoredMeasure(stored, AggFunc::kSum, m.column);
        int cnt = FindStoredMeasure(stored, AggFunc::kCount, m.column);
        if (sum < 0 || cnt < 0) {
          return Fail(MissReason::kMeasureNotDerivable, reason);
        }
        d.kind = MeasureDerivation::Kind::kAvgPair;
        d.column_a = sum;
        d.column_b = cnt;
        break;
      }
      case AggFunc::kCountDistinct: {
        int dim = FindStoredDimension(stored, m.column);
        if (dim < 0) return Fail(MissReason::kMeasureNotDerivable, reason);
        d.kind = MeasureDerivation::Kind::kCountDistinctDim;
        d.column_a = dim;
        break;
      }
    }
    plan.measures.push_back(d);
  }

  plan.apply_order_limit =
      !requested.order_by.empty() || requested.has_limit();
  plan.post_cost = plan.needs_rollup || !plan.residual_filters.empty() ||
                           plan.apply_order_limit
                       ? 1
                       : 0;
  return plan;
}

StatusOr<ResultTable> ApplyMatchPlan(const ResultTable& stored,
                                     const MatchPlan& plan,
                                     const AbstractQuery& requested) {
  if (plan.exact) return stored;

  // Output schema.
  std::vector<ResultColumn> out_cols;
  for (size_t i = 0; i < requested.dimensions.size(); ++i) {
    int src = plan.dim_columns[i];
    out_cols.push_back(
        ResultColumn{requested.dimensions[i], stored.columns()[src].type});
  }
  for (size_t i = 0; i < requested.measures.size(); ++i) {
    const Measure& m = requested.measures[i];
    const MeasureDerivation& d = plan.measures[i];
    DataType type;
    switch (d.kind) {
      case MeasureDerivation::Kind::kDirect:
        type = stored.columns()[d.column_a].type;
        break;
      case MeasureDerivation::Kind::kReagg:
        type = AggResultType(d.func, stored.columns()[d.column_a].type);
        break;
      case MeasureDerivation::Kind::kAvgPair:
        type = DataType::Float64();
        break;
      case MeasureDerivation::Kind::kCountDistinctDim:
        type = DataType::Int64();
        break;
    }
    out_cols.push_back(ResultColumn{m.EffectiveAlias(), type});
  }
  ResultTable out(std::move(out_cols));

  // Residual filter column resolution.
  std::vector<std::pair<int, const ColumnPredicate*>> residual;
  for (const ColumnPredicate& p : plan.residual_filters) {
    auto idx = stored.FindColumn(p.column);
    if (!idx.has_value()) {
      return Internal("residual filter column missing from stored result");
    }
    residual.emplace_back(*idx, &p);
  }

  auto row_passes = [&](int64_t r) {
    for (const auto& [col, pred] : residual) {
      if (!RowPassesPredicate(stored.at(r, col), *pred)) return false;
    }
    return true;
  };

  size_t ndims = requested.dimensions.size();

  if (!plan.needs_rollup) {
    // Filter + project, group rows stay intact.
    for (int64_t r = 0; r < stored.num_rows(); ++r) {
      if (!row_passes(r)) continue;
      ResultTable::Row row;
      row.reserve(ndims + plan.measures.size());
      for (size_t i = 0; i < ndims; ++i) {
        row.push_back(stored.at(r, plan.dim_columns[i]));
      }
      for (const MeasureDerivation& d : plan.measures) {
        if (d.kind == MeasureDerivation::Kind::kAvgPair) {
          const Value& sum = stored.at(r, d.column_a);
          const Value& cnt = stored.at(r, d.column_b);
          if (cnt.is_null() || cnt.AsDouble() == 0 || sum.is_null()) {
            row.push_back(Value::Null());
          } else {
            row.push_back(Value(sum.AsDouble() / cnt.AsDouble()));
          }
        } else {
          row.push_back(stored.at(r, d.column_a));
        }
      }
      out.AddRow(std::move(row));
    }
  } else {
    // Roll up: hash-group by the requested dimensions.
    struct Group {
      ResultTable::Row dims;
      std::vector<double> sum_d;
      std::vector<int64_t> sum_i;
      std::vector<Value> extreme;
      std::vector<char> has_value;
      std::vector<std::set<Value>> distinct;
      std::vector<double> pair_sum;
      std::vector<int64_t> pair_cnt;
    };
    std::map<std::string, Group> groups;  // canonical dim key -> group

    for (int64_t r = 0; r < stored.num_rows(); ++r) {
      if (!row_passes(r)) continue;
      std::string key;
      for (size_t i = 0; i < ndims; ++i) {
        const Value& v = stored.at(r, plan.dim_columns[i]);
        // Tag nulls out-of-band: ToString renders NULL as "NULL", which a
        // genuine string value can collide with.
        key += v.is_null() ? '\x00' : '\x01';
        key += v.ToString();
        key += '\x1f';
      }
      auto [it, inserted] = groups.try_emplace(key);
      Group& g = it->second;
      if (inserted) {
        for (size_t i = 0; i < ndims; ++i) {
          g.dims.push_back(stored.at(r, plan.dim_columns[i]));
        }
        size_t nm = plan.measures.size();
        g.sum_d.assign(nm, 0);
        g.sum_i.assign(nm, 0);
        g.extreme.assign(nm, Value());
        g.has_value.assign(nm, 0);
        g.distinct.resize(nm);
        g.pair_sum.assign(nm, 0);
        g.pair_cnt.assign(nm, 0);
      }
      for (size_t mi = 0; mi < plan.measures.size(); ++mi) {
        const MeasureDerivation& d = plan.measures[mi];
        switch (d.kind) {
          case MeasureDerivation::Kind::kDirect:
            return Internal("direct measure under roll-up");
          case MeasureDerivation::Kind::kReagg: {
            const Value& v = stored.at(r, d.column_a);
            if (v.is_null()) break;
            if (d.func == AggFunc::kSum) {
              if (v.is_double()) {
                g.sum_d[mi] += v.double_value();
              } else {
                g.sum_i[mi] += v.int_value();
              }
              g.has_value[mi] = 1;
            } else {
              if (g.has_value[mi] == 0) {
                g.extreme[mi] = v;
                g.has_value[mi] = 1;
              } else {
                int cmp = v.Compare(g.extreme[mi]);
                if ((d.func == AggFunc::kMin && cmp < 0) ||
                    (d.func == AggFunc::kMax && cmp > 0)) {
                  g.extreme[mi] = v;
                }
              }
            }
            break;
          }
          case MeasureDerivation::Kind::kAvgPair: {
            const Value& sum = stored.at(r, d.column_a);
            const Value& cnt = stored.at(r, d.column_b);
            if (!sum.is_null()) g.pair_sum[mi] += sum.AsDouble();
            if (!cnt.is_null()) g.pair_cnt[mi] += cnt.int_value();
            break;
          }
          case MeasureDerivation::Kind::kCountDistinctDim: {
            // COUNTD ignores NULLs (SQL semantics; the engine's
            // aggregator skips them) — counting the null group would
            // over-count by one whenever the dimension has nulls.
            const Value& v = stored.at(r, d.column_a);
            if (!v.is_null()) g.distinct[mi].insert(v);
            break;
          }
        }
      }
    }

    if (ndims == 0 && groups.empty()) {
      // Scalar aggregate over an empty (or fully filtered-out) input still
      // produces exactly one row: counts are 0, everything else is NULL —
      // matching the engine's scalar-aggregation rule.
      ResultTable::Row row;
      for (size_t mi = 0; mi < plan.measures.size(); ++mi) {
        AggFunc f = requested.measures[mi].func;
        bool is_count = f == AggFunc::kCount || f == AggFunc::kCountStar ||
                        f == AggFunc::kCountDistinct;
        row.push_back(is_count ? Value(static_cast<int64_t>(0))
                               : Value::Null());
      }
      out.AddRow(std::move(row));
    }

    for (auto& [key, g] : groups) {
      ResultTable::Row row = g.dims;
      for (size_t mi = 0; mi < plan.measures.size(); ++mi) {
        const MeasureDerivation& d = plan.measures[mi];
        switch (d.kind) {
          case MeasureDerivation::Kind::kDirect:
            break;  // unreachable
          case MeasureDerivation::Kind::kReagg:
            if (d.func == AggFunc::kSum) {
              // COUNT roll-ups and integral sums surface as ints.
              DataType t = out.columns()[ndims + mi].type;
              if (g.has_value[mi] == 0) {
                // COUNT of nothing is 0; SUM of nothing is null. COUNT
                // sources are never null in stored rows, so has_value==0
                // means no source rows at all — which cannot happen for a
                // created group. Null-sum groups keep null.
                row.push_back(Value::Null());
              } else if (t.kind == TypeKind::kFloat64) {
                row.push_back(Value(g.sum_d[mi] +
                                    static_cast<double>(g.sum_i[mi])));
              } else {
                row.push_back(Value(g.sum_i[mi]));
              }
            } else {
              row.push_back(g.has_value[mi] ? g.extreme[mi] : Value::Null());
            }
            break;
          case MeasureDerivation::Kind::kAvgPair:
            if (g.pair_cnt[mi] == 0) {
              row.push_back(Value::Null());
            } else {
              row.push_back(
                  Value(g.pair_sum[mi] / static_cast<double>(g.pair_cnt[mi])));
            }
            break;
          case MeasureDerivation::Kind::kCountDistinctDim:
            row.push_back(Value(static_cast<int64_t>(g.distinct[mi].size())));
            break;
        }
      }
      out.AddRow(std::move(row));
    }
  }

  // Local ordering / top-n.
  if (plan.apply_order_limit) {
    if (!requested.order_by.empty()) {
      std::vector<std::pair<int, bool>> keys;  // column, ascending
      for (const query::OrderSpec& o : requested.order_by) {
        auto idx = out.FindColumn(o.by_alias);
        if (!idx.has_value()) {
          return InvalidArgument("order-by alias '" + o.by_alias +
                                 "' is not an output column");
        }
        keys.emplace_back(*idx, o.ascending);
      }
      // Stable sort honoring per-key direction.
      ResultTable sorted(std::vector<ResultColumn>(out.columns()));
      std::vector<int64_t> order(out.num_rows());
      for (int64_t i = 0; i < out.num_rows(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](int64_t a, int64_t b) {
                         for (const auto& [col, asc] : keys) {
                           int cmp = out.at(a, col).Compare(out.at(b, col));
                           if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
                         }
                         return false;
                       });
      for (int64_t i : order) {
        sorted.AddRow(out.row(i));
      }
      out = std::move(sorted);
    }
    if (requested.has_limit() && out.num_rows() > requested.limit) {
      ResultTable limited(std::vector<ResultColumn>(out.columns()));
      for (int64_t i = 0; i < requested.limit; ++i) {
        limited.AddRow(out.row(i));
      }
      out = std::move(limited);
    }
  }

  return out;
}

query::AbstractQuery AdjustForReuse(const query::AbstractQuery& q,
                                    const AdjustOptions& options) {
  query::AbstractQuery adjusted = q;
  if (options.decompose_avg) {
    std::vector<Measure> measures;
    for (const Measure& m : adjusted.measures) {
      if (m.func == AggFunc::kAvg) {
        bool have_sum = false, have_cnt = false;
        for (const Measure& other : adjusted.measures) {
          if (other.column == m.column) {
            have_sum |= other.func == AggFunc::kSum;
            have_cnt |= other.func == AggFunc::kCount;
          }
        }
        if (!have_sum) {
          measures.push_back(Measure{AggFunc::kSum, m.column, ""});
        }
        if (!have_cnt) {
          measures.push_back(Measure{AggFunc::kCount, m.column, ""});
        }
      } else {
        measures.push_back(m);
      }
    }
    // Keep existing non-avg measures plus the decomposition pieces; the
    // original AVG disappears from the sent query.
    adjusted.measures = std::move(measures);
    // A decomposed query no longer produces the requested ordering column
    // when ordering by the avg alias; drop remote order/limit so the full
    // re-aggregable result comes back.
    bool ordered_by_avg = false;
    for (const query::OrderSpec& o : q.order_by) {
      for (const Measure& m : q.measures) {
        if (m.func == AggFunc::kAvg && m.EffectiveAlias() == o.by_alias) {
          ordered_by_avg = true;
        }
      }
    }
    if (ordered_by_avg) {
      adjusted.order_by.clear();
      adjusted.limit = 0;
    }
  }
  if (options.add_filter_dimensions) {
    bool widened = false;
    for (const query::ColumnPredicate& p : adjusted.filters.predicates) {
      bool present = false;
      for (const std::string& d : adjusted.dimensions) {
        if (d == p.column) present = true;
      }
      if (!present) {
        adjusted.dimensions.push_back(p.column);
        widened = true;
      }
    }
    if (widened) {
      // The widened result serves the original through a roll-up. Every
      // re-aggregable measure survives that, but COUNTD does not — distinct
      // counts cannot be re-aggregated across groups — so its column must
      // also be kept as a dimension for the kCountDistinctDim derivation.
      for (const Measure& m : q.measures) {
        if (m.func != AggFunc::kCountDistinct) continue;
        bool present = false;
        for (const std::string& d : adjusted.dimensions) {
          if (d == m.column) present = true;
        }
        if (!present) adjusted.dimensions.push_back(m.column);
      }
    }
    // Extra dimensions make a top-n meaningless remotely; fetch untruncated.
    adjusted.order_by.clear();
    adjusted.limit = 0;
  } else if (adjusted.has_limit() &&
             !(adjusted.ToKeyString() == q.ToKeyString())) {
    // Any adjustment invalidates a remote top-n (the result would be
    // truncated at the wrong granularity).
    adjusted.order_by.clear();
    adjusted.limit = 0;
  }
  adjusted.Canonicalize();
  return adjusted;
}

IntelligentCache::IntelligentCache(IntelligentCacheOptions options)
    : options_(options) {
  int n = NormalizeShardCount(options_.num_shards);
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::optional<CacheHit> IntelligentCache::LookupHit(
    const AbstractQuery& q, const ExecContext& ctx,
    const LookupOptions& lookup) {
  // Attribute the probe to the request's cache_lookup phase. Nesting
  // under a caller's own kCacheLookup scope is free: the same-phase
  // child goes inert and the parent's running clock keeps charging the
  // same bucket.
  PhaseScope phase(ctx.timeline(), Phase::kCacheLookup);
  int64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string key = q.ToKeyString();
  uint64_t q_dims = DimensionBits(q);
  uint64_t q_filters = FilterColumnBits(q);
  std::string bucket_key = q.data_source + "\x1f" + q.view;
  Shard& shard = ShardFor(bucket_key);

  auto now = std::chrono::steady_clock::now();
  double ttl = options_.fresh_ttl_ms;
  auto age_of = [&](const Entry& e) {
    return std::chrono::duration<double, std::milli>(now - e.stored_at)
        .count();
  };
  // Whether an entry of `age` may serve this lookup; `*is_stale` labels
  // past-TTL answers (only reachable when the lookup opted in).
  auto admissible = [&](double age, bool* is_stale) {
    bool past_ttl = ttl > 0 && age > ttl;
    *is_stale = past_ttl;
    if (!past_ttl) return true;
    return lookup.max_age_ms >= 0 && age <= lookup.max_age_ms;
  };

  // Under the shard lock: metadata only. The exact probe returns a
  // refcounted snapshot; the subsumption scan compares signatures, then
  // descriptors, and snapshots the winning entry so ApplyMatchPlan can
  // run lock-free.
  std::shared_ptr<Entry> best;
  std::shared_ptr<const ResultTable> best_table;
  MatchPlan best_plan;
  double best_age = 0.0;
  bool best_stale = false;
  // Closest-progress rejection across the bucket's candidates; reasons
  // are ordered by proof progress, so max is "the nearest near-miss".
  MissReason miss_reason = MissReason::kNoCandidate;
  {
    TimedLockGuard lock(shard.mu, ctx, "cache.intelligent.lock_wait_us");
    auto kit = shard.by_key.find(key);
    if (kit != shard.by_key.end()) {
      Entry& e = *kit->second;
      double age = age_of(e);
      bool is_stale = false;
      if (admissible(age, &is_stale)) {
        e.usage.last_used_tick = tick;
        ++e.usage.hits;
        ++e.heap_seq;
        if (is_stale) {
          stats_.stale_hits.fetch_add(1, std::memory_order_relaxed);
          ctx.Count("cache.intelligent.stale_hit");
          if (ctx.tracing_enabled()) {
            ctx.Observe("cache.intelligent.stale_age_ms", age);
          }
        } else {
          stats_.exact_hits.fetch_add(1, std::memory_order_relaxed);
          ctx.Count("cache.intelligent.exact_hit");
        }
        CacheHit hit{e.result, /*exact=*/true, age, is_stale};
        lock.Release();  // breadcrumb formatting happens outside the lock
        if (ctx.tracing_enabled()) {
          ctx.LogEvent("cache.intelligent",
                       std::string(is_stale ? "stale-" : "") +
                           "exact-hit view=" + q.view + " rows=" +
                           std::to_string(hit.table->num_rows()) +
                           (is_stale ? " age_ms=" + std::to_string(age)
                                     : std::string()));
        }
        return hit;
      }
      // The exact entry exists but is too old for this lookup; the scan
      // below may still find a fresher derivable candidate.
      miss_reason = MissReason::kEntryStale;
    }
    auto bit = lookup.exact_only ? shard.buckets.end()
                                 : shard.buckets.find(bucket_key);
    if (bit != shard.buckets.end()) {
      for (const std::shared_ptr<Entry>& entry : bit->second) {
        double age = age_of(*entry);
        bool is_stale = false;
        if (!admissible(age, &is_stale)) {
          miss_reason = std::max(miss_reason, MissReason::kEntryStale);
          continue;
        }
        MissReason candidate_reason =
            RejectBySignature(*entry, q, key, q_dims, q_filters);
        if (candidate_reason != MissReason::kNone) {
          miss_reason = std::max(miss_reason, candidate_reason);
          continue;
        }
        auto plan = MatchQueries(entry->descriptor, entry->key, q, key,
                                 &candidate_reason);
        if (!plan.has_value()) {
          miss_reason = std::max(miss_reason, candidate_reason);
          continue;
        }
        // Weight the post-processing estimate by the stored row count.
        plan->post_cost = (plan->post_cost + 1) * entry->result->num_rows();
        // Among admissible candidates a fresh one always beats a stale
        // one; post_cost only breaks ties within the same freshness.
        bool better =
            best == nullptr ||
            (best_stale && !is_stale) ||
            (best_stale == is_stale && plan->post_cost < best_plan.post_cost);
        if (options_.strategy == MatchStrategy::kFirstMatch) {
          if (best == nullptr || (best_stale && !is_stale)) {
            best = entry;
            best_plan = std::move(*plan);
            best_age = age;
            best_stale = is_stale;
          }
          if (!best_stale) break;
          continue;
        }
        if (better) {
          best = entry;
          best_plan = std::move(*plan);
          best_age = age;
          best_stale = is_stale;
        }
      }
    }
    if (best != nullptr) best_table = best->result;
  }

  if (best == nullptr) {
    CountMiss(miss_reason, q, ctx);
    return std::nullopt;
  }

  // Derived hit: the roll-up/filter/top-n recipe runs outside the lock on
  // the immutable snapshot, so concurrent lookups in this shard proceed.
  auto apply_start = std::chrono::steady_clock::now();
  auto result = ApplyMatchPlan(*best_table, best_plan, q);
  if (ctx.tracing_enabled()) {
    ctx.Observe("cache.intelligent.derived_apply_us",
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - apply_start)
                    .count());
  }
  if (!result.ok()) {
    CountMiss(MissReason::kPostProcessFailed, q, ctx);
    return std::nullopt;
  }
  {
    // Re-acquire briefly to credit the source entry; it may have been
    // evicted while we post-processed — then there is nothing to credit.
    TimedLockGuard lock(shard.mu, ctx, "cache.intelligent.lock_wait_us");
    if (!best->evicted) {
      best->usage.last_used_tick = tick;
      ++best->usage.hits;
      ++best->heap_seq;
    }
  }
  if (best_stale) {
    stats_.stale_hits.fetch_add(1, std::memory_order_relaxed);
    ctx.Count("cache.intelligent.stale_hit");
    if (ctx.tracing_enabled()) {
      ctx.Observe("cache.intelligent.stale_age_ms", best_age);
    }
  } else {
    stats_.derived_hits.fetch_add(1, std::memory_order_relaxed);
    ctx.Count("cache.intelligent.derived_hit");
  }
  if (ctx.tracing_enabled()) {
    // Match-plan summary: which post-processing steps ran.
    std::string summary = std::string(best_stale ? "stale-" : "") +
                          "derived-hit view=" + q.view;
    if (best_stale) summary += " age_ms=" + std::to_string(best_age);
    if (best_plan.needs_rollup) summary += " rollup";
    if (!best_plan.residual_filters.empty()) {
      summary += " residual_filters=" +
                 std::to_string(best_plan.residual_filters.size());
    }
    if (best_plan.apply_order_limit) summary += " order_limit";
    summary +=
        " stored_rows=" + std::to_string(best_table->num_rows()) +
        " rows=" + std::to_string(result->num_rows());
    ctx.LogEvent("cache.intelligent", std::move(summary));
  }
  return CacheHit{std::make_shared<const ResultTable>(*std::move(result)),
                  /*exact=*/false, best_age, best_stale};
}

void IntelligentCache::CountMiss(MissReason reason, const AbstractQuery& q,
                                 const ExecContext& ctx) {
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  stats_.miss_reasons[static_cast<int>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  ctx.Count("cache.intelligent.miss");
  if (ctx.tracing_enabled()) {
    const char* why = MissReasonToString(reason);
    ctx.Count(std::string("cache.intelligent.miss.") + why);
    ctx.LogEvent("cache.intelligent",
                 std::string("miss view=") + q.view + " reason=" + why);
  }
}

MissReason IntelligentCache::RejectBySignature(const Entry& entry,
                                               const AbstractQuery& q,
                                               const std::string& key,
                                               uint64_t q_dims,
                                               uint64_t q_filters) {
  // The proof's own order, so a rejection names the step the proof would
  // have failed at. Every entry of a bucket has q's source and view.
  if (entry.has_limit) {
    return entry.key == key ? MissReason::kNone : MissReason::kStoredTopN;
  }
  // A requested dimension whose bit the entry lacks is not stored.
  if ((q_dims & ~entry.dim_bits) != 0) return MissReason::kDimensionNotStored;
  // A stored filter column whose bit the request lacks is unfiltered by
  // the request, so Implies fails, unless the dimension loop (which the
  // bits cannot settle) fails first.
  if ((entry.filter_bits & ~q_filters) != 0) {
    for (const std::string& dim : q.dimensions) {
      if (FindStoredDimension(entry.descriptor, dim) < 0) {
        return MissReason::kDimensionNotStored;
      }
    }
    return MissReason::kFiltersNotImplied;
  }
  return MissReason::kNone;
}

std::optional<ResultTable> IntelligentCache::Lookup(const AbstractQuery& q,
                                                    const ExecContext& ctx) {
  auto hit = LookupHit(q, ctx);
  if (!hit.has_value()) return std::nullopt;
  return *hit->table;  // copy happens outside any shard lock
}

void IntelligentCache::Put(const AbstractQuery& q, ResultTable result,
                           double eval_cost_ms, const ExecContext& ctx) {
  ctx.Count("cache.intelligent.insert_attempts");
  if (eval_cost_ms < options_.min_eval_cost_ms) return;
  int64_t bytes = result.ApproxBytes();
  if (bytes > options_.max_result_bytes) return;
  int64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;

  auto entry = std::make_shared<Entry>();
  entry->descriptor = q;
  entry->result = std::make_shared<const ResultTable>(std::move(result));
  entry->stored_at = std::chrono::steady_clock::now();
  entry->usage.inserted_tick = tick;
  entry->usage.last_used_tick = tick;
  entry->usage.eval_cost_ms = eval_cost_ms;
  entry->usage.bytes = bytes;
  entry->key = q.ToKeyString();
  entry->has_limit = q.has_limit();
  entry->dim_bits = DimensionBits(q);
  entry->filter_bits = FilterColumnBits(q);
  entry->bucket_key = q.data_source + "\x1f" + q.view;

  Shard& shard = ShardFor(entry->bucket_key);
  {
    TimedLockGuard lock(shard.mu, ctx, "cache.intelligent.lock_wait_us");
    if (shard.by_key.find(entry->key) != shard.by_key.end()) {
      return;  // already cached
    }
    shard.buckets[entry->bucket_key].push_back(entry);
    shard.by_key[entry->key] = entry;
    shard.bytes += bytes;
    shard.heap.Push(entry, options_.eviction);
    if (ctx.tracing_enabled()) {
      ctx.Observe("cache.intelligent.shard_occupancy",
                  static_cast<double>(shard.by_key.size()));
    }
  }
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  EvictIfNeeded(ctx);
}

void IntelligentCache::RemoveLocked(Shard& shard,
                                    const std::shared_ptr<Entry>& entry) {
  entry->evicted = true;
  shard.by_key.erase(entry->key);
  auto bit = shard.buckets.find(entry->bucket_key);
  if (bit != shard.buckets.end()) {
    auto& bucket = bit->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), entry),
                 bucket.end());
    if (bucket.empty()) shard.buckets.erase(bit);
  }
  shard.bytes -= entry->usage.bytes;
}

void IntelligentCache::EvictIfNeeded(const ExecContext& ctx) {
  // Round-robin over shards, holding one lock at a time; within a shard
  // the lazy-deletion heap yields the shard-local best victim in O(log n).
  // (Victim selection is best-in-shard, not best-overall — the standard
  // sharded-LRU trade; uniform hashing keeps shards statistically alike.)
  while (total_bytes_.load(std::memory_order_relaxed) > options_.max_bytes) {
    bool evicted_any = false;
    size_t start = evict_cursor_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0;
         i < shards_.size() &&
         total_bytes_.load(std::memory_order_relaxed) > options_.max_bytes;
         ++i) {
      Shard& shard = *shards_[(start + i) % shards_.size()];
      TimedLockGuard lock(shard.mu, ctx, "cache.intelligent.lock_wait_us");
      while (total_bytes_.load(std::memory_order_relaxed) >
             options_.max_bytes) {
        std::shared_ptr<Entry> victim = shard.heap.PopVictim(options_.eviction);
        if (victim == nullptr) break;  // shard drained
        RemoveLocked(shard, victim);
        total_bytes_.fetch_sub(victim->usage.bytes,
                               std::memory_order_relaxed);
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        evicted_any = true;
      }
    }
    if (!evicted_any) break;  // every shard empty; nothing left to drop
  }
}

void IntelligentCache::InvalidateDataSource(const std::string& data_source) {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto bit = shard.buckets.begin(); bit != shard.buckets.end();) {
      const std::string& key = bit->first;
      std::string src = key.substr(0, key.find('\x1f'));
      if (src == data_source) {
        for (const std::shared_ptr<Entry>& entry : bit->second) {
          entry->evicted = true;
          shard.by_key.erase(entry->key);
          shard.bytes -= entry->usage.bytes;
          total_bytes_.fetch_sub(entry->usage.bytes,
                                 std::memory_order_relaxed);
          stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
        }
        bit = shard.buckets.erase(bit);
      } else {
        ++bit;
      }
    }
  }
}

void IntelligentCache::Clear() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.by_key) entry->evicted = true;
    total_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.by_key.clear();
    shard.buckets.clear();
    shard.heap.Clear();
    shard.bytes = 0;
  }
  SetStatsForRestore(CacheStats{});
}

CacheStats IntelligentCache::stats() const {
  CacheStats out;
  out.exact_hits = stats_.exact_hits.load(std::memory_order_relaxed);
  out.derived_hits = stats_.derived_hits.load(std::memory_order_relaxed);
  out.stale_hits = stats_.stale_hits.load(std::memory_order_relaxed);
  out.misses = stats_.misses.load(std::memory_order_relaxed);
  out.evictions = stats_.evictions.load(std::memory_order_relaxed);
  out.inserts = stats_.inserts.load(std::memory_order_relaxed);
  out.invalidations = stats_.invalidations.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumMissReasons; ++i) {
    out.miss_reasons[i] =
        stats_.miss_reasons[i].load(std::memory_order_relaxed);
  }
  return out;
}

void IntelligentCache::SetStatsForRestore(const CacheStats& stats) {
  stats_.exact_hits.store(stats.exact_hits, std::memory_order_relaxed);
  stats_.derived_hits.store(stats.derived_hits, std::memory_order_relaxed);
  stats_.stale_hits.store(stats.stale_hits, std::memory_order_relaxed);
  stats_.misses.store(stats.misses, std::memory_order_relaxed);
  stats_.evictions.store(stats.evictions, std::memory_order_relaxed);
  stats_.inserts.store(stats.inserts, std::memory_order_relaxed);
  stats_.invalidations.store(stats.invalidations, std::memory_order_relaxed);
  for (int i = 0; i < kNumMissReasons; ++i) {
    stats_.miss_reasons[i].store(stats.miss_reasons[i],
                                 std::memory_order_relaxed);
  }
}

int64_t IntelligentCache::num_entries() const {
  int64_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->by_key.size());
  }
  return n;
}

std::vector<int64_t> IntelligentCache::ShardOccupancy() const {
  std::vector<int64_t> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(static_cast<int64_t>(shard->by_key.size()));
  }
  return out;
}

std::vector<IntelligentCache::Snapshot> IntelligentCache::TakeSnapshot()
    const {
  std::vector<Snapshot> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->by_key) {
      out.push_back(Snapshot{entry->descriptor, *entry->result,
                             entry->usage.eval_cost_ms});
    }
  }
  return out;
}

void IntelligentCache::Restore(std::vector<Snapshot> entries) {
  for (Snapshot& s : entries) {
    Put(s.descriptor, std::move(s.result), s.eval_cost_ms);
  }
}

}  // namespace vizq::cache
