// The internal query model (§3.1): queries "express aggregate-select-
// project scenarios" against a view of a single data source. Zones in a
// dashboard, quick-filter domain requests and filter actions all reduce to
// this shape; the query compiler turns it into TQL (for the TDE) or SQL
// text (for remote dialects), and the intelligent cache matches requests
// against stored results at this level.

#ifndef VIZQUERY_QUERY_ABSTRACT_QUERY_H_
#define VIZQUERY_QUERY_ABSTRACT_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/query/predicate.h"

namespace vizq::query {

// One aggregate output.
struct Measure {
  AggFunc func = AggFunc::kCountStar;
  std::string column;  // empty for COUNT(*)
  std::string alias;   // output name; defaults to func(column)

  std::string EffectiveAlias() const;
  std::string ToKeyString() const;
  bool operator==(const Measure& other) const {
    return func == other.func && column == other.column &&
           EffectiveAlias() == other.EffectiveAlias();
  }
};

// Result ordering / top-n.
struct OrderSpec {
  std::string by_alias;  // a dimension name or measure alias
  bool ascending = false;
};

struct AbstractQuery {
  // Identity of the data view the query runs against: data source name +
  // view (logical table) name. Cache matches require both to agree.
  std::string data_source;
  std::string view;

  // Group-by columns. A dimensions-only query (no measures) is a domain
  // query — e.g. the values of a quick filter.
  std::vector<std::string> dimensions;
  std::vector<Measure> measures;
  PredicateSet filters;

  // Optional top-n (order + limit). limit == 0 means "no limit".
  std::vector<OrderSpec> order_by;
  int64_t limit = 0;

  bool has_limit() const { return limit > 0; }

  // Canonicalizes filters and dimension order-insensitive parts. Call
  // after construction; cache keys assume canonical form.
  void Canonicalize();

  // Canonical text: serves as the intelligent-cache descriptor and as a
  // human-readable rendering of the internal query. Equal keys mean the
  // same output columns in the same order.
  std::string ToKeyString() const;

  // Output column names in order: dimensions then measure aliases.
  std::vector<std::string> OutputNames() const;

  bool operator==(const AbstractQuery& other) const {
    return ToKeyString() == other.ToKeyString();
  }

  // Binary round-trip, used by the persisted cache and distributed tier.
  std::string Serialize() const;
  static StatusOr<AbstractQuery> Deserialize(const std::string& bytes);
};

// --- fluent builder, used heavily by dashboards and tests ---
class QueryBuilder {
 public:
  QueryBuilder(std::string data_source, std::string view);

  QueryBuilder& Dim(std::string column);
  QueryBuilder& Agg(AggFunc func, std::string column, std::string alias = "");
  QueryBuilder& CountAll(std::string alias = "");
  QueryBuilder& FilterIn(std::string column, std::vector<Value> values);
  QueryBuilder& FilterRange(std::string column, std::optional<Value> lower,
                            std::optional<Value> upper);
  QueryBuilder& OrderBy(std::string alias, bool ascending = false);
  QueryBuilder& Limit(int64_t n);

  AbstractQuery Build();

 private:
  AbstractQuery q_;
};

}  // namespace vizq::query

#endif  // VIZQUERY_QUERY_ABSTRACT_QUERY_H_
