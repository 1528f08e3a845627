#include "src/query/abstract_query.h"

#include "src/common/binary_io.h"

namespace vizq::query {

std::string Measure::EffectiveAlias() const {
  if (!alias.empty()) return alias;
  std::string out = AggFuncToString(func);
  out += "(";
  out += column;
  out += ")";
  return out;
}

std::string Measure::ToKeyString() const {
  std::string out = AggFuncToString(func);
  out += "(";
  out += column.empty() ? "*" : column;
  out += ") as ";
  out += EffectiveAlias();
  return out;
}

void AbstractQuery::Canonicalize() { filters.Normalize(); }

std::string AbstractQuery::ToKeyString() const {
  // Dimensions and measures keep their order: the output columns follow
  // it, and an exact-key cache hit returns the stored table as is. A
  // reordered request is matched, and projected, by MatchQueries.
  std::string out = "q{src=" + data_source + ";view=" + view + ";dims=";
  for (size_t i = 0; i < dimensions.size(); ++i) {
    if (i > 0) out += ",";
    out += dimensions[i];
  }
  out += ";aggs=";
  for (size_t i = 0; i < measures.size(); ++i) {
    if (i > 0) out += ",";
    out += measures[i].ToKeyString();
  }
  out += ";where=" + filters.ToKeyString();
  if (!order_by.empty()) {
    out += ";order=";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ",";
      out += order_by[i].by_alias;
      out += order_by[i].ascending ? "+" : "-";
    }
  }
  if (limit > 0) out += ";limit=" + std::to_string(limit);
  out += "}";
  return out;
}

std::vector<std::string> AbstractQuery::OutputNames() const {
  std::vector<std::string> out = dimensions;
  for (const Measure& m : measures) out.push_back(m.EffectiveAlias());
  return out;
}

std::string AbstractQuery::Serialize() const {
  BinaryWriter w;
  w.Str(data_source);
  w.Str(view);
  w.U32(static_cast<uint32_t>(dimensions.size()));
  for (const std::string& d : dimensions) w.Str(d);
  w.U32(static_cast<uint32_t>(measures.size()));
  for (const Measure& m : measures) {
    w.U8(static_cast<uint8_t>(m.func));
    w.Str(m.column);
    w.Str(m.alias);
  }
  w.U32(static_cast<uint32_t>(filters.predicates.size()));
  for (const ColumnPredicate& p : filters.predicates) {
    w.Str(p.column);
    w.U8(static_cast<uint8_t>(p.kind));
    w.U32(static_cast<uint32_t>(p.values.size()));
    for (const Value& v : p.values) w.Val(v);
    w.U8(p.lower.has_value() ? 1 : 0);
    if (p.lower.has_value()) w.Val(*p.lower);
    w.U8(p.lower_inclusive ? 1 : 0);
    w.U8(p.upper.has_value() ? 1 : 0);
    if (p.upper.has_value()) w.Val(*p.upper);
    w.U8(p.upper_inclusive ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(order_by.size()));
  for (const OrderSpec& o : order_by) {
    w.Str(o.by_alias);
    w.U8(o.ascending ? 1 : 0);
  }
  w.I64(limit);
  return w.TakeBytes();
}

StatusOr<AbstractQuery> AbstractQuery::Deserialize(const std::string& bytes) {
  BinaryReader r(bytes);
  AbstractQuery q;
  auto fail = [] { return DataLoss("AbstractQuery: truncated or bad tag"); };
  // Counts are bounded by each element's smallest encoding: a dimension
  // is a string; a measure a tag and two strings; a predicate a string, a
  // tag, a value count and four flags; an order key a string and a flag.
  if (!r.Str(&q.data_source) || !r.Str(&q.view)) return fail();
  uint32_t n;
  if (!r.Count(&n, 4)) return fail();
  q.dimensions.resize(n);
  for (std::string& d : q.dimensions) {
    if (!r.Str(&d)) return fail();
  }
  if (!r.Count(&n, 1 + 4 + 4)) return fail();
  q.measures.resize(n);
  for (Measure& m : q.measures) {
    if (!r.Enum(&m.func, AggFunc::kCountDistinct) || !r.Str(&m.column) ||
        !r.Str(&m.alias)) {
      return fail();
    }
  }
  if (!r.Count(&n, 4 + 1 + 4 + 4)) return fail();
  q.filters.predicates.resize(n);
  for (ColumnPredicate& p : q.filters.predicates) {
    uint8_t flag;
    uint32_t nv;
    if (!r.Str(&p.column) ||
        !r.Enum(&p.kind, ColumnPredicate::Kind::kRange) || !r.Count(&nv, 1)) {
      return fail();
    }
    p.values.resize(nv);
    for (Value& v : p.values) {
      if (!r.Val(&v)) return fail();
    }
    if (!r.U8(&flag)) return fail();
    if (flag != 0) {
      Value val;
      if (!r.Val(&val)) return fail();
      p.lower = std::move(val);
    }
    if (!r.U8(&flag)) return fail();
    p.lower_inclusive = flag != 0;
    if (!r.U8(&flag)) return fail();
    if (flag != 0) {
      Value val;
      if (!r.Val(&val)) return fail();
      p.upper = std::move(val);
    }
    if (!r.U8(&flag)) return fail();
    p.upper_inclusive = flag != 0;
  }
  if (!r.Count(&n, 4 + 1)) return fail();
  q.order_by.resize(n);
  for (OrderSpec& o : q.order_by) {
    uint8_t asc;
    if (!r.Str(&o.by_alias) || !r.U8(&asc)) return fail();
    o.ascending = asc != 0;
  }
  if (!r.I64(&q.limit)) return fail();
  if (!r.AtEnd()) return DataLoss("AbstractQuery: trailing bytes");
  return q;
}

QueryBuilder::QueryBuilder(std::string data_source, std::string view) {
  q_.data_source = std::move(data_source);
  q_.view = std::move(view);
}

QueryBuilder& QueryBuilder::Dim(std::string column) {
  q_.dimensions.push_back(std::move(column));
  return *this;
}

QueryBuilder& QueryBuilder::Agg(AggFunc func, std::string column,
                                std::string alias) {
  q_.measures.push_back(Measure{func, std::move(column), std::move(alias)});
  return *this;
}

QueryBuilder& QueryBuilder::CountAll(std::string alias) {
  q_.measures.push_back(
      Measure{AggFunc::kCountStar, "", std::move(alias)});
  return *this;
}

QueryBuilder& QueryBuilder::FilterIn(std::string column,
                                     std::vector<Value> values) {
  q_.filters.predicates.push_back(
      ColumnPredicate::InSet(std::move(column), std::move(values)));
  return *this;
}

QueryBuilder& QueryBuilder::FilterRange(std::string column,
                                        std::optional<Value> lower,
                                        std::optional<Value> upper) {
  q_.filters.predicates.push_back(ColumnPredicate::Range(
      std::move(column), std::move(lower), std::move(upper)));
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(std::string alias, bool ascending) {
  q_.order_by.push_back(OrderSpec{std::move(alias), ascending});
  return *this;
}

QueryBuilder& QueryBuilder::Limit(int64_t n) {
  q_.limit = n;
  return *this;
}

AbstractQuery QueryBuilder::Build() {
  q_.Canonicalize();
  return q_;
}

}  // namespace vizq::query
