#include "src/testing/dataset_gen.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace vizq::testing {

namespace {

// Profile of one string dimension column.
struct StringDimProfile {
  std::vector<std::string> pool;  // non-null values that may occur
  double null_frac = 0;
  bool sorted_runs = false;  // emit pool values in long sorted runs (RLE)
};

StringDimProfile MakeStringDimProfile(Rng& rng, const std::string& prefix) {
  StringDimProfile p;
  // Cardinality classes: single-value, tiny, medium, high-cardinality.
  static const int kCards[] = {1, 2, 8, 40, 300};
  int card = kCards[rng.Below(5)];
  p.pool.reserve(card);
  for (int i = 0; i < card; ++i) {
    p.pool.push_back(prefix + std::to_string(i));
  }
  // Adversarial members: strings that collide with textual renderings of
  // NULL and of numbers, plus an empty string.
  if (rng.Chance(0.5)) p.pool.push_back("NULL");
  if (rng.Chance(0.3)) p.pool.push_back("");
  if (rng.Chance(0.3)) p.pool.push_back("0");
  static const double kNullFracs[] = {0.0, 0.05, 0.3, 0.9};
  p.null_frac = kNullFracs[rng.Below(4)];
  p.sorted_runs = rng.Chance(0.3);
  return p;
}

}  // namespace

Dataset GenerateDataset(uint64_t seed) {
  using tde::ColumnInfo;
  using tde::TableBuilder;

  Rng rng(HashCombine(seed, 0xda7a5e7));
  Dataset ds;
  ds.dim_columns = {"d0", "d1", "d2", "day"};
  ds.measure_columns = {"m0", "m1"};

  // Row-count classes, empty table included.
  static const int64_t kRowCounts[] = {0, 1, 2, 7, 30, 120, 400};
  ds.rows = kRowCounts[rng.Below(7)];
  // One class spans several scan batches: 2,500 rows with d0 in null-free
  // sorted runs, so a d0 filter becomes a ranged scan whose batches fill
  // from several runs and break inside runs. Drawn from its own stream, so
  // every dataset outside the class is the one its seed always produced.
  Rng batch_class_rng(HashCombine(seed, 0xba7c4e5));
  const bool multi_batch = batch_class_rng.Chance(0.1);
  if (multi_batch) ds.rows = 2500;

  StringDimProfile d0 = MakeStringDimProfile(rng, "a");
  StringDimProfile d1 = MakeStringDimProfile(rng, "b");
  if (multi_batch) {
    d0.sorted_runs = true;
    d0.null_frac = 0;
  }

  // d2: small int domain, possibly negative, possibly nullable.
  int64_t d2_card = 1 + static_cast<int64_t>(rng.Below(6));
  int64_t d2_base = rng.Chance(0.3) ? -3 : 0;
  double d2_null_frac = rng.Chance(0.3) ? 0.2 : 0.0;

  // day: a month of dates.
  int64_t day_base = 16000;
  int64_t day_span = 1 + static_cast<int64_t>(rng.Below(30));

  // m0: int measure. Magnitude class keeps |sum| well inside int64.
  static const int64_t kIntMagnitudes[] = {1, 100, 1000000000000LL};
  int64_t m0_mag = kIntMagnitudes[rng.Below(3)];
  bool m0_signed = rng.Chance(0.5);
  double m0_null_frac = rng.Chance(0.4) ? 0.15 : 0.0;

  // m1: non-negative double measure, mixed magnitudes 1e-6 .. 1e6.
  double m1_null_frac = rng.Chance(0.4) ? 0.15 : 0.0;
  bool m1_tiny = rng.Chance(0.3);

  std::vector<ColumnInfo> schema = {
      {"d0", DataType::String()},  {"d1", DataType::String()},
      {"d2", DataType::Int64()},   {"day", DataType::Date()},
      {"m0", DataType::Int64()},   {"m1", DataType::Float64()},
  };
  TableBuilder builder(ds.table, schema);
  TableBuilder builder_plain(ds.table, schema);
  for (int c = 0; c < static_cast<int>(schema.size()); ++c) {
    builder_plain.SetEncodingChoice(c, tde::EncodingChoice::kForcePlain);
  }

  auto pick_string = [&](const StringDimProfile& p, int64_t row) -> Value {
    if (p.null_frac > 0 && rng.Chance(p.null_frac)) return Value::Null();
    if (p.sorted_runs) {
      // Long runs of equal values, in pool order: RLE-friendly.
      int64_t run = std::max<int64_t>(1, ds.rows / std::max<size_t>(
                                             1, p.pool.size()));
      size_t idx = std::min(p.pool.size() - 1,
                            static_cast<size_t>(row / run));
      return Value(p.pool[idx]);
    }
    return Value(p.pool[rng.Below(p.pool.size())]);
  };

  for (int64_t r = 0; r < ds.rows; ++r) {
    std::vector<Value> row;
    row.push_back(pick_string(d0, r));
    row.push_back(pick_string(d1, r));
    if (d2_null_frac > 0 && rng.Chance(d2_null_frac)) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(d2_base + static_cast<int64_t>(rng.Below(
                                        static_cast<uint64_t>(d2_card)))));
    }
    row.push_back(Value(day_base + rng.Range(0, day_span - 1)));
    if (m0_null_frac > 0 && rng.Chance(m0_null_frac)) {
      row.push_back(Value::Null());
    } else {
      int64_t v = rng.Range(0, m0_mag);
      if (m0_signed && rng.Chance(0.5)) v = -v;
      row.push_back(Value(v));
    }
    if (m1_null_frac > 0 && rng.Chance(m1_null_frac)) {
      row.push_back(Value::Null());
    } else {
      double v = m1_tiny ? rng.NextDouble() * 1e-6
                         : rng.NextDouble() * 1e6;
      row.push_back(Value(v));
    }
    (void)builder.AddRow(row);
    (void)builder_plain.AddRow(row);
  }

  auto table = builder.Finish();
  ds.db = std::make_shared<tde::Database>("fuzzdb");
  (void)ds.db->AddTable(*table);
  auto table_plain = builder_plain.Finish();
  ds.db_plain = std::make_shared<tde::Database>("fuzzdb_plain");
  (void)ds.db_plain->AddTable(*table_plain);

  // Literal pools for filter generation: occurring values, a NULL literal,
  // and out-of-domain probes.
  auto string_pool = [&](const StringDimProfile& p) {
    std::vector<Value> pool;
    for (const std::string& s : p.pool) pool.emplace_back(s);
    pool.push_back(Value::Null());
    pool.emplace_back("zz-absent");
    return pool;
  };
  ds.pools["d0"] = string_pool(d0);
  ds.pools["d1"] = string_pool(d1);
  {
    std::vector<Value> pool;
    for (int64_t v = d2_base - 1; v <= d2_base + d2_card; ++v) {
      pool.emplace_back(v);
    }
    pool.push_back(Value::Null());
    ds.pools["d2"] = pool;
  }
  {
    std::vector<Value> pool;
    for (int64_t v = day_base; v < day_base + day_span; v += 3) {
      pool.emplace_back(v);
    }
    pool.emplace_back(day_base - 100);
    ds.pools["day"] = pool;
  }
  {
    std::vector<Value> pool = {Value(static_cast<int64_t>(0)),
                               Value(m0_mag / 2), Value(m0_mag),
                               Value(-m0_mag / 3)};
    ds.pools["m0"] = pool;
  }
  {
    std::vector<Value> pool = {Value(0.0), Value(1e-7), Value(0.5),
                               Value(2.5e5), Value(1e6)};
    ds.pools["m1"] = pool;
  }

  // --- join dimension table (join_fuzz.h lanes). Generated after every
  // fact-table rng draw so existing datasets are byte-identical for a
  // given seed. Keys come from d0's pool so fact rows usually match;
  // skipped keys leave fact rows unmatched, duplicated keys multiply
  // matches, and NULL/absent keys probe the never-match contract. ---
  {
    std::vector<ColumnInfo> dim_schema = {{"k", DataType::String()},
                                          {"p", DataType::Int64()}};
    TableBuilder dim_builder(ds.dim_table, dim_schema);
    TableBuilder dim_builder_plain(ds.dim_table, dim_schema);
    for (int c = 0; c < static_cast<int>(dim_schema.size()); ++c) {
      dim_builder_plain.SetEncodingChoice(c, tde::EncodingChoice::kForcePlain);
    }
    auto add_dim_row = [&](const Value& k) {
      std::vector<Value> row = {k, Value(rng.Range(-50, 50))};
      (void)dim_builder.AddRow(row);
      (void)dim_builder_plain.AddRow(row);
      ++ds.dim_rows;
    };
    if (!rng.Chance(0.1)) {  // 10%: empty dimension table
      size_t keys = std::min<size_t>(d0.pool.size(), 60);
      for (size_t i = 0; i < keys; ++i) {
        if (rng.Chance(0.2)) continue;  // fact rows with no dim match
        add_dim_row(Value(d0.pool[i]));
        if (rng.Chance(0.2)) add_dim_row(Value(d0.pool[i]));  // duplicate
      }
      for (int i = 0; i < 2; ++i) {  // keys the fact side never has
        if (rng.Chance(0.5)) {
          add_dim_row(Value("dimonly" + std::to_string(i)));
        }
      }
      if (rng.Chance(0.4)) add_dim_row(Value::Null());  // never matches
    }
    (void)ds.db->AddTable(*dim_builder.Finish());
    (void)ds.db_plain->AddTable(*dim_builder_plain.Finish());
  }
  return ds;
}

}  // namespace vizq::testing
