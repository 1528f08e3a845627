// DatasetGen: seed-reproducible randomized columnar fixtures with
// adversarial shapes — NULL-heavy columns, empty tables, single-value
// (fully run-length-encodable) columns, duplicate keys, extreme numeric
// magnitudes, high-cardinality strings, strings chosen to collide with
// textual renderings of other values (e.g. the literal "NULL"), and, in
// about 10% of datasets, 2,500 rows with d0 in sorted runs, so scans span
// several batches.
//
// Every dataset is a single fact table with a fixed column roster so
// QueryGen can be schema-oblivious:
//   d0, d1 : string dimensions (varying cardinality / null fraction)
//   d2     : int64 dimension (small domain)
//   day    : date dimension
//   m0     : int64 measure (|v| <= 1e12 — int64 SUM stays exact and far
//            from overflow at fuzzing row counts)
//   m1     : float64 measure (non-negative, magnitudes 1e-6 .. 1e6, so
//            multiset sums agree across summation orders within 1e-9
//            relative tolerance and an injected off-by-one is never masked)

#ifndef VIZQUERY_TESTING_DATASET_GEN_H_
#define VIZQUERY_TESTING_DATASET_GEN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/tde/storage/database.h"

namespace vizq::testing {

// Data-source name every fuzzing lane registers under, so one generated
// AbstractQuery is valid against all of them.
inline constexpr char kFuzzDataSource[] = "fuzzsrc";

struct Dataset {
  std::shared_ptr<tde::Database> db;
  // Same rows with every column forced to kPlain encoding: the
  // plain_encoding lane diffs results over this twin against the (kAuto,
  // possibly dictionary/RLE/delta-encoded) `db`, so every fuzz iteration
  // checks the encoded execution path against the decoded one.
  std::shared_ptr<tde::Database> db_plain;
  std::string table = "fuzz";
  int64_t rows = 0;

  // Join-lane dimension table (join_fuzz.h), present in both `db` and
  // `db_plain`:
  //   k : string join key drawn from d0's value pool, plus keys absent
  //       from the fact table, duplicate keys (one fact row matching
  //       several dimension rows) and NULL keys (which never match)
  //   p : int64 payload measure
  // May be empty (inner joins produce nothing; left-outer joins emit
  // all-NULL right columns).
  std::string dim_table = "fuzzdim";
  int64_t dim_rows = 0;

  std::vector<std::string> dim_columns;      // d0, d1, d2, day
  std::vector<std::string> measure_columns;  // m0, m1

  // Per-column literal pool for filter generation: the values that occur
  // in the column plus a few that deliberately do not.
  std::map<std::string, std::vector<Value>> pools;

  std::vector<std::string> all_columns() const {
    std::vector<std::string> out = dim_columns;
    out.insert(out.end(), measure_columns.begin(), measure_columns.end());
    return out;
  }
};

// Deterministic: the same seed always produces the same dataset.
Dataset GenerateDataset(uint64_t seed);

}  // namespace vizq::testing

#endif  // VIZQUERY_TESTING_DATASET_GEN_H_
