// Storage-layer tests: column encodings (plain/dictionary/RLE/delta),
// collation, stats, tables with sort metadata, the database namespace and
// the single-file pack/unpack format.

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "src/common/rng.h"
#include "src/tde/engine.h"
#include "src/tde/storage/column.h"
#include "src/tde/storage/database.h"
#include "src/tde/storage/file_format.h"
#include "src/tde/storage/table.h"

namespace vizq::tde {
namespace {

std::shared_ptr<Column> BuildIntColumn(const std::vector<int64_t>& values,
                                       EncodingChoice choice) {
  ColumnBuilder builder(DataType::Int64());
  for (int64_t v : values) builder.AppendInt(v);
  auto col = builder.Finish(choice);
  EXPECT_TRUE(col.ok()) << col.status();
  return *col;
}

TEST(ColumnEncodingTest, PlainRoundTrip) {
  std::vector<int64_t> values = {5, -3, 12, 0, 99};
  auto col = BuildIntColumn(values, EncodingChoice::kForcePlain);
  ASSERT_EQ(col->encoding(), Encoding::kPlain);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(col->GetValue(i).int_value(), values[i]);
  }
}

TEST(ColumnEncodingTest, RleRoundTripAndRuns) {
  std::vector<int64_t> values;
  for (int run = 0; run < 10; ++run) {
    for (int i = 0; i < 100; ++i) values.push_back(run);
  }
  auto col = BuildIntColumn(values, EncodingChoice::kAuto);
  EXPECT_EQ(col->encoding(), Encoding::kRle);
  EXPECT_EQ(col->rle_runs().size(), 10u);
  EXPECT_EQ(col->rle_runs()[3].value, 3);
  EXPECT_EQ(col->rle_runs()[3].start, 300);
  EXPECT_EQ(col->rle_runs()[3].count, 100);
  // Bulk decode across run boundaries.
  std::vector<int64_t> out;
  col->DecodeInts(250, 200, &out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[49], 2);
  EXPECT_EQ(out[50], 3);
  EXPECT_EQ(out[149], 3);
  EXPECT_EQ(out[150], 4);
}

TEST(ColumnEncodingTest, DeltaRoundTrip) {
  std::vector<int64_t> values;
  int64_t v = 1000;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    values.push_back(v);
    v += rng.Range(0, 10);
  }
  auto col = BuildIntColumn(values, EncodingChoice::kForceDelta);
  ASSERT_EQ(col->encoding(), Encoding::kDelta);
  std::vector<int64_t> out;
  col->DecodeInts(0, 500, &out);
  EXPECT_EQ(out, values);
  // Random-access too.
  EXPECT_EQ(col->GetValue(250).int_value(), values[250]);
}

TEST(ColumnEncodingTest, DeltaRequiresSortedInput) {
  ColumnBuilder builder(DataType::Int64());
  builder.AppendInt(5);
  builder.AppendInt(3);
  EXPECT_FALSE(builder.Finish(EncodingChoice::kForceDelta).ok());
}

TEST(ColumnEncodingTest, DictionaryStrings) {
  ColumnBuilder builder(DataType::String());
  for (int i = 0; i < 100; ++i) {
    builder.AppendString(i % 2 == 0 ? "even" : "odd");
  }
  auto col = *builder.Finish();
  EXPECT_TRUE(col->is_dictionary_string());
  ASSERT_NE(col->dictionary(), nullptr);
  EXPECT_EQ(col->dictionary()->size(), 2);
  EXPECT_EQ(col->GetValue(0).string_value(), "even");
  EXPECT_EQ(col->GetValue(1).string_value(), "odd");
}

TEST(ColumnEncodingTest, HighCardinalityStringsStayPlain) {
  ColumnBuilder builder(DataType::String());
  for (int i = 0; i < 100; ++i) {
    builder.AppendString("unique_" + std::to_string(i));
  }
  auto col = *builder.Finish();
  EXPECT_EQ(col->encoding(), Encoding::kPlain);
  EXPECT_FALSE(col->is_dictionary_string());
  EXPECT_EQ(col->GetValue(42).string_value(), "unique_42");
}

TEST(ColumnEncodingTest, CaseInsensitiveDictionarySharesTokens) {
  ColumnBuilder builder(DataType::String(Collation::kCaseInsensitive));
  for (int i = 0; i < 64; ++i) {
    builder.AppendString(i % 2 == 0 ? "ABC" : "abc");
  }
  auto col = *builder.Finish(EncodingChoice::kForceDictionary);
  ASSERT_TRUE(col->is_dictionary_string());
  // Under nocase collation "ABC" and "abc" intern to the same token.
  EXPECT_EQ(col->dictionary()->size(), 1);
}

TEST(ColumnEncodingTest, NullsSurviveEveryEncoding) {
  for (EncodingChoice choice :
       {EncodingChoice::kForcePlain, EncodingChoice::kForceRle}) {
    ColumnBuilder builder(DataType::Int64());
    builder.AppendInt(7);
    builder.AppendNull();
    builder.AppendInt(7);
    builder.AppendNull();
    auto col = *builder.Finish(choice);
    EXPECT_FALSE(col->IsNull(0));
    EXPECT_TRUE(col->IsNull(1));
    EXPECT_TRUE(col->GetValue(1).is_null());
    EXPECT_EQ(col->GetValue(2).int_value(), 7);
    EXPECT_EQ(col->stats().null_count, 2);
  }
}

TEST(ColumnEncodingTest, StatsMinMaxDistinct) {
  auto col = BuildIntColumn({4, 9, 1, 9, 4, 1, 7}, EncodingChoice::kForcePlain);
  EXPECT_TRUE(col->stats().has_min_max);
  EXPECT_EQ(col->stats().min.int_value(), 1);
  EXPECT_EQ(col->stats().max.int_value(), 9);
  EXPECT_EQ(col->stats().distinct_estimate, 4);
}

// Stats cover non-null rows only: the 0 or "" a null row stores is not a
// value, and a nullable key's dense domain is its values' span.
TEST(ColumnEncodingTest, StatsSkipNullRows) {
  for (EncodingChoice choice :
       {EncodingChoice::kForcePlain, EncodingChoice::kForceRle}) {
    ColumnBuilder ints(DataType::Int64());
    ints.AppendNull();
    for (int64_t v = 100; v <= 105; ++v) ints.AppendInt(v);
    ints.AppendNull();
    auto col = *ints.Finish(choice);
    ASSERT_TRUE(col->stats().has_min_max);
    EXPECT_EQ(col->stats().min.int_value(), 100);
    EXPECT_EQ(col->stats().max.int_value(), 105);
    EXPECT_EQ(col->stats().distinct_estimate, 6);
    EXPECT_EQ(col->stats().null_count, 2);
  }
  ColumnBuilder doubles(DataType::Float64());
  doubles.AppendDouble(2.5);
  doubles.AppendNull();
  doubles.AppendDouble(4.0);
  auto dcol = *doubles.Finish(EncodingChoice::kForcePlain);
  ASSERT_TRUE(dcol->stats().has_min_max);
  EXPECT_EQ(dcol->stats().min.double_value(), 2.5);
  EXPECT_EQ(dcol->stats().max.double_value(), 4.0);
  ColumnBuilder strings(DataType::String());
  strings.AppendString("m");
  strings.AppendNull();
  strings.AppendString("z");
  auto scol = *strings.Finish(EncodingChoice::kForcePlain);
  ASSERT_TRUE(scol->stats().has_min_max);
  EXPECT_EQ(scol->stats().min.string_value(), "m");
  EXPECT_EQ(scol->stats().max.string_value(), "z");
  ColumnBuilder all_null(DataType::Int64());
  all_null.AppendNull();
  all_null.AppendNull();
  auto ncol = *all_null.Finish(EncodingChoice::kForcePlain);
  EXPECT_FALSE(ncol->stats().has_min_max);
  EXPECT_EQ(ncol->stats().distinct_estimate, 0);
}

// Property sweep: every encoding choice round-trips random data exactly.
class EncodingRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodingRoundTripTest, RandomDataRoundTrips) {
  Rng rng(GetParam());
  int64_t n = 1 + rng.Below(2000);
  int64_t cardinality = 1 + rng.Below(20);
  bool sorted = rng.Chance(0.5);
  std::vector<int64_t> values;
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(rng.Range(0, cardinality));
  }
  if (sorted) std::sort(values.begin(), values.end());

  for (EncodingChoice choice : {EncodingChoice::kAuto,
                                EncodingChoice::kForcePlain,
                                EncodingChoice::kForceRle}) {
    auto col = BuildIntColumn(values, choice);
    ASSERT_EQ(col->size(), n);
    // Random access and bulk decode agree with the source.
    std::vector<int64_t> out;
    col->DecodeInts(0, n, &out);
    ASSERT_EQ(out, values) << "choice=" << static_cast<int>(choice);
    for (int probe = 0; probe < 16; ++probe) {
      int64_t idx = rng.Below(n);
      EXPECT_EQ(col->GetValue(idx).int_value(), values[idx]);
    }
    // Partial decodes at random offsets.
    int64_t start = rng.Below(n);
    int64_t count = 1 + rng.Below(n - start);
    out.clear();
    col->DecodeInts(start, count, &out);
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], values[start + i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRoundTripTest,
                         ::testing::Range(1, 25));

TEST(TableTest, SortValidationRejectsLies) {
  TableBuilder builder("t", {{"a", DataType::Int64()}});
  (void)builder.AddRow({Value(int64_t{2})});
  (void)builder.AddRow({Value(int64_t{1})});
  builder.DeclareSorted({0});
  EXPECT_FALSE(builder.Finish().ok());
}

TEST(TableTest, SubsetMatchesSortPrefix) {
  TableBuilder builder("t", {{"a", DataType::Int64()},
                             {"b", DataType::Int64()},
                             {"c", DataType::Int64()}});
  for (int i = 0; i < 8; ++i) {
    (void)builder.AddRow({Value(int64_t{i / 4}), Value(int64_t{i / 2}),
                          Value(int64_t{i})});
  }
  builder.DeclareSorted({0, 1});
  auto table = *builder.Finish();
  int len = 0;
  EXPECT_TRUE(table->SubsetMatchesSortPrefix({0}, &len));
  EXPECT_EQ(len, 1);
  EXPECT_TRUE(table->SubsetMatchesSortPrefix({1, 0}, &len));
  EXPECT_EQ(len, 2);  // permutation of a subset matches the full prefix
  EXPECT_FALSE(table->SubsetMatchesSortPrefix({1}, &len));  // not a prefix
  EXPECT_FALSE(table->SubsetMatchesSortPrefix({2}, &len));
}

TEST(DatabaseTest, NamespaceRules) {
  Database db("d");
  EXPECT_FALSE(db.CreateSchema("SYS").ok());
  EXPECT_TRUE(db.CreateSchema("other").ok());
  EXPECT_FALSE(db.CreateSchema("other").ok());

  TableBuilder builder("t", {{"a", DataType::Int64()}});
  (void)builder.AddRow({Value(int64_t{1})});
  auto table = *builder.Finish();
  EXPECT_TRUE(db.AddTable(table).ok());
  EXPECT_FALSE(db.AddTable(table).ok());  // duplicate
  EXPECT_TRUE(db.AddTable("other", table).ok());
  EXPECT_FALSE(db.AddTable("SYS", table).ok());

  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_TRUE(db.GetTable("other.t").ok());
  EXPECT_FALSE(db.GetTable("nope.t").ok());
  EXPECT_FALSE(db.GetTable("other.nope").ok());

  EXPECT_TRUE(db.DropTable("other", "t").ok());
  EXPECT_FALSE(db.DropTable("other", "t").ok());
}

TEST(FileFormatTest, FullDatabaseRoundTrip) {
  Database db("roundtrip");
  {
    TableBuilder builder("mixed", {{"s", DataType::String()},
                                   {"i", DataType::Int64()},
                                   {"f", DataType::Float64()},
                                   {"b", DataType::Bool()},
                                   {"d", DataType::Date()}});
    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
      if (rng.Chance(0.1)) {
        (void)builder.AddRow({Value::Null(), Value::Null(), Value::Null(),
                              Value::Null(), Value::Null()});
      } else {
        (void)builder.AddRow(
            {Value(std::string(1, static_cast<char>('a' + rng.Below(5)))),
             Value(static_cast<int64_t>(i / 10)), Value(rng.NextDouble()),
             Value(rng.Chance(0.5)), Value(static_cast<int64_t>(16000 + i))});
      }
    }
    (void)db.AddTable(*builder.Finish());
  }

  std::string bytes = DatabaseSerializer::Pack(db);
  auto restored = DatabaseSerializer::Unpack(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto table = (*restored)->GetTable("mixed");
  ASSERT_TRUE(table.ok());
  auto original = db.GetTable("mixed");
  ASSERT_EQ((*table)->num_rows(), (*original)->num_rows());
  for (int64_t r = 0; r < (*table)->num_rows(); ++r) {
    for (int c = 0; c < (*table)->num_columns(); ++c) {
      EXPECT_TRUE((*table)->column(c)->GetValue(r).Equals(
          (*original)->column(c)->GetValue(r)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(FileFormatTest, CorruptImagesFailCleanly) {
  Database db("x");
  TableBuilder builder("t", {{"a", DataType::Int64()}});
  (void)builder.AddRow({Value(int64_t{1})});
  (void)db.AddTable(*builder.Finish());
  std::string bytes = DatabaseSerializer::Pack(db);

  EXPECT_FALSE(DatabaseSerializer::Unpack("garbage").ok());
  EXPECT_FALSE(
      DatabaseSerializer::Unpack(bytes.substr(0, bytes.size() / 2)).ok());
  std::string trailing = bytes + "x";
  EXPECT_FALSE(DatabaseSerializer::Unpack(trailing).ok());
  // Column "a"'s header follows its length-prefixed name: kind, collation
  // and encoding tags. An out-of-range encoding tag is corrupt.
  size_t name_at = bytes.find(std::string("\x01\0\0\0a", 5));
  ASSERT_NE(name_at, std::string::npos);
  std::string bad_encoding = bytes;
  bad_encoding[name_at + 5 + 2] = static_cast<char>(0x77);
  EXPECT_EQ(DatabaseSerializer::Unpack(bad_encoding).status().code(),
            StatusCode::kDataLoss);
}

// Writes `v` little-endian at `at`.
void PutI64(std::string* bytes, size_t at, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>(static_cast<uint64_t>(v) >> (8 * i));
  }
}

// Unpack checks every column against its encoding and the table's row
// count. Each case corrupts one field of a valid image and must fail with
// kDataLoss: without the checks, the rewritten row counts and the flipped
// token unpack, and the scan reads past the column's payload or past the
// dictionary.
TEST(FileFormatTest, CorruptColumnsFailUnpack) {
  Database db("db");
  TableBuilder builder("t", {{"h", DataType::Int64()},
                             {"k", DataType::String()},
                             {"r", DataType::Int64()},
                             {"d", DataType::Int64()},
                             {"n", DataType::Int64()},
                             {"g", DataType::String()}});
  builder.SetEncodingChoice(0, EncodingChoice::kForcePlain);
  builder.SetEncodingChoice(1, EncodingChoice::kForceDictionary);
  builder.SetEncodingChoice(2, EncodingChoice::kForceRle);
  builder.SetEncodingChoice(3, EncodingChoice::kForceDelta);
  builder.SetEncodingChoice(4, EncodingChoice::kForcePlain);
  const char* letters[] = {"a", "b", "c"};
  for (int64_t i = 0; i < 240; ++i) {
    ASSERT_TRUE(builder
                    .AddRow({Value(i % 24), Value(letters[i % 3]),
                             Value(i / 60), Value(i),
                             i % 5 == 0 ? Value::Null() : Value(i),
                             Value(i < 120 ? "lo" : "hi")})
                    .ok());
  }
  builder.DeclareSorted({3});
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_TRUE(db.AddTable(*table).ok());
  const std::string image = DatabaseSerializer::Pack(db);
  auto valid = DatabaseSerializer::Unpack(image);
  ASSERT_TRUE(valid.ok()) << valid.status();
  ASSERT_EQ((*(*valid)->GetTable("t"))->column(5)->encoding(), Encoding::kRle);
  // The offset just past a one-letter, length-prefixed name. A table's row
  // count follows its name. A column's fields follow its name: three tags
  // (encoding at +2), the size at +3, has_min_max, min and max (9 bytes
  // each for int stats, 1 when null), the distinct estimate and the null
  // count, then the null mask and the payloads, each after a u64 count.
  auto after = [&image](char name) {
    size_t at = image.find(std::string("\x01\0\0\0", 4) + name);
    EXPECT_NE(at, std::string::npos) << name;
    return at + 5;
  };
  const size_t t = after('t'), h = after('h'), k = after('k'), r = after('r'),
               d = after('d'), n = after('n'), g = after('g');
  const size_t h_ints = h + 62;    // after int stats and two counts
  const size_t k_tokens = k + 46;  // after null stats and two counts
  const size_t g_runs = g + 70;    // after null stats and five counts
  const size_t r_runs = r + 86;    // after int stats and five counts
  const size_t d_base = d + 86;    // after int stats and five counts
  const size_t n_mask = n + 54;    // after int stats and the mask count
  // The dictionary flag ends a column: after h's 240 ints and four counts
  // and the delta base, after d's delta count and 239 deltas.
  const size_t h_dict = h_ints + 240 * 8 + 5 * 8;
  const size_t d_dict = d_base + 16 + 239 * 4;
  auto add_empty_dictionary = [](std::string* b, size_t flag_at) {
    (*b)[flag_at] = 1;
    b->insert(flag_at + 1, std::string(1 + 8, '\0'));  // collation, count
  };
  struct Case {
    const char* what;
    std::function<void(std::string*)> corrupt;
  };
  const Case cases[] = {
      {"table and column row counts past the payload",
       [&](std::string* b) {
         PutI64(b, t, 100000);
         for (size_t c : {h, k, r, d, n, g}) PutI64(b, c + 3, 100000);
       }},
      {"table row count alone", [&](std::string* b) { PutI64(b, t, 241); }},
      {"int payload one value short",
       [&](std::string* b) {
         PutI64(b, h_ints - 8, 239);
         b->erase(h_ints, 8);
       }},
      {"dictionary token past the dictionary",
       [&](std::string* b) { (*b)[k_tokens] ^= 0x40; }},
      {"RLE run value past the dictionary",
       [&](std::string* b) { PutI64(b, g_runs, 2); }},
      {"RLE runs overlap",
       [&](std::string* b) {
         PutI64(b, r_runs + 16, 61);
         PutI64(b, r_runs + 24 + 16, 59);
       }},
      {"RLE runs stop short",
       [&](std::string* b) { PutI64(b, r_runs + 3 * 24 + 16, 59); }},
      {"delta sum overflows",
       [&](std::string* b) {
         PutI64(b, d_base, std::numeric_limits<int64_t>::max() - 100);
       }},
      {"null mask one byte short",
       [&](std::string* b) {
         PutI64(b, n_mask - 8, 239);
         b->erase(n_mask, 1);
       }},
      {"string column with delta encoding",
       [&](std::string* b) {
         (*b)[d] = static_cast<char>(TypeKind::kString);
         add_empty_dictionary(b, d_dict);
       }},
      {"dictionary on an int column",
       [&](std::string* b) { add_empty_dictionary(b, h_dict); }},
      {"sort column past the columns",
       [&](std::string* b) { (*b)[b->size() - 4] = 6; }},
  };
  for (const Case& c : cases) {
    std::string bytes = image;
    c.corrupt(&bytes);
    auto restored = DatabaseSerializer::Unpack(bytes);
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << c.what << ": " << restored.status();
  }
}

// A nullable integer key over 100..105 keeps that domain through a
// pack/unpack and groups dense: six value groups and one null group.
TEST(FileFormatTest, NullableIntKeyGroupsOverItsValues) {
  Database db("x");
  TableBuilder builder("t", {{"h", DataType::Int64()}});
  for (int64_t i = 0; i < 240; ++i) {
    (void)builder.AddRow({i < 30 ? Value::Null() : Value(100 + i % 6)});
  }
  (void)db.AddTable(*builder.Finish());
  auto restored = DatabaseSerializer::Unpack(DatabaseSerializer::Pack(db));
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto table = (*restored)->GetTable("t");
  ASSERT_TRUE(table.ok());
  const ColumnStats& stats = (*table)->column(0)->stats();
  ASSERT_TRUE(stats.has_min_max);
  EXPECT_EQ(stats.min.int_value(), 100);
  EXPECT_EQ(stats.max.int_value(), 105);
  TdeEngine engine(*restored);
  auto result = engine.Execute("(aggregate ((h h)) ((n count*)) (scan t))",
                               QueryOptions::Serial());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result->stats, nullptr);
  EXPECT_TRUE(result->stats->used_encoded_path);
  ASSERT_EQ(result->table.num_rows(), 7);
  int64_t total = 0;
  for (int64_t r = 0; r < 7; ++r) {
    const int64_t n = result->table.at(r, 1).int_value();
    total += n;
    EXPECT_EQ(n, result->table.at(r, 0).is_null() ? 30 : 35) << r;
  }
  EXPECT_EQ(total, 240);
}

// A file's stored min/max size the dense grouping domain of an integer
// key. Stats narrower than the data must fail the query with DataLoss (or
// answer correctly), never index outside the dense cells.
TEST(FileFormatTest, IntKeyOutsideStoredStatsFailsTyped) {
  Database db("x");
  TableBuilder builder("t", {{"h", DataType::Int64()}});
  for (int64_t i = 0; i < 240; ++i) (void)builder.AddRow({Value(i % 24)});
  (void)db.AddTable(*builder.Finish());
  const std::string bytes = DatabaseSerializer::Pack(db);
  // After column "h"'s name: 3 tag bytes, the i64 size, has_min_max, then
  // min and max as (tag, i64) pairs.
  size_t name_at = bytes.find(std::string("\x01\0\0\0h", 5));
  ASSERT_NE(name_at, std::string::npos);
  const size_t min_at = name_at + 5 + 3 + 8 + 1 + 1;
  const size_t max_at = min_at + 8 + 1;
  std::string low_max = bytes;
  PutI64(&low_max, max_at, 5);
  std::string high_min = bytes;
  PutI64(&high_min, min_at, 10);
  for (const std::string& image : {low_max, high_min}) {
    auto restored = DatabaseSerializer::Unpack(image);
    ASSERT_TRUE(restored.ok()) << restored.status();
    TdeEngine engine(*restored);
    auto result = engine.Execute(
        "(aggregate ((h h)) ((n count*)) (scan t))", QueryOptions::Serial());
    if (result.ok()) {
      ASSERT_EQ(result->table.num_rows(), 24);
      for (int64_t r = 0; r < 24; ++r) {
        EXPECT_EQ(result->table.at(r, 1).int_value(), 10);
      }
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << result.status();
    }
  }
}

TEST(CollationTest, CompareEqualsHashAgree) {
  const char* pairs[][2] = {{"abc", "ABC"}, {"Zebra", "zebRA"}, {"a", "b"},
                            {"", ""},       {"Aa", "aA"}};
  for (const auto& p : pairs) {
    bool eq_nocase = CollatedEquals(p[0], p[1], Collation::kCaseInsensitive);
    EXPECT_EQ(eq_nocase,
              CollatedCompare(p[0], p[1], Collation::kCaseInsensitive) == 0);
    if (eq_nocase) {
      EXPECT_EQ(CollatedHash(p[0], Collation::kCaseInsensitive),
                CollatedHash(p[1], Collation::kCaseInsensitive));
      EXPECT_EQ(CollationKey(p[0], Collation::kCaseInsensitive),
                CollationKey(p[1], Collation::kCaseInsensitive));
    }
  }
  EXPECT_NE(CollatedCompare("abc", "ABC", Collation::kBinary), 0);
  EXPECT_LT(CollatedCompare("abc", "abcd", Collation::kCaseInsensitive), 0);
}

}  // namespace
}  // namespace vizq::tde
