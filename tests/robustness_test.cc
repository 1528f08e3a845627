// Robustness tests: deterministic fuzzing of the entry points (TQL
// parser, CSV parser, and the decoders of all eight binary formats) — no
// crashes, clean Status on garbage — the golden bytes of each binary
// format, plus concurrency hammering of the shared caches and the
// connection pool.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <iterator>

#include "src/cache/intelligent_cache.h"
#include "src/cache/literal_cache.h"
#include "src/cache/persistence.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/extract/csv_parser.h"
#include "src/extract/type_inference.h"
#include "src/federation/connection_pool.h"
#include "src/query/abstract_query.h"
#include "src/rpc/envelope.h"
#include "src/tde/plan/tql_parser.h"
#include "src/tde/storage/file_format.h"
#include "tests/test_util.h"

namespace vizq {
namespace {

std::string RandomText(Rng& rng, int max_len, const std::string& alphabet) {
  int len = static_cast<int>(rng.Below(max_len + 1));
  std::string out;
  out.reserve(len);
  for (int i = 0; i < len; ++i) {
    out += alphabet[rng.Below(alphabet.size())];
  }
  return out;
}

class FuzzSeedTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeedTest, TqlParserNeverCrashes) {
  Rng rng(GetParam() * 131 + 7);
  const std::string alphabet = "()abcdef sel scan proj 0123456789\"<>=+-*";
  for (int i = 0; i < 200; ++i) {
    std::string input = RandomText(rng, 120, alphabet);
    auto plan = tde::ParseTql(input);  // any Status is fine; no crash
    if (plan.ok()) {
      // Whatever parsed must at least print.
      EXPECT_FALSE((*plan)->ToString().empty());
    }
  }
}

TEST_P(FuzzSeedTest, TqlNearMissesFailCleanly) {
  // Mutations of a valid query: drop/duplicate random characters.
  const std::string valid =
      "(topn 5 ((total desc)) (aggregate ((region region)) "
      "((total sum units)) (select (> units 3) (scan sales))))";
  Rng rng(GetParam());
  auto db = vizq::testing::MakeTestDatabase(256);
  for (int i = 0; i < 100; ++i) {
    std::string mutated = valid;
    int edits = 1 + static_cast<int>(rng.Below(3));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Below(mutated.size());
      if (rng.Chance(0.5)) {
        mutated.erase(pos, 1);
      } else {
        mutated.insert(pos, 1, mutated[pos]);
      }
    }
    auto plan = tde::ParseTql(mutated);
    if (!plan.ok()) continue;
    // If it parses it might still fail to bind; both must be clean.
    tde::TdeEngine engine(db);
    auto result = engine.Execute(*plan, tde::QueryOptions::Serial());
    (void)result;
  }
}

TEST_P(FuzzSeedTest, CsvParserNeverCrashes) {
  Rng rng(GetParam() * 977 + 3);
  const std::string alphabet = "ab,\"\n\r 1.x";
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomText(rng, 200, alphabet);
    auto records = extract::ParseCsv(input);
    if (records.ok() && !records->empty()) {
      extract::InferredSchema schema = extract::InferSchema(*records);
      EXPECT_EQ(schema.columns.size(), (*records)[0].size());
    }
  }
}

// --- binary formats ---

// FNV-1a, 64-bit.
uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every Value tag and column type.
ResultTable SampleTable() {
  ResultTable t({{"s", DataType::String(Collation::kCaseInsensitive)},
                 {"i", DataType::Int64()},
                 {"f", DataType::Float64()},
                 {"b", DataType::Bool()},
                 {"d", DataType::Date()}});
  t.AddRow({Value("ab"), Value(int64_t{-7}), Value(2.5), Value(true),
            Value::Null()});
  t.AddRow({Value(""), Value(int64_t{1} << 40), Value(-0.125), Value(false),
            Value(int64_t{19000})});
  return t;
}

query::AbstractQuery SampleQuery() {
  return query::QueryBuilder("faa", "flights")
      .Dim("carrier")
      .Agg(AggFunc::kSum, "delay", "total")
      .CountAll("n")
      .FilterIn("carrier",
                {Value("AA"), Value(int64_t{3}), Value(true), Value::Null()})
      .FilterRange("delay", Value(1.5), std::nullopt)
      .OrderBy("total")
      .Limit(10)
      .Build();
}

// One table "t" holding every column encoding and payload: plain double,
// plain string, dictionary string, RLE dictionary string, RLE int, delta
// date (the sort column) and a nullable plain int.
tde::Database SampleExtract() {
  tde::Database db("golden");
  tde::TableBuilder builder(
      "t", {{"f", DataType::Float64()},
            {"s", DataType::String()},
            {"k", DataType::String(Collation::kCaseInsensitive)},
            {"g", DataType::String()},
            {"r", DataType::Int64()},
            {"d", DataType::Date()},
            {"n", DataType::Int64()}});
  builder.SetEncodingChoice(0, tde::EncodingChoice::kForcePlain);
  builder.SetEncodingChoice(1, tde::EncodingChoice::kForcePlain);
  builder.SetEncodingChoice(2, tde::EncodingChoice::kForceDictionary);
  builder.SetEncodingChoice(4, tde::EncodingChoice::kForceRle);
  builder.SetEncodingChoice(5, tde::EncodingChoice::kForceDelta);
  builder.SetEncodingChoice(6, tde::EncodingChoice::kForcePlain);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(builder
                    .AddRow({Value(0.5 * static_cast<double>(i)),
                             Value(std::string("s").append(std::to_string(i))),
                             Value(i % 3 == 0 ? "x" : "Y"),
                             Value(i < 4 ? "lo" : "hi"), Value(i / 4),
                             Value(18000 + 2 * i),
                             i % 3 == 1 ? Value::Null() : Value(i - 3)})
                    .ok());
  }
  builder.DeclareSorted({5});
  auto table = builder.Finish();
  EXPECT_TRUE(table.ok()) << table.status();
  EXPECT_TRUE(db.AddTable(*table).ok());
  return db;
}

// One binary format: a fixed valid image and its decoder.
struct BinaryFormat {
  std::string name;
  std::string image;
  // Decodes `bytes`; on success returns the decoded value encoded again.
  std::function<StatusOr<std::string>(const std::string&)> decode;
};

std::vector<BinaryFormat> BinaryFormats() {
  using Bytes = StatusOr<std::string>;
  const ResultTable table = SampleTable();
  const query::AbstractQuery query = SampleQuery();
  std::vector<BinaryFormat> formats;
  formats.push_back({"result_table", table.Serialize(),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(ResultTable t,
                                             ResultTable::Deserialize(b));
                       return t.Serialize();
                     }});
  formats.push_back({"abstract_query", query.Serialize(),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(
                           query::AbstractQuery q,
                           query::AbstractQuery::Deserialize(b));
                       return q.Serialize();
                     }});
  cache::IntelligentCache ic;
  cache::LiteralCache lc;
  ic.Put(query, table, 12.5);
  formats.push_back({"cache_snapshot", cache::SerializeCaches(ic, lc),
                     [](const std::string& b) -> Bytes {
                       cache::IntelligentCache ic2;
                       cache::LiteralCache lc2;
                       VIZQ_RETURN_IF_ERROR(
                           cache::DeserializeCaches(b, &ic2, &lc2));
                       return cache::SerializeCaches(ic2, lc2);
                     }});
  formats.push_back({"extract", tde::DatabaseSerializer::Pack(SampleExtract()),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(
                           std::shared_ptr<tde::Database> db,
                           tde::DatabaseSerializer::Unpack(b));
                       return tde::DatabaseSerializer::Pack(*db);
                     }});
  cluster::WireBatchOptions options;
  options.cache_only = true;
  options.max_result_age_ms = 250;
  options.session_id = 42;
  options.priority = TaskClass::kBackground;
  formats.push_back(
      {"batch_request", cluster::EncodeBatchRequest({query, query}, options),
       [](const std::string& b) -> Bytes {
         VIZQ_ASSIGN_OR_RETURN(auto decoded, cluster::DecodeBatchRequest(b));
         return cluster::EncodeBatchRequest(decoded.first, decoded.second);
       }});
  cluster::NodeBatchResult result;
  result.results = {table, ResultTable()};
  result.queries = {{dashboard::ServedFrom::kIntelligentCacheStale, 1.25, 40},
                    {dashboard::ServedFrom::kRemote, 3.5, 0}};
  result.remote_queries = 1;
  result.fused_groups = 2;
  result.local_resolved = 3;
  result.cache_hits = 4;
  formats.push_back({"batch_response", cluster::EncodeBatchResponse(result),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(cluster::NodeBatchResult r,
                                             cluster::DecodeBatchResponse(b));
                       return cluster::EncodeBatchResponse(r);
                     }});
  rpc::RpcRequest request{7, "execute_batch", "n2", 80.0, "payload"};
  formats.push_back({"rpc_request", request.Serialize(),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(rpc::RpcRequest r,
                                             rpc::RpcRequest::Deserialize(b));
                       return r.Serialize();
                     }});
  rpc::RpcResponse response{7, StatusCode::kResourceExhausted, "inbox full",
                            2.5, "payload"};
  formats.push_back({"rpc_response", response.Serialize(),
                     [](const std::string& b) -> Bytes {
                       VIZQ_ASSIGN_OR_RETURN(
                           rpc::RpcResponse r,
                           rpc::RpcResponse::Deserialize(b));
                       return r.Serialize();
                     }});
  return formats;
}

// Golden bytes: each format's fixed value encodes to the pinned size and
// hash, and decodes and re-encodes to the same bytes. .tde files and
// cache snapshots already on disk depend on these bytes; a format change
// needs a new magic or version, never new pins.
TEST(BinaryFormatTest, GoldenBytes) {
  struct Pin {
    const char* name;
    size_t size;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"result_table", 113, 0xddc787f05b3cedaaULL},
      {"abstract_query", 158, 0x5be398041239032cULL},
      {"cache_snapshot", 447, 0x3cbd36a7341bfa9eULL},
      {"extract", 1194, 0x68006c6ea295a1aeULL},
      {"batch_request", 347, 0x5fda8a386b2e8ee5ULL},
      {"batch_response", 191, 0x6ba4b31771231d2fULL},
      {"rpc_request", 54, 0x46c096ddd670e932ULL},
      {"rpc_response", 49, 0x6c1176d91191bb7bULL},
  };
  std::vector<BinaryFormat> formats = BinaryFormats();
  ASSERT_EQ(formats.size(), std::size(pins));
  for (size_t i = 0; i < formats.size(); ++i) {
    const BinaryFormat& f = formats[i];
    EXPECT_EQ(f.name, pins[i].name);
    EXPECT_EQ(f.image.size(), pins[i].size) << f.name;
    EXPECT_EQ(HashBytes(f.image), pins[i].hash) << f.name;
    StatusOr<std::string> again = f.decode(f.image);
    ASSERT_TRUE(again.ok()) << f.name << ": " << again.status();
    EXPECT_TRUE(*again == f.image) << f.name;
  }
}

// A byte flip (1-3 bytes), a truncation or an extension of `image`.
std::string Mutate(Rng& rng, const std::string& image) {
  std::string out = image;
  const uint64_t kind = rng.Below(10);
  if (kind < 7) {
    const uint64_t flips = 1 + rng.Below(3);
    for (uint64_t i = 0; i < flips; ++i) {
      out[rng.Below(out.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
  } else if (kind < 9) {
    out.resize(rng.Below(out.size()));
  } else {
    for (uint64_t i = 1 + rng.Below(16); i > 0; --i) {
      out.push_back(static_cast<char>(rng.Below(256)));
    }
  }
  return out;
}

// Every decoder is total: junk and mutated images decode or fail with
// kDataLoss, and an extract that unpacks can be scanned.
TEST_P(FuzzSeedTest, DeserializersRejectGarbage) {
  Rng rng(GetParam() * 31 + 1);
  const std::vector<BinaryFormat> formats = BinaryFormats();
  auto expect_total = [](const BinaryFormat& f, const std::string& bytes) {
    StatusOr<std::string> decoded = f.decode(bytes);
    EXPECT_TRUE(decoded.ok() ||
                decoded.status().code() == StatusCode::kDataLoss)
        << f.name << ": " << decoded.status();
    if (f.name != "extract" || !decoded.ok()) return;
    auto db = tde::DatabaseSerializer::Unpack(bytes);
    ASSERT_TRUE(db.ok());
    tde::TdeEngine engine(*db);
    auto scan = engine.Execute("(scan t)", tde::QueryOptions::Serial());
    EXPECT_TRUE(scan.ok() || scan.status().code() == StatusCode::kNotFound ||
                scan.status().code() == StatusCode::kDataLoss)
        << scan.status();
  };
  for (int i = 0; i < 50; ++i) {
    std::string junk = RandomText(rng, 400, std::string("\x00\x01VZRTQCH", 8));
    for (const BinaryFormat& f : formats) expect_total(f, junk);
  }
  for (const BinaryFormat& f : formats) {
    for (int i = 0; i < 1000; ++i) expect_total(f, Mutate(rng, f.image));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest, ::testing::Range(1, 9));

TEST(ConcurrencyTest, CacheSurvivesParallelMixedUse) {
  cache::IntelligentCacheOptions options;
  options.max_bytes = 64 * 1024;  // force continuous eviction
  cache::IntelligentCache cache(options);
  ResultTable t(std::vector<ResultColumn>{{"region", DataType::String()},
                                          {"n", DataType::Int64()}});
  t.AddRow({Value("East"), Value(int64_t{5})});

  std::atomic<int64_t> hits{0};
  {
    ThreadPool pool(8);
    for (int worker = 0; worker < 8; ++worker) {
      pool.Submit([&, worker] {
        Rng rng(worker);
        for (int i = 0; i < 300; ++i) {
          query::AbstractQuery q =
              query::QueryBuilder("s", "v")
                  .Dim("region")
                  .CountAll("n")
                  .FilterIn("region",
                            {Value(std::to_string(rng.Below(40)))})
                  .Build();
          if (rng.Chance(0.5)) {
            cache.Put(q, t, 5.0);
          } else if (cache.Lookup(q).has_value()) {
            hits.fetch_add(1);
          }
          if (i % 100 == 0) cache.InvalidateDataSource("s");
        }
      });
    }
    pool.Wait();
  }
  // No crashes/deadlocks; counters consistent.
  EXPECT_GE(cache.stats().inserts, 1);
  EXPECT_EQ(cache.stats().hits(), hits.load() + 0);
}

TEST(ConcurrencyTest, PoolHammeredFromManyThreads) {
  auto source = std::make_shared<federation::TdeDataSource>(
      "tde", vizq::testing::MakeTestDatabase(512));
  federation::ConnectionPool pool(source, 3);
  std::atomic<int> completed{0};
  {
    ThreadPool workers(8);
    for (int i = 0; i < 64; ++i) {
      workers.Submit([&] {
        auto conn = pool.Acquire();
        ASSERT_TRUE(conn.ok());
        completed.fetch_add(1);
      });
    }
    workers.Wait();
  }
  EXPECT_EQ(completed.load(), 64);
  EXPECT_LE(pool.size(), 3);
  EXPECT_EQ(pool.idle(), pool.size());
}

}  // namespace
}  // namespace vizq
