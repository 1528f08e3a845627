// Common-layer tests: Status/StatusOr, Value semantics, string/date
// utilities, ResultTable serialization, the thread pool, and binary I/O.

#include <gtest/gtest.h>

#include <atomic>

#include "src/common/binary_io.h"
#include "src/common/result_table.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/common/value.h"

namespace vizq {
namespace {

TEST(StatusTest, CodesAndMessages) {
  Status ok = OkStatus();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = NotFound("table 'x'");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: table 'x'");
}

StatusOr<int> Half(int v) {
  if (v % 2 != 0) return InvalidArgument("odd");
  return v / 2;
}

StatusOr<int> Quarter(int v) {
  VIZQ_ASSIGN_OR_RETURN(int half, Half(v));
  VIZQ_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(StatusTest, MacrosPropagate) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // half=3 fails at the second step
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(ValueTest, CompareAcrossNumericKinds) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(true).Compare(Value(false)), 0);
  // NULL sorts first and equals itself.
  EXPECT_LT(Value::Null().Compare(Value(int64_t{-100})), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CollatedStringEquality) {
  Value a("Hello");
  Value b("HELLO");
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(a.Equals(b, Collation::kCaseInsensitive));
  EXPECT_EQ(a.Hash(Collation::kCaseInsensitive),
            b.Hash(Collation::kCaseInsensitive));
}

TEST(ValueTest, HashConsistentWithEquals) {
  // 1 == 1.0 must hash-agree (numeric widening in Compare).
  EXPECT_TRUE(Value(int64_t{1}).Equals(Value(1.0)));
  EXPECT_EQ(Value(int64_t{1}).Hash(), Value(1.0).Hash());
}

TEST(StrUtilTest, SplitJoinStrip) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrJoin({"x", "y"}, "--"), "x--y");
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StrUtilTest, StrictParsers) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_FALSE(ParseInt64("42x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e1"), 25.0);
  EXPECT_FALSE(ParseDouble("2.5.1").has_value());
  EXPECT_TRUE(*ParseBool("TRUE"));
  EXPECT_FALSE(*ParseBool("0"));
  EXPECT_FALSE(ParseBool("yep").has_value());
}

TEST(StrUtilTest, DateRoundTripAndProperties) {
  // Round-trip across eras, leap years and month boundaries.
  const char* dates[] = {"1970-01-01", "2000-02-29", "1999-12-31",
                         "2014-06-01", "2024-02-29", "1969-07-20",
                         "2100-01-01"};
  for (const char* d : dates) {
    auto days = ParseDateDays(d);
    ASSERT_TRUE(days.has_value()) << d;
    EXPECT_EQ(FormatDateDays(*days), d);
  }
  EXPECT_FALSE(ParseDateDays("2014-13-01").has_value());
  EXPECT_FALSE(ParseDateDays("2023-02-29").has_value());
  EXPECT_FALSE(ParseDateDays("2014-6-01").has_value());
  // Weekday anchors: 1970-01-01 Thursday (3), 2014-06-01 Sunday (6).
  EXPECT_EQ(DayOfWeek(*ParseDateDays("1970-01-01")), 3);
  EXPECT_EQ(DayOfWeek(*ParseDateDays("2014-06-01")), 6);
  // Consecutive days advance the weekday mod 7.
  int64_t base = *ParseDateDays("2014-01-01");
  for (int i = 1; i < 400; ++i) {
    EXPECT_EQ(DayOfWeek(base + i), (DayOfWeek(base) + i) % 7);
  }
}

TEST(ResultTableTest, SerializeDeserializeExact) {
  ResultTable t(std::vector<ResultColumn>{
      {"s", DataType::String()}, {"i", DataType::Int64()},
      {"f", DataType::Float64()}, {"b", DataType::Bool()}});
  t.AddRow({Value("hello"), Value(int64_t{-5}), Value(2.25), Value(true)});
  t.AddRow({Value::Null(), Value::Null(), Value::Null(), Value::Null()});
  t.AddRow({Value(""), Value(int64_t{1} << 40), Value(-0.0), Value(false)});

  auto restored = ResultTable::Deserialize(t.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(t == *restored);

  EXPECT_FALSE(ResultTable::Deserialize("junk").ok());
  std::string truncated = t.Serialize();
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(ResultTable::Deserialize(truncated).ok());
  // Magic, column count, then column "s": its 4-byte name length and one
  // name byte precede the TypeKind tag. An out-of-range tag is corrupt.
  std::string bad_kind = t.Serialize();
  bad_kind[4 + 4 + 4 + 1] = static_cast<char>(0xEE);
  EXPECT_EQ(ResultTable::Deserialize(bad_kind).status().code(),
            StatusCode::kDataLoss);
}

TEST(ResultTableTest, SameUnorderedIgnoresRowOrder) {
  ResultTable a(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  a.AddRow({Value(int64_t{1})});
  a.AddRow({Value(int64_t{2})});
  ResultTable b(std::vector<ResultColumn>{{"x", DataType::Int64()}});
  b.AddRow({Value(int64_t{2})});
  b.AddRow({Value(int64_t{1})});
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(ResultTable::SameUnordered(a, b));
  b.AddRow({Value(int64_t{3})});
  EXPECT_FALSE(ResultTable::SameUnordered(a, b));
}

TEST(ThreadPoolTest, RunsAllTasksAndWaits) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
    // Pool reusable after Wait.
    pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), 101);
  }
}

TEST(ThreadPoolTest, DestructorJoinsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 20);
  pool.Shutdown();  // idempotent
}

// A Submit after Shutdown is a hard programming error: the task would
// silently never run. The pool aborts loudly instead.
TEST(ThreadPoolDeathTest, SubmitAfterShutdownAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_DEATH(pool.Submit([] {}), "Submit called after shutdown");
}

TEST(BinaryIoTest, AllFieldKindsRoundTrip) {
  BinaryWriter w;
  w.U8(7);
  w.U32(1u << 30);
  w.I64(-12345678901234LL);
  w.F64(3.5);
  w.Str("abc");
  w.Val(Value::Null());
  w.Val(Value("xyz"));
  w.Val(Value(false));

  BinaryReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  int64_t i64;
  double f64;
  std::string s;
  Value v1, v2, v3;
  ASSERT_TRUE(r.U8(&u8) && r.U32(&u32) && r.I64(&i64) && r.F64(&f64) &&
              r.Str(&s) && r.Val(&v1) && r.Val(&v2) && r.Val(&v3));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 1u << 30);
  EXPECT_EQ(i64, -12345678901234LL);
  EXPECT_EQ(f64, 3.5);
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(v1.is_null());
  EXPECT_EQ(v2.string_value(), "xyz");
  EXPECT_FALSE(v3.bool_value());
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end fails cleanly.
  uint8_t extra;
  EXPECT_FALSE(r.U8(&extra));

  // Count() fails unless that many elements of the given smallest size
  // fit in the bytes left; Enum() fails on a tag past the enum's last.
  BinaryWriter counted;
  counted.U32(2);
  counted.U64(0);
  uint32_t n;
  BinaryReader fits(counted.bytes());
  EXPECT_TRUE(fits.Count(&n, 4));
  EXPECT_EQ(n, 2u);
  BinaryReader too_many(counted.bytes());
  EXPECT_FALSE(too_many.Count(&n, 5));
  BinaryWriter tags;
  tags.U8(1);
  tags.U8(2);
  BinaryReader t(tags.bytes());
  Collation collation = Collation::kBinary;
  EXPECT_TRUE(t.Enum(&collation, Collation::kCaseInsensitive));
  EXPECT_EQ(collation, Collation::kCaseInsensitive);
  EXPECT_FALSE(t.Enum(&collation, Collation::kCaseInsensitive));
}

TEST(RngTest, DeterministicAndZipfSkewed) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());

  Rng rng(1);
  ZipfDistribution zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 0 dominates rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 5);
  // Range stays in bounds.
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

}  // namespace
}  // namespace vizq
