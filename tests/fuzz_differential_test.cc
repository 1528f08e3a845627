// Bounded differential-fuzzer runs as tier-1 tests: every execution lane
// must agree with the reference oracle over a fixed seed window, the
// injected off-by-one self-test must be caught and minimized, and the
// deadline lane must never return a partial-but-OK result.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/testing/dataset_gen.h"
#include "src/testing/differential_fuzzer.h"
#include "src/testing/join_fuzz.h"
#include "src/testing/lanes.h"
#include "src/testing/query_gen.h"

namespace vizq::testing {
namespace {

// The main bounded sweep: all lanes (TDE direct, derived hit, literal
// first/replay, two federated backends, fused/unfused batch, deadline)
// against the oracle. Deterministic: a failure here reprints the seeds
// needed to replay it.
TEST(DifferentialFuzz, AllLanesAgreeWithOracle) {
  FuzzOptions options;
  options.iterations = 60;
  options.queries_per_iteration = 3;
  FuzzReport report = RunDifferentialFuzz(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A different seed exercises different dataset shapes (empty tables,
// NULL-heavy columns, RLE runs) without growing the first test's budget.
TEST(DifferentialFuzz, SecondSeedWindowAgrees) {
  FuzzOptions options;
  options.seed = 0xC0FFEE;
  options.iterations = 40;
  FuzzReport report = RunDifferentialFuzz(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.lane_checks, 0);
}

// Morsel-lane sweep: engine-only iterations (federated/deadline lanes
// off, so no simulated-I/O sleeps) bringing the morsel_parallel lane to
// >= 200 bounded iterations across this file. The lane runs every query
// through scheduler-dispatched Exchange producers claiming tiny dynamic
// morsels and diffs against the serial oracle.
TEST(DifferentialFuzz, MorselLaneSweepEngineOnly) {
  FuzzOptions options;
  options.seed = 0x5EED5;
  options.iterations = 100;
  options.include_federated = false;
  options.deadline_lane = false;
  FuzzReport report = RunDifferentialFuzz(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.lane_checks, 0);
}

// Join-lane sweep (engine-only): generated two-table equi-joins — inner
// and left-outer, NULL keys, duplicate dimension keys, empty dimension
// tables — aggregated over the joined schema and diffed against the
// nested-loop oracle join in serial, forced-parallel (partitioned
// hash-join build + partitioned final merge at tiny thresholds) and
// plain-encoding modes. Some runs must aggregate below the join, so the
// oracle checks that rewrite too.
TEST(DifferentialFuzz, JoinLaneSweepEngineOnly) {
  FuzzOptions options;
  options.seed = 0x10141;
  options.iterations = 60;
  options.queries_per_iteration = 1;
  options.include_federated = false;
  options.deadline_lane = false;
  options.metamorphic = false;
  FuzzReport report = RunDifferentialFuzz(options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.lane_checks, 0);
  EXPECT_GT(report.agg_below_join, 0) << report.Summary();
}

// Self-test: bumping one aggregate cell by one in a scratch lane must be
// flagged, and the minimizer must shrink the offending query while the
// shrunk query still fails the lane (proves seed-replay works).
TEST(DifferentialFuzz, InjectedOffByOneIsCaughtAndMinimized) {
  FuzzOptions options;
  options.iterations = 10;
  options.inject_offby_one = true;
  options.max_failures = 3;
  FuzzReport report = RunDifferentialFuzz(options);
  ASSERT_FALSE(report.failures.empty());

  bool found = false;
  for (const FuzzFailure& f : report.failures) {
    if (f.lane != "injected_offby_one") continue;
    found = true;
    // Replay from seeds alone: dataset seed + minimized query + lane seed
    // must reproduce the failure on a fresh lane set.
    Dataset ds = GenerateDataset(f.dataset_seed);
    LaneSetupOptions lane_options;
    lane_options.inject_offby_one = true;
    std::string detail;
    EXPECT_TRUE(LaneStillFails(ds, lane_options, f.minimized, f.lane,
                               f.lane_seed, &detail))
        << f.ToString();
    // Minimization must not grow the query.
    EXPECT_LE(f.minimized.ToKeyString().size(), f.query.ToKeyString().size());
  }
  EXPECT_TRUE(found) << report.Summary();
}

// Satellite (c): under an aggressive deadline the outcome is either a
// fully correct table or kDeadlineExceeded/kAborted — RunQuery's deadline
// lane fails the check otherwise. Run it many times across datasets.
TEST(DifferentialFuzz, DeadlineLaneNeverReturnsPartialOk) {
  Rng rng(77);
  for (uint64_t ds_seed : {1ULL, 2ULL, 3ULL}) {
    Dataset ds = GenerateDataset(ds_seed);
    LaneSetupOptions lane_options;
    lane_options.include_federated = false;  // deadline lane only needs truth
    ExecutionLanes lanes(ds, lane_options);
    for (int i = 0; i < 8; ++i) {
      query::AbstractQuery q = GenerateQuery(ds, rng);
      for (const LaneCheck& c : lanes.RunQuery(q, HashCombine(ds_seed, i))) {
        if (c.lane != "deadline") continue;
        EXPECT_TRUE(c.ok) << "dataset_seed=" << ds_seed << " query "
                          << q.ToKeyString() << ": " << c.detail;
      }
    }
  }
}

// The stale_shed lane: every response from a saturated frontend (nothing
// admitted) is exact-correct, correctly-labeled stale within the serve
// bound, or a typed shed. Run it across datasets and assert the lane
// actually produced verdicts (it must never be silently skipped).
TEST(DifferentialFuzz, StaleShedLaneHoldsUnderInjectedOverload) {
  Rng rng(88);
  int stale_shed_checks = 0;
  for (uint64_t ds_seed : {4ULL, 5ULL, 6ULL}) {
    Dataset ds = GenerateDataset(ds_seed);
    LaneSetupOptions lane_options;
    lane_options.include_federated = false;
    lane_options.deadline_lane = false;  // no simulated-I/O sleeps needed
    ExecutionLanes lanes(ds, lane_options);
    for (int i = 0; i < 10; ++i) {
      query::AbstractQuery q = GenerateQuery(ds, rng);
      for (const LaneCheck& c : lanes.RunQuery(q, HashCombine(ds_seed, i))) {
        if (c.lane != "stale_shed") continue;
        ++stale_shed_checks;
        EXPECT_TRUE(c.ok) << "dataset_seed=" << ds_seed << " query "
                          << q.ToKeyString() << ": " << c.detail;
      }
    }
  }
  EXPECT_EQ(stale_shed_checks, 30);
}

// The generator must be deterministic: same seed, same campaign.
TEST(DifferentialFuzz, SeedReproducibility) {
  Dataset a = GenerateDataset(42);
  Dataset b = GenerateDataset(42);
  ASSERT_EQ(a.rows, b.rows);

  Rng ra(99), rb(99);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(GenerateQuery(a, ra).ToKeyString(),
              GenerateQuery(b, rb).ToKeyString());
  }

  ASSERT_EQ(a.dim_rows, b.dim_rows);
  Rng rc(123), rd(123), fc(5), fd(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(GenerateJoinCase(a, rc, fc).Describe(),
              GenerateJoinCase(b, rd, fd).Describe());
  }
}

}  // namespace
}  // namespace vizq::testing
