// E6 (§4.2.2, Fig. 4): parallel plans with blocking operators. The fact
// side probes in parallel fractions; the dimension side is built ONCE into
// a shared hash table — morsel-parallel key hashing plus one sole-writer
// insert task per hash partition — and the final aggregate merges
// thread-local partial states partitioned by group-key hash.
//
// Headline workload (--emit-json): a 2M-flight FAA fact joined to a
// derived dimension (market × fl_date COUNT(*), ~hundreds of thousands of
// build rows), grouped by carrier × dest_state with COUNT(*) and
// AVG(arr_delay). The build side is the expensive part — a full aggregate
// over the fact table — so serial build/merge caps scaling no matter how
// many probe fractions run; this bench records how far the partitioned
// build and merge move that cap.
//
// Every figure is real wall clock on the host's cores. The harness
// benches time each iteration; --emit-json reports the median, min and
// max of 5 runs after one warm-up (bench_util.h's TimeQuery), plus nproc
// and the build type.
//
// --selftest: parallel-vs-serial result equivalence (tolerance-aware
// table diff) plus the used_parallel_build/used_parallel_merge stats
// flags; exit 0 pass, 1 fail. --emit-json=PATH writes BENCH_join.json and
// enforces the acceptance bar: a >=3x median speedup at DOP min(8, nproc)
// over the all-serial baseline (exit 2 below bar, 1 on malfunction). DOP 8
// is reported as measured even where it oversubscribes the host.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/testing/table_diff.h"

namespace {

using namespace vizq;

constexpr int64_t kQuickRows = 300000;    // harness + selftest
constexpr int64_t kEmitRows = 2000000;    // acceptance run

// Fact × derived-dimension join: every flight matches its own
// market × fl_date group, so the probe output stays 1:1 with the fact
// table while the build side is a full aggregate over it.
const char kDerivedDimJoin[] =
    "(aggregate ((carrier carrier) (dest_state dest_state))"
    " ((n count*) (delay avg arr_delay))"
    " (join inner ((market market) (fl_date day))"
    " (scan flights)"
    " (aggregate ((market market) (day fl_date)) ((m count*))"
    " (scan flights))))";

// Classic small-dimension join (carriers is a handful of rows): probe
// scaling with a near-free build.
const char kCarrierJoin[] =
    "(aggregate ((airline airline_name)) ((n count*) (delay avg arr_delay))"
    " (join inner ((carrier code)) (scan flights) (scan carriers)"
    " referential))";

tde::QueryOptions ParallelOptions(int dop) {
  tde::QueryOptions o;
  o.parallel.max_dop = dop;
  o.parallel.min_rows_per_fraction = 1024;
  o.parallel.enable_range_partition = false;
  o.parallel.parallel_build_min_rows = 1;
  o.parallel.parallel_merge_min_rows = 1;
  o.optimizer.enable_join_culling = false;
  // Encoded execution would aggregate below the carriers join, leaving
  // the hash join a few dozen partial rows to probe; this bench times the
  // join itself.
  o.optimizer.enable_encoded_exec = false;
  return o;
}

tde::QueryOptions SerialOptions() {
  tde::QueryOptions o = tde::QueryOptions::Serial();
  o.optimizer.enable_join_culling = false;
  o.optimizer.enable_encoded_exec = false;
  return o;
}

// ---------------------------------------------------------------------------
// Harness benches (quick variants; the acceptance run is --emit-json).

void BM_ParallelJoin(benchmark::State& state) {
  int dop = static_cast<int>(state.range(0));
  auto db = benchutil::FaaDb(kQuickRows);
  tde::TdeEngine engine(db);
  tde::QueryOptions options = dop <= 1 ? SerialOptions() : ParallelOptions(dop);
  for (auto _ : state) {
    auto result = engine.Execute(kDerivedDimJoin, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.counters["dop"] = dop;
}
BENCHMARK(BM_ParallelJoin)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Join culling ablation (§4.1.2): the same query grouped by a fact column
// with culling on/off — "removal of the fact table from a join is critical
// for performance of domain queries" works the other way around here: the
// dimension join contributes nothing and is culled.
void BM_JoinCulling(benchmark::State& state) {
  bool culling = state.range(0) == 1;
  auto db = benchutil::FaaDb(kQuickRows);
  tde::TdeEngine engine(db);
  tde::QueryOptions options = tde::QueryOptions::Serial();
  options.optimizer.enable_join_culling = culling;
  const std::string tql =
      "(aggregate ((carrier carrier)) ((n count*))"
      " (join inner ((carrier code)) (scan flights) (scan carriers)"
      " referential))";
  for (auto _ : state) {
    auto result = engine.Execute(tql, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->table.num_rows());
  }
  state.SetLabel(culling ? "culled" : "kept");
}
BENCHMARK(BM_JoinCulling)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --selftest: parallel results must equal serial results, and the
// partitioned build + partitioned merge must actually have run.

int SelfTest() {
  auto db = benchutil::FaaDb(kQuickRows);
  tde::TdeEngine engine(db);
  testing::DiffOptions diff;
  int failures = 0;

  auto check = [&](const char* name, const std::string& tql) {
    auto serial = engine.Execute(tql, SerialOptions());
    auto parallel = engine.Execute(tql, ParallelOptions(8));
    if (!serial.ok() || !parallel.ok()) {
      std::fprintf(stderr, "FAIL %s: execution error: %s\n", name,
                   (!serial.ok() ? serial.status() : parallel.status())
                       .ToString()
                       .c_str());
      ++failures;
      return;
    }
    testing::DiffResult d =
        testing::DiffTables(serial->table, parallel->table, diff);
    if (!d.equivalent) {
      std::fprintf(stderr, "FAIL %s: parallel != serial: %s\n", name,
                   d.message.c_str());
      ++failures;
      return;
    }
    std::fprintf(stderr, "ok %s: %lld rows, build_morsels=%lld "
                 "merge_partitions=%lld parallel_build=%d parallel_merge=%d\n",
                 name, static_cast<long long>(parallel->table.num_rows()),
                 static_cast<long long>(parallel->stats->join_build_morsels),
                 static_cast<long long>(parallel->stats->merge_partitions),
                 parallel->stats->used_parallel_build ? 1 : 0,
                 parallel->stats->used_parallel_merge ? 1 : 0);
    if (std::strcmp(name, "derived_dim_join") == 0 &&
        (!parallel->stats->used_parallel_build ||
         !parallel->stats->used_parallel_merge ||
         parallel->stats->join_build_morsels <= 0)) {
      std::fprintf(stderr,
                   "FAIL %s: partitioned build/merge did not engage\n", name);
      ++failures;
    }
  };
  check("derived_dim_join", kDerivedDimJoin);
  check("carrier_join", kCarrierJoin);
  std::fprintf(stderr, failures == 0 ? "selftest passed\n"
                                     : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --emit-json=PATH: the BENCH_join.json record (EXPERIMENTS.md).

double Speedup(const benchutil::WallMs& base, const benchutil::WallMs& t) {
  return t.median > 0 ? base.median / t.median : 0;
}

// One JSON member, "name": {"median_ms", "min_ms", "max_ms"}, plus
// "speedup_x" relative to `base` when one is given.
std::string JsonTiming(const char* name, const benchutil::WallMs& t,
                       const benchutil::WallMs* base = nullptr) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "\"%s\": {\"median_ms\": %.3f, \"min_ms\": %.3f, "
                        "\"max_ms\": %.3f",
                        name, t.median, t.min, t.max);
  if (base != nullptr) {
    std::snprintf(buf + n, sizeof(buf) - n, ", \"speedup_x\": %.2f",
                  Speedup(*base, t));
  }
  return std::string(buf) + "}";
}

int EmitJson(const std::string& path) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int accept_dop = std::clamp(nproc, 1, 8);
  auto db = benchutil::FaaDb(kEmitRows);
  tde::TdeEngine engine(db);
  std::fprintf(stderr,
               "parallel join: %lld flights, derived-dim build, nproc %d, "
               "%s build\n",
               static_cast<long long>(kEmitRows), nproc, VIZQ_BUILD_TYPE);

  // Flag check: the measured plan must actually run the partitioned build
  // and the partitioned final merge.
  {
    auto probe = engine.Execute(kDerivedDimJoin, ParallelOptions(8));
    if (!probe.ok()) {
      std::fprintf(stderr, "flag run failed: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    if (!probe->stats->used_parallel_build ||
        !probe->stats->used_parallel_merge ||
        probe->stats->join_build_morsels <= 0 ||
        probe->stats->merge_partitions <= 0) {
      std::fprintf(stderr, "partitioned build/merge did not engage "
                   "(build=%d merge=%d morsels=%lld partitions=%lld)\n",
                   probe->stats->used_parallel_build ? 1 : 0,
                   probe->stats->used_parallel_merge ? 1 : 0,
                   static_cast<long long>(probe->stats->join_build_morsels),
                   static_cast<long long>(probe->stats->merge_partitions));
      return 1;
    }
  }

  // DOP 1 is the all-serial plan; the acceptance DOP joins the sweep when
  // the host has a core count outside {1, 2, 4, 8}.
  std::map<int, benchutil::WallMs> by_dop;
  for (int dop : {1, 2, 4, 8, accept_dop}) {
    if (by_dop.count(dop) != 0) continue;
    by_dop[dop] = benchutil::TimeQuery(
        engine, kDerivedDimJoin,
        dop == 1 ? SerialOptions() : ParallelOptions(dop));
    std::fprintf(stderr, "  dop %d: median %.1f ms [%.1f, %.1f] (%.2fx)\n",
                 dop, by_dop[dop].median, by_dop[dop].min, by_dop[dop].max,
                 Speedup(by_dop[1], by_dop[dop]));
  }
  const benchutil::WallMs& serial = by_dop[1];
  const double speedup = Speedup(serial, by_dop[accept_dop]);

  // Ablations at the acceptance DOP: what serial blocking operators give
  // back.
  tde::QueryOptions no_build = ParallelOptions(accept_dop);
  no_build.parallel.enable_parallel_build = false;
  tde::QueryOptions no_merge = ParallelOptions(accept_dop);
  no_merge.parallel.enable_parallel_merge = false;
  tde::QueryOptions no_both = ParallelOptions(accept_dop);
  no_both.parallel.enable_parallel_build = false;
  no_both.parallel.enable_parallel_merge = false;
  const benchutil::WallMs abl_build =
      benchutil::TimeQuery(engine, kDerivedDimJoin, no_build);
  const benchutil::WallMs abl_merge =
      benchutil::TimeQuery(engine, kDerivedDimJoin, no_merge);
  const benchutil::WallMs abl_both =
      benchutil::TimeQuery(engine, kDerivedDimJoin, no_both);
  std::fprintf(stderr,
               "  dop %d ablations: serial-build %.1f ms, serial-merge %.1f "
               "ms, both-serial %.1f ms\n",
               accept_dop, abl_build.median, abl_merge.median,
               abl_both.median);

  const benchutil::WallMs carrier_serial =
      benchutil::TimeQuery(engine, kCarrierJoin, SerialOptions());
  const benchutil::WallMs carrier_par =
      benchutil::TimeQuery(engine, kCarrierJoin, ParallelOptions(accept_dop));

  const double blocking_gain = Speedup(abl_both, by_dop[accept_dop]);
  std::fprintf(stderr,
               "  speedup@%d %.2fx, blocking-operator gain %.2fx, "
               "carrier join %.2fx\n",
               accept_dop, speedup, blocking_gain,
               Speedup(carrier_serial, carrier_par));

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  char head[1024];
  std::snprintf(
      head, sizeof(head),
      "{\n"
      "  \"bench\": \"parallel_join\",\n"
      "  \"workload\": \"%lld FAA flights joined to derived market x "
      "fl_date dimension, grouped by carrier x dest_state (count, avg "
      "arr_delay); wall clock, median of 5 runs after one warm-up\",\n"
      "  \"nproc\": %d,\n"
      "  \"build_type\": \"%s\",\n"
      "  \"accept_dop\": %d,\n"
      "  \"accept_speedup_x\": %.2f,\n"
      "  \"blocking_operator_gain_x\": %.2f,\n",
      static_cast<long long>(kEmitRows), nproc, VIZQ_BUILD_TYPE, accept_dop,
      speedup, blocking_gain);
  f << head;
  for (const auto& [dop, t] : by_dop) {
    f << "  " << JsonTiming(("dop" + std::to_string(dop)).c_str(), t, &serial)
      << ",\n";
  }
  f << "  " << JsonTiming("ablation_serial_build", abl_build) << ",\n"
    << "  " << JsonTiming("ablation_serial_merge", abl_merge) << ",\n"
    << "  " << JsonTiming("ablation_serial_both", abl_both) << ",\n"
    << "  \"carrier_join\": {" << JsonTiming("serial", carrier_serial) << ", "
    << JsonTiming("parallel", carrier_par, &carrier_serial) << "},\n"
    << "  \"flags_confirmed\": true\n"
    << "}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  // Acceptance: >=3x median speedup at DOP min(8, nproc) over serial.
  return speedup >= 3.0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) return SelfTest();
    if (std::strncmp(argv[i], "--emit-json=", 12) == 0) {
      return EmitJson(argv[i] + 12);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
