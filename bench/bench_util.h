// Shared helpers for the experiment benches (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the result log).
//
// TDE parallel-plan benches time real wall clock on the cores of the host
// that runs them; record `nproc` next to any speedup they report.

#ifndef VIZQUERY_BENCH_BENCH_UTIL_H_
#define VIZQUERY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/tde/engine.h"
#include "src/workload/faa_generator.h"

namespace vizq::benchutil {

// Process-cached FAA database (generation is the expensive part).
inline std::shared_ptr<tde::Database> FaaDb(int64_t rows,
                                            uint64_t seed = 2015) {
  static auto* cache =
      new std::map<std::pair<int64_t, uint64_t>,
                   std::shared_ptr<tde::Database>>();
  auto key = std::make_pair(rows, seed);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  workload::FaaOptions options;
  options.num_flights = rows;
  options.seed = seed;
  auto db = workload::GenerateFaaDatabase(options);
  if (!db.ok()) std::abort();
  cache->emplace(key, *db);
  return *db;
}

// Wall-clock spread of repeated runs, in milliseconds.
struct WallMs {
  double median = 0;
  double min = 0;
  double max = 0;
};

// Timed runs per configuration; odd, so the median is one of them.
inline constexpr int kTimedRuns = 5;

// Times `tql` under `options`: one warm-up run, then kTimedRuns timed runs
// of Execute(). Exits with status 1 if the query fails.
inline WallMs TimeQuery(tde::TdeEngine& engine, const std::string& tql,
                        const tde::QueryOptions& options) {
  std::vector<double> ms;
  for (int i = 0; i <= kTimedRuns; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto result = engine.Execute(tql, options);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (i > 0) {
      ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  std::sort(ms.begin(), ms.end());
  return WallMs{ms[kTimedRuns / 2], ms.front(), ms.back()};
}

}  // namespace vizq::benchutil

#endif  // VIZQUERY_BENCH_BENCH_UTIL_H_
