// Output and resource checks run after every timed window.

#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "servebench/loadgen.h"
#include "servebench/workloads.h"

namespace servebench {

// Re-runs every sampled interaction's queries through a reference
// QueryService (no caches, no batch analysis, no fusion) over a
// TdeDataSource on the same data, and compares each answer with
// testing::DiffForQuery, which accepts any correct tie order at a top-n
// cut. Returns one message per mismatch; `checked` receives the number of
// queries compared.
std::vector<std::string> CheckOutputs(const Deployment& deployment,
                                      const Inputs& inputs,
                                      const std::vector<Sample>& samples,
                                      int* checked);

// Waits briefly for the process-wide scheduler's queues to drain, then
// reports any class whose queue is not empty.
std::vector<std::string> CheckSchedulerDrained();

// Median time, in microseconds, of IntelligentCache::LookupHit over the
// held-out queries that miss `cache` as it stands. 0 when none miss.
double MissProbeMicros(vizq::cache::IntelligentCache* cache,
                       const std::vector<vizq::query::AbstractQuery>& probes);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
