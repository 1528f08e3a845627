// The closed-loop load generator: one thread per client, each replaying
// its own pre-generated trace back to back with zero think time.

#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "servebench/seams.h"
#include "servebench/workloads.h"

namespace servebench {

// One interaction's answer kept for the output check.
struct Sample {
  const Interaction* interaction = nullptr;
  std::vector<vizq::ResultTable> results;
};

struct WindowResult {
  double wall_s = 0;  // first send to last completion
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;          // non-OK Serve results
  int64_t untyped_errors = 0;  // failures other than a typed shed
  int64_t degraded = 0;        // answers that left the ladder's rung 0
  std::vector<std::string> errors;  // first few failure messages
  // Per interaction; a failed one counts as infinitely slow.
  std::vector<double> latency_ms;
  // A timed window cut into equal slices by completion time. Medians over
  // slices move little when the host stalls for part of one slice.
  struct Slice {
    double seconds = 0;
    double cpu_s = 0;
    int64_t attempted = 0;
    int64_t ok = 0;
    std::vector<double> latency_ms;
  };
  std::vector<Slice> slices;
  // Completion time of each interaction, seconds after the window start,
  // index-aligned with latency_ms.
  std::vector<double> done_s;
  // Served-from tallies over every query of every answered interaction.
  int64_t queries = 0;
  int64_t exact_hits = 0;
  int64_t derived_hits = 0;
  int64_t stale_hits = 0;
  int64_t literal_hits = 0;
  int64_t remote = 0;
  // BatchReport sums.
  int64_t remote_queries = 0;
  int64_t fused_groups = 0;
  int64_t local_resolved = 0;
  std::vector<Sample> samples;
};

struct WindowOptions {
  // > 0: stop sending after this long. <= 0: replay each trace to its end
  // (the untimed warm-up).
  double seconds = 0;
  // Trace spans of every interaction into this log (null: untraced).
  SpanLog* trace = nullptr;
  // Keep the answers of one interaction in `sample_every`, chosen by
  // `sample_seed`, for the output check (0 keeps none).
  uint64_t sample_every = 0;
  uint64_t sample_seed = 0;
  int slices = 0;  // timed windows only
};

// Runs one window over `traces`, resuming each client at its cursor and
// advancing the cursors past what it sent. A timed window wraps a client's
// cursor to the start of its trace; the warm-up stops at the end.
WindowResult RunWindow(Deployment& deployment,
                       const std::vector<ClientTrace>& traces,
                       std::vector<size_t>* cursors,
                       const WindowOptions& options);

// Quantile q in [0, 1] of `values` (nearest rank on the sorted copy);
// +inf entries sort last.
double Quantile(std::vector<double> values, double q);

// Process user+sys CPU seconds so far.
double ProcessCpuSeconds();
// Peak resident set size of the process, MB.
double PeakRssMb();
// Resident set size of the process now, MB.
double CurrentRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
