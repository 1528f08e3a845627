// Per-layer metrics of the traced window, computed from the spans read
// back from the exported Chrome trace plus deltas of public stats.
//
// A layer's self time is its span minus the union of its child spans'
// intervals; its self CPU is its thread CPU minus that of the children
// that ran on the same thread. Values are per interaction unless the
// README's metric table says otherwise.

#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "servebench/loadgen.h"
#include "servebench/seams.h"
#include "servebench/workloads.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LayerInputs {
  std::vector<SpanRecord> spans;  // the traced window, from the file
  const WindowResult* window = nullptr;  // the traced window, client side
  StatsSnapshot before;
  StatsSnapshot after;
  ExtractTimes extract;  // median over the run's set-ups
  double untraced_p50_ms = 0;
  double miss_probe_us = 0;
};

std::vector<Metric> LayerMetrics(const LayerInputs& in);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
