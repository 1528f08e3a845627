// servebench: closed-loop serving benchmark over the real serving path
// (Frontend -> BatchExecutor -> caches -> DataSource/Connection -> TDE,
// simulated SQL server or RPC cluster). README.md describes the workloads
// and metrics.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics: the stack is set up several
// times (setup_s is the median), then one untraced window of S seconds.
// --trace 1 sets up once, runs an untraced window and then a traced one,
// writes the traced window's spans to DIR as a Chrome trace, validates it,
// and computes the per-layer metrics from that file.
//
// Every run checks a seeded sample of answers against a reference
// pipeline and checks that resources returned to baseline. The last line
// of stdout is the result object; the line before it records the
// environment.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "servebench/checks.h"
#include "servebench/loadgen.h"
#include "servebench/layers.h"
#include "servebench/seams.h"
#include "servebench/workloads.h"
#include "src/common/rng.h"

namespace servebench {
namespace {

// The seed later performance claims must also hold on, besides the seeds
// they were tuned with.
constexpr uint64_t kHeldOutSeed = 1009;
// One interaction in this many keeps its answers for the output check.
constexpr uint64_t kSampleEvery = 64;
// shared_dashboards runs its cache at capacity; a larger change in its
// entry count over a window means it was not full.
constexpr double kMaxEntryDrift = 0.25;
// Slices per timed window for the median-of-slices metrics.
constexpr int kSlices = 5;
// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupReps = 3;
// p99_ms needs ten interactions beyond it.
constexpr int64_t kMinTimedInteractions = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".servebench";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// A failed interaction is infinitely slow; JSON has no infinity, so it
// prints as the largest double.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Everything a run has found wrong; any entry makes the run incorrect.
struct Problems {
  std::vector<std::string> list;
  void Add(const std::string& what, const std::vector<std::string>& found) {
    for (const std::string& f : found) list.push_back(what + ": " + f);
  }
  void Add(const std::string& what) { list.push_back(what); }
};

// `min_attempted`: the fewest interactions the window must attempt.
void CheckWindow(const WindowResult& w, const std::string& name,
                 int64_t min_attempted, Problems* problems) {
  if (w.attempted < min_attempted) {
    problems->Add(name + ": " + std::to_string(w.attempted) +
                  " interactions, fewer than " +
                  std::to_string(min_attempted));
  }
  if (w.untyped_errors > 0) {
    problems->Add(name + ": " + std::to_string(w.untyped_errors) +
                  " interactions failed with an untyped error");
  }
  if (w.degraded > 0) {
    problems->Add(name + ": " + std::to_string(w.degraded) +
                  " answers came from a degraded ladder rung");
  }
  for (const std::string& e : w.errors) problems->Add(name + ": " + e);
}

void CheckEntryDrift(const Inputs& inputs, const StatsSnapshot& before,
                     const StatsSnapshot& after, const std::string& name,
                     Problems* problems) {
  if (inputs.kind != WorkloadKind::kSharedDashboards) return;
  double start = static_cast<double>(before.cache_entries);
  double drift = std::abs(static_cast<double>(after.cache_entries) - start);
  if (start <= 0 || drift > kMaxEntryDrift * start ||
      after.cache_evictions == before.cache_evictions) {
    problems->Add(name + ": cache not at capacity (entries " +
                  std::to_string(before.cache_entries) + " -> " +
                  std::to_string(after.cache_entries) + ", evictions " +
                  std::to_string(after.cache_evictions -
                                 before.cache_evictions) +
                  ")");
  }
}

int Run(const Args& args) {
  WorkloadKind kind;
  if (!ParseWorkload(args.workload, &kind)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // The load generator runs one thread per client, so capping the clients
  // at nproc caps its threads.
  const int clients = std::max(1, std::min(SizesFor(kind).clients, nproc));

  auto inputs_or = GenerateInputs(kind, args.seed, clients);
  if (!inputs_or.ok()) {
    std::fprintf(stderr, "servebench: input generation failed: %s\n",
                 inputs_or.status().ToString().c_str());
    return 1;
  }
  const Inputs& inputs = *inputs_or;
  // The benchmark's own inputs stay resident all run; peak_rss_mb counts
  // only what the serving stack adds on top of them.
  const double inputs_rss_mb = CurrentRssMb();
  SpanLog log;
  Problems problems;

  // --- set-up: build the stack from the generated inputs and warm it ---
  const int reps = args.trace == 1 ? 1 : kSetupReps;
  std::vector<double> setup_s, parse_ms, build_ms;
  std::unique_ptr<Deployment> deployment;
  for (int r = 0; r < reps; ++r) {
    deployment.reset();
    auto t0 = std::chrono::steady_clock::now();
    deployment = std::make_unique<Deployment>(inputs, &log);
    ExtractTimes extract;
    vizq::Status built = deployment->Build(&extract);
    if (!built.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    std::vector<size_t> warm_cursors(inputs.warmup.size(), 0);
    WindowResult warm =
        RunWindow(*deployment, inputs.warmup, &warm_cursors, WindowOptions{});
    CheckWindow(warm, "warm-up", 0, &problems);
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    parse_ms.push_back(extract.parse_ms);
    build_ms.push_back(extract.build_ms);
  }

  // --- timed windows ---
  std::vector<size_t> cursors(inputs.timed.size(), 0);
  auto timed_window = [&](SpanLog* trace, uint64_t salt,
                          StatsSnapshot* before, StatsSnapshot* after) {
    WindowOptions opts;
    opts.seconds = args.seconds;
    opts.trace = trace;
    opts.sample_every = kSampleEvery;
    opts.sample_seed = vizq::HashCombine(args.seed, salt);
    opts.slices = kSlices;
    *before = deployment->Snapshot();
    WindowResult w = RunWindow(*deployment, inputs.timed, &cursors, opts);
    *after = deployment->Snapshot();
    return w;
  };

  StatsSnapshot before, after;
  WindowResult main_window = timed_window(nullptr, 11, &before, &after);
  CheckWindow(main_window, "timed window", kMinTimedInteractions, &problems);
  CheckEntryDrift(inputs, before, after, "timed window", &problems);

  std::vector<Metric> metrics;
  std::vector<Sample> samples = std::move(main_window.samples);
  WindowResult traced;
  if (args.trace == 1) {
    StatsSnapshot tb, ta;
    log.SetRecording(true);
    traced = timed_window(&log, 12, &tb, &ta);
    log.SetRecording(false);
    CheckWindow(traced, "traced window", kMinTimedInteractions, &problems);
    CheckEntryDrift(inputs, tb, ta, "traced window", &problems);
    for (Sample& s : traced.samples) samples.push_back(std::move(s));

    // Export once, validate, and compute the layer metrics from the file.
    std::string path = args.out_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".trace.json";
    std::error_code mkdir_error;
    std::filesystem::create_directories(args.out_dir, mkdir_error);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << ToChromeTrace(log.spans());
      if (!f.good()) {
        std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    std::stringstream text;
    text << std::ifstream(path, std::ios::binary).rdbuf();
    auto spans = FromChromeTrace(text.str());
    if (!spans.ok()) {
      problems.Add("trace export: " + spans.status().ToString());
    } else {
      LayerInputs li;
      li.spans = *std::move(spans);
      li.window = &traced;
      li.before = tb;
      li.after = ta;
      li.extract.parse_ms = Median(parse_ms);
      li.extract.build_ms = Median(build_ms);
      li.untraced_p50_ms = Quantile(main_window.latency_ms, 0.5);
      li.miss_probe_us =
          MissProbeMicros(deployment->probe_cache(), inputs.probes);
      metrics = LayerMetrics(li);
    }
  } else {
    // p50, throughput and CPU are medians over the window's slices; p99
    // needs the whole window's samples.
    const WindowResult& w = main_window;
    std::vector<double> p50, rate, cpu;
    for (const WindowResult::Slice& slice : w.slices) {
      if (slice.attempted == 0) continue;
      p50.push_back(Quantile(slice.latency_ms, 0.5));
      rate.push_back(static_cast<double>(slice.ok) / slice.seconds);
      cpu.push_back(slice.cpu_s * 1000.0 /
                    static_cast<double>(slice.attempted));
    }
    const double attempted =
        static_cast<double>(std::max<int64_t>(1, w.attempted));
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", Median(p50), "ms"},
        {"p99_ms", Quantile(w.latency_ms, 0.99), "ms"},
        {"throughput_per_s", Median(rate), "1/s"},
        {"cpu_ms_per_interaction", Median(cpu), "ms"},
        {"peak_rss_mb", PeakRssMb() - inputs_rss_mb, "MB"},
        {"served_frac", static_cast<double>(w.ok) / attempted, "frac"},
    };
  }

  // --- checks: answers, resources, load generator ---
  int checked = 0;
  problems.Add("output check",
               CheckOutputs(*deployment, inputs, samples, &checked));
  if (checked == 0) problems.Add("output check: no answers were sampled");
  problems.Add("resources", deployment->CheckResources());
  problems.Add("resources", CheckSchedulerDrained());
  for (const std::string& p : problems.list) {
    std::fprintf(stderr, "servebench: FAILED %s\n", p.c_str());
  }

  const WindowResult& reported = args.trace == 1 ? traced : main_window;
  const bool correct = problems.list.empty();
  std::string metrics_json;
  for (const Metric& m : metrics) {
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += JsonString(m.name) + ":{\"value\":" +
                    JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) +
                    "}";
  }
  std::string result = std::string("{\"correct\":") +
                       (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(reported.attempted) +
                       ",\"failed\":" + std::to_string(reported.failed) +
                       ",\"metrics\":{" + metrics_json + "}}";
  std::string env =
      std::string("{\"env\":{\"workload\":") + JsonString(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
      ",\"seconds\":" + JsonNumber(args.seconds) +
      ",\"trace\":" + std::to_string(args.trace) +
      ",\"nproc\":" + std::to_string(nproc) +
      ",\"clients\":" + std::to_string(clients) +
      ",\"inputs_rss_mb\":" + JsonNumber(inputs_rss_mb) +
      ",\"process_peak_rss_mb\":" + JsonNumber(PeakRssMb()) +
      ",\"build_type\":" + JsonString(SERVEBENCH_BUILD_TYPE) +
      ",\"checked_answers\":" + std::to_string(checked) +
      ",\"problems\":" + std::to_string(problems.list.size()) + "}}";
  std::printf("%s\n%s\n", env.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return servebench::Run(args);
}
