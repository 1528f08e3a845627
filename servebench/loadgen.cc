#include "servebench/loadgen.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>

#include "src/common/rng.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void Tally(const vizq::dashboard::BatchReport& batch, WindowResult* out) {
  using vizq::dashboard::ServedFrom;
  for (const vizq::dashboard::QueryReport& q : batch.queries) {
    ++out->queries;
    switch (q.served_from) {
      case ServedFrom::kIntelligentCacheExact: ++out->exact_hits; break;
      case ServedFrom::kIntelligentCacheDerived: ++out->derived_hits; break;
      case ServedFrom::kIntelligentCacheStale: ++out->stale_hits; break;
      case ServedFrom::kLiteralCache: ++out->literal_hits; break;
      case ServedFrom::kRemote: ++out->remote; break;
      case ServedFrom::kLocalFromBatch:
      case ServedFrom::kFailed:
        break;
    }
  }
  out->remote_queries += batch.remote_queries;
  out->fused_groups += batch.fused_groups;
  out->local_resolved += batch.local_resolved;
}

void Merge(WindowResult&& from, WindowResult* into) {
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->failed += from.failed;
  into->untyped_errors += from.untyped_errors;
  into->degraded += from.degraded;
  for (std::string& e : from.errors) {
    if (into->errors.size() < 5) into->errors.push_back(std::move(e));
  }
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->done_s.insert(into->done_s.end(), from.done_s.begin(),
                      from.done_s.end());
  into->queries += from.queries;
  into->exact_hits += from.exact_hits;
  into->derived_hits += from.derived_hits;
  into->stale_hits += from.stale_hits;
  into->literal_hits += from.literal_hits;
  into->remote += from.remote;
  into->remote_queries += from.remote_queries;
  into->fused_groups += from.fused_groups;
  into->local_resolved += from.local_resolved;
  for (Sample& s : from.samples) into->samples.push_back(std::move(s));
}

}  // namespace

WindowResult RunWindow(Deployment& deployment,
                       const std::vector<ClientTrace>& traces,
                       std::vector<size_t>* cursors,
                       const WindowOptions& options) {
  const int clients = static_cast<int>(traces.size());
  std::vector<WindowResult> per_client(clients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<Clock::time_point> finished(clients);

  auto client_loop = [&](int c) {
    WindowResult& out = per_client[c];
    const ClientTrace& trace = traces[c];
    size_t& cursor = (*cursors)[c];
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (true) {
      if (options.seconds > 0 && Clock::now() >= deadline) break;
      if (cursor >= trace.size()) {
        // A timed window replays the trace from its start, which opens a
        // new session; the warm-up replays it once.
        if (options.seconds <= 0 || trace.empty()) break;
        cursor = 0;
      }
      const Interaction& it = trace[cursor++];
      if (it.opens_session) deployment.BeginSession(c);
      // Unique within the window even when the trace wraps.
      const int64_t id =
          static_cast<int64_t>(c) * 1000000000 + out.attempted;
      vizq::server::ServeReport report;
      Clock::time_point t0 = Clock::now();
      // The request context is part of the click's cost: creating it
      // allocates the program's per-request telemetry.
      vizq::ExecContext ctx;
      auto result = [&] {
        if (options.trace == nullptr) {
          return deployment.Serve(c, it, ctx, &report);
        }
        options.trace->Bind(ctx, id);
        vizq::StatusOr<std::vector<vizq::ResultTable>> r =
            vizq::Internal("not served");
        {
          SpanLog::Scope span(options.trace, Layer::kServe, ctx);
          r = deployment.Serve(c, it, ctx, &report);
        }
        options.trace->Unbind(ctx);
        return r;
      }();
      const Clock::time_point t1 = Clock::now();
      const double ms = Ms(t1 - t0);
      out.done_s.push_back(Ms(t1 - start) / 1000.0);
      ++out.attempted;
      if (result.ok()) {
        ++out.ok;
        out.latency_ms.push_back(ms);
        if (!report.degrade_reason.empty() ||
            report.outcome != vizq::server::ServeOutcome::kFresh) {
          ++out.degraded;
        }
        Tally(report.batch, &out);
        // Each client's first answer is always kept, so a short window
        // still checks something.
        if (options.sample_every > 0 &&
            (out.ok == 1 || vizq::HashCombine(options.sample_seed,
                                              static_cast<uint64_t>(id)) %
                                    options.sample_every ==
                                0)) {
          out.samples.push_back(Sample{&it, *std::move(result)});
        }
      } else {
        ++out.failed;
        out.latency_ms.push_back(std::numeric_limits<double>::infinity());
        if (result.status().code() != vizq::StatusCode::kResourceExhausted) {
          ++out.untyped_errors;
        }
        if (out.errors.size() < 5) {
          out.errors.push_back(result.status().ToString());
        }
      }
    }
    finished[c] = Clock::now();
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  while (ready.load() < clients) std::this_thread::yield();
  const int num_slices = options.seconds > 0 ? std::max(1, options.slices) : 0;
  const double slice_s =
      num_slices > 0 ? options.seconds / num_slices : 0.0;
  // Process CPU at each slice boundary; the last entry is read after the
  // clients finish.
  std::vector<double> cpu_marks(num_slices + 1, 0.0);
  cpu_marks[0] = ProcessCpuSeconds();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  go.store(true, std::memory_order_release);
  for (int i = 1; i < num_slices; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(slice_s * i)));
    cpu_marks[i] = ProcessCpuSeconds();
  }
  for (std::thread& t : threads) t.join();
  cpu_marks[num_slices] = ProcessCpuSeconds();

  WindowResult total;
  Clock::time_point last = start;
  for (int c = 0; c < clients; ++c) {
    last = std::max(last, finished[c]);
    Merge(std::move(per_client[c]), &total);
  }
  total.wall_s = Ms(last - start) / 1000.0;
  if (num_slices > 0) {
    total.slices.resize(num_slices);
    for (int i = 0; i < num_slices; ++i) {
      WindowResult::Slice& slice = total.slices[i];
      slice.seconds =
          i + 1 < num_slices ? slice_s : total.wall_s - slice_s * i;
      slice.cpu_s = cpu_marks[i + 1] - cpu_marks[i];
    }
    for (size_t k = 0; k < total.latency_ms.size(); ++k) {
      int i = std::min(num_slices - 1,
                       static_cast<int>(total.done_s[k] / slice_s));
      WindowResult::Slice& slice = total.slices[i];
      ++slice.attempted;
      if (std::isfinite(total.latency_ms[k])) ++slice.ok;
      slice.latency_ms.push_back(total.latency_ms[k]);
    }
  }
  return total;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CurrentRssMb() {
  // The second field of statm is the resident set, in pages.
  long size = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace servebench
