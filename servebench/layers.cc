#include "servebench/layers.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>

namespace servebench {

namespace {

struct Interval {
  int64_t start;
  int64_t end;
};

// Total length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    int64_t s = std::max(iv.start, lo);
    int64_t e = std::min(iv.end, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const std::vector<SpanRecord>& spans = in.spans;
  const WindowResult& w = *in.window;

  std::unordered_map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  struct Self {
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
    bool has_node_child = false;
  };
  auto self_of = [&](const SpanRecord& s) {
    Self out;
    std::vector<Interval> kids;
    int64_t kid_cpu = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        kids.push_back({c->start_ns, c->end_ns});
        if (c->tid == s.tid) kid_cpu += c->cpu_ns;
        if (c->layer == Layer::kNode) out.has_node_child = true;
      }
    }
    out.wall_ns = (s.end_ns - s.start_ns) - CoveredNs(kids, s.start_ns, s.end_ns);
    out.cpu_ns = std::max<int64_t>(0, s.cpu_ns - kid_cpu);
    return out;
  };

  int64_t interactions = 0;
  int64_t serve_total_ns = 0;
  std::vector<double> tde_ms, fed_ms;
  int64_t server_self = 0, batch_self = 0, batch_self_cpu = 0, batch_wait = 0;
  int64_t cluster_self = 0, node_self = 0;
  int64_t tde_rows = 0, fed_wait = 0;
  std::map<int64_t, std::vector<Interval>> tde_by_interaction, fed_by_interaction;
  for (const SpanRecord& s : spans) {
    const int64_t dur = s.end_ns - s.start_ns;
    switch (s.layer) {
      case Layer::kServe: {
        ++interactions;
        serve_total_ns += dur;
        server_self += self_of(s).wall_ns;
        break;
      }
      case Layer::kBatch: {
        Self self = self_of(s);
        batch_self += self.wall_ns;
        batch_self_cpu += self.cpu_ns;
        batch_wait += std::max<int64_t>(0, self.wall_ns - self.cpu_ns);
        if (self.has_node_child) cluster_self += self.wall_ns;
        break;
      }
      case Layer::kNode:
        node_self += self_of(s).wall_ns;
        break;
      case Layer::kTde:
        tde_ms.push_back(Ms(dur));
        tde_rows += s.rows;
        tde_by_interaction[s.interaction].push_back({s.start_ns, s.end_ns});
        break;
      case Layer::kFederation:
        fed_ms.push_back(Ms(dur));
        fed_wait += std::max<int64_t>(0, dur - s.cpu_ns);
        fed_by_interaction[s.interaction].push_back({s.start_ns, s.end_ns});
        break;
    }
  }
  auto union_total = [](const std::map<int64_t, std::vector<Interval>>& by) {
    int64_t total = 0;
    for (const auto& [id, ivs] : by) {
      total += CoveredNs(ivs, std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max());
    }
    return total;
  };

  const double n = static_cast<double>(std::max<int64_t>(1, interactions));
  const double serve_ms_total = std::max(1e-9, Ms(serve_total_ns));
  auto per = [&](double v) { return v / n; };
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const StatsSnapshot& a = in.before;
  const StatsSnapshot& b = in.after;

  double node_skew = 0;
  if (!b.node_batches.empty()) {
    double sum = 0, max = 0;
    for (size_t i = 0; i < b.node_batches.size(); ++i) {
      double d = static_cast<double>(b.node_batches[i] - a.node_batches[i]);
      sum += d;
      max = std::max(max, d);
    }
    node_skew = frac(max, sum / static_cast<double>(b.node_batches.size()));
  }
  const double hits = static_cast<double>(w.exact_hits + w.derived_hits +
                                          w.stale_hits);
  // Client-side latency on both sides, so the ratio compares one interval.
  const double traced_p50 = Quantile(w.latency_ms, 0.5);

  return {
      {"tde.queries", per(static_cast<double>(tde_ms.size())), "count"},
      {"tde.query_p50_ms", Quantile(tde_ms, 0.5), "ms"},
      {"tde.query_p99_ms", Quantile(tde_ms, 0.99), "ms"},
      {"tde.rows", per(static_cast<double>(tde_rows)), "count"},
      {"extract.parse_ms", in.extract.parse_ms, "ms"},
      {"extract.build_ms", in.extract.build_ms, "ms"},
      {"cache.hit_frac", frac(hits, static_cast<double>(w.queries)), "frac"},
      {"cache.exact_hits", per(static_cast<double>(w.exact_hits)), "count"},
      {"cache.derived_hits", per(static_cast<double>(w.derived_hits)),
       "count"},
      {"cache.misses", per(static_cast<double>(w.queries) - hits), "count"},
      {"cache.evictions",
       per(static_cast<double>(b.cache_evictions - a.cache_evictions)),
       "count"},
      {"cache.entries_start", static_cast<double>(a.cache_entries), "count"},
      {"cache.entries_end", static_cast<double>(b.cache_entries), "count"},
      {"cache.bytes_end", static_cast<double>(b.cache_bytes), "bytes"},
      {"cache.literal_hit_frac",
       frac(static_cast<double>(w.literal_hits),
            static_cast<double>(w.literal_hits + w.remote)),
       "frac"},
      {"cache.miss_probe_us", in.miss_probe_us, "us"},
      {"cache.shared_tier_hit_frac",
       frac(static_cast<double>(b.shared_hits - a.shared_hits),
            static_cast<double>(b.shared_gets - a.shared_gets)),
       "frac"},
      {"dashboard.self_ms", per(Ms(batch_self)), "ms"},
      {"dashboard.self_cpu_ms", per(Ms(batch_self_cpu)), "ms"},
      {"dashboard.wait_ms", per(Ms(batch_wait)), "ms"},
      {"dashboard.remote_queries", per(static_cast<double>(w.remote_queries)),
       "count"},
      {"dashboard.fused_groups", per(static_cast<double>(w.fused_groups)),
       "count"},
      {"dashboard.local_resolved", per(static_cast<double>(w.local_resolved)),
       "count"},
      {"server.self_ms", per(Ms(server_self)), "ms"},
      {"server.degraded", static_cast<double>(w.degraded), "count"},
      {"federation.queries", per(static_cast<double>(fed_ms.size())), "count"},
      {"federation.query_p50_ms", Quantile(fed_ms, 0.5), "ms"},
      {"federation.wait_ms", per(Ms(fed_wait)), "ms"},
      {"federation.connects", per(static_cast<double>(b.connects - a.connects)),
       "count"},
      {"federation.pool_waits",
       per(static_cast<double>(b.pool_waits - a.pool_waits)), "count"},
      {"sched.interactive_tasks",
       per(static_cast<double>(b.sched_interactive - a.sched_interactive)),
       "count"},
      {"sched.shed", static_cast<double>(b.sched_shed - a.sched_shed), "count"},
      {"rpc.calls", per(static_cast<double>(b.rpc_calls - a.rpc_calls)),
       "count"},
      {"rpc.bytes", per(static_cast<double>(b.rpc_bytes - a.rpc_bytes)),
       "bytes"},
      {"rpc.net_ms", per(b.rpc_net_ms - a.rpc_net_ms), "ms"},
      {"rpc.retries", static_cast<double>(b.rpc_retries - a.rpc_retries),
       "count"},
      {"rpc.transport_errors",
       static_cast<double>(b.rpc_transport_errors - a.rpc_transport_errors),
       "count"},
      {"cluster.self_ms", per(Ms(cluster_self)), "ms"},
      {"cluster.node_self_ms", per(Ms(node_self)), "ms"},
      {"cluster.node_skew", node_skew, "ratio"},
      {"bench.interactions", static_cast<double>(interactions), "count"},
      {"bench.trace_overhead_frac", frac(traced_p50, in.untraced_p50_ms),
       "ratio"},
      {"bench.tde_frac", frac(Ms(union_total(tde_by_interaction)),
                              serve_ms_total),
       "frac"},
      {"bench.dashboard_frac", frac(Ms(batch_self), serve_ms_total), "frac"},
      {"bench.remote_frac",
       frac(Ms(union_total(fed_by_interaction)) + (b.rpc_net_ms - a.rpc_net_ms),
            serve_ms_total),
       "frac"},
  };
}

}  // namespace servebench
