#include "src/cluster/node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/binary_io.h"
#include "src/obs/metrics.h"

namespace vizq::cluster {

// --- wire codecs ---

std::string EncodeBatchRequest(const std::vector<query::AbstractQuery>& batch,
                               const WireBatchOptions& options) {
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const auto& q : batch) w.Str(q.Serialize());
  w.U8(options.cache_only ? 1 : 0);
  w.F64(options.max_result_age_ms);
  w.U8(options.cache_exact_only ? 1 : 0);
  w.U64(options.session_id);
  w.U8(static_cast<uint8_t>(options.priority));
  return w.TakeBytes();
}

StatusOr<std::pair<std::vector<query::AbstractQuery>, WireBatchOptions>>
DecodeBatchRequest(const std::string& payload) {
  BinaryReader r(payload);
  // An entry is at least a query's length prefix.
  uint32_t count = 0;
  if (!r.Count(&count, 4)) {
    return DataLoss("batch request: bad count");
  }
  std::vector<query::AbstractQuery> batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string bytes;
    if (!r.Str(&bytes)) return DataLoss("batch request: truncated query");
    VIZQ_ASSIGN_OR_RETURN(query::AbstractQuery q,
                          query::AbstractQuery::Deserialize(bytes));
    batch.push_back(std::move(q));
  }
  WireBatchOptions options;
  uint8_t cache_only = 0, exact_only = 0;
  if (!r.U8(&cache_only) || !r.F64(&options.max_result_age_ms) ||
      !r.U8(&exact_only) || !r.U64(&options.session_id) ||
      !r.Enum(&options.priority, TaskClass::kBackground) || !r.AtEnd()) {
    return DataLoss("batch request: truncated options or bad priority");
  }
  options.cache_only = cache_only != 0;
  options.cache_exact_only = exact_only != 0;
  return std::make_pair(std::move(batch), options);
}

std::string EncodeBatchResponse(const NodeBatchResult& result) {
  BinaryWriter w;
  w.U32(static_cast<uint32_t>(result.results.size()));
  for (size_t i = 0; i < result.results.size(); ++i) {
    w.Str(result.results[i].Serialize());
    const dashboard::QueryReport& qr =
        i < result.queries.size() ? result.queries[i]
                                  : dashboard::QueryReport{};
    w.U8(static_cast<uint8_t>(qr.served_from));
    w.F64(qr.ms);
    w.F64(qr.age_ms);
  }
  w.U32(static_cast<uint32_t>(result.remote_queries));
  w.U32(static_cast<uint32_t>(result.fused_groups));
  w.U32(static_cast<uint32_t>(result.local_resolved));
  w.U32(static_cast<uint32_t>(result.cache_hits));
  return w.TakeBytes();
}

StatusOr<NodeBatchResult> DecodeBatchResponse(const std::string& payload) {
  BinaryReader r(payload);
  // An entry is at least a table's length prefix, served_from and two
  // F64 timings.
  uint32_t count = 0;
  if (!r.Count(&count, 4 + 1 + 8 + 8)) {
    return DataLoss("batch response: bad count");
  }
  NodeBatchResult result;
  result.results.reserve(count);
  result.queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string bytes;
    dashboard::QueryReport qr;
    if (!r.Str(&bytes) ||
        !r.Enum(&qr.served_from, dashboard::ServedFrom::kFailed) ||
        !r.F64(&qr.ms) || !r.F64(&qr.age_ms)) {
      return DataLoss("batch response: truncated result or bad served_from");
    }
    VIZQ_ASSIGN_OR_RETURN(ResultTable table, ResultTable::Deserialize(bytes));
    result.results.push_back(std::move(table));
    result.queries.push_back(qr);
  }
  uint32_t remote = 0, fused = 0, local = 0, hits = 0;
  if (!r.U32(&remote) || !r.U32(&fused) || !r.U32(&local) || !r.U32(&hits) ||
      !r.AtEnd()) {
    return DataLoss("batch response: truncated counters");
  }
  result.remote_queries = static_cast<int>(remote);
  result.fused_groups = static_cast<int>(fused);
  result.local_resolved = static_cast<int>(local);
  result.cache_hits = static_cast<int>(hits);
  return result;
}

// --- DataServerNode ---

DataServerNode::DataServerNode(NodeOptions options)
    : options_(std::move(options)) {}

Status DataServerNode::AddSource(const SourceSpec& spec) {
  auto hosted = std::make_shared<Hosted>();
  hosted->caches = std::make_shared<dashboard::CacheStack>(
      options_.cache, options_.literal_cache);
  hosted->caches->shared = options_.shared_tier;
  hosted->service = std::make_shared<dashboard::QueryService>(spec.backend,
                                                              hosted->caches);
  VIZQ_RETURN_IF_ERROR(hosted->service->RegisterView(spec.view));
  if (!spec.domains.empty()) {
    hosted->service->SetDomains(spec.view.name, spec.domains);
  }
  std::lock_guard<std::mutex> lock(mu_);
  hosted_[spec.view.name] = std::move(hosted);  // re-add replaces
  return OkStatus();
}

bool DataServerNode::RemoveSource(const std::string& view) {
  std::lock_guard<std::mutex> lock(mu_);
  return hosted_.erase(view) > 0;
}

bool DataServerNode::Serves(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hosted_.count(view) > 0;
}

std::vector<std::string> DataServerNode::HostedViews() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> views;
  views.reserve(hosted_.size());
  for (const auto& [view, hosted] : hosted_) views.push_back(view);
  return views;
}

std::shared_ptr<DataServerNode::Hosted> DataServerNode::FindHosted(
    const std::string& view) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosted_.find(view);
  return it == hosted_.end() ? nullptr : it->second;
}

Status DataServerNode::AcquireSlot(const ExecContext& ctx) {
  const int cap = std::max(1, options_.cpu_slots);
  std::unique_lock<std::mutex> lock(slots_mu_);
  while (slots_in_use_ >= cap) {
    VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("node cpu slot"));
    // Short waits so cancellation/deadline is observed promptly even when
    // no release wakes us.
    slots_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  ++slots_in_use_;
  return OkStatus();
}

void DataServerNode::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    --slots_in_use_;
  }
  slots_cv_.notify_one();
}

rpc::RpcResponse DataServerNode::Handle(const ExecContext& ctx,
                                        const rpc::RpcRequest& request) {
  if (request.method == "execute_batch") return ExecuteBatchRpc(ctx, request);
  rpc::RpcResponse resp;
  resp.code = StatusCode::kUnimplemented;
  resp.message = "node " + options_.id + ": unknown method '" +
                 request.method + "'";
  return resp;
}

rpc::RpcResponse DataServerNode::ExecuteBatchRpc(
    const ExecContext& ctx, const rpc::RpcRequest& request) {
  rpc::RpcResponse resp;
  auto fail = [&resp](const Status& s) {
    resp.code = s.code();
    resp.message = s.message();
    return resp;
  };

  auto decoded = DecodeBatchRequest(request.payload);
  if (!decoded.ok()) return fail(decoded.status());
  const std::vector<query::AbstractQuery>& batch = decoded->first;
  const WireBatchOptions& wire = decoded->second;

  // Partition by view, preserving original positions. A view this node
  // does not host is a *stale placement* answer (kFailedPrecondition):
  // the caller's routing table lags a rebalance/failover, and the
  // retrying channel re-resolves the owner. It is deliberately distinct
  // from kNotFound, which means the view does not exist anywhere and
  // passes through to the client verbatim.
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.size(); ++i) groups[batch[i].view].push_back(i);
  std::map<std::string, std::shared_ptr<Hosted>> services;
  for (const auto& [view, positions] : groups) {
    auto hosted = FindHosted(view);
    if (hosted == nullptr) {
      return fail(FailedPrecondition("node " + options_.id +
                                     " does not host view '" + view + "'"));
    }
    services[view] = std::move(hosted);
  }

  Status slot = AcquireSlot(ctx);
  if (!slot.ok()) return fail(slot);
  struct SlotGuard {
    DataServerNode* node;
    ~SlotGuard() { node->ReleaseSlot(); }
  } slot_guard{this};

  const auto start = std::chrono::steady_clock::now();
  NodeBatchResult out;
  out.results.resize(batch.size());
  out.queries.resize(batch.size());

  for (const auto& [view, positions] : groups) {
    std::vector<query::AbstractQuery> sub;
    sub.reserve(positions.size());
    for (size_t pos : positions) sub.push_back(batch[pos]);

    dashboard::BatchOptions opts = options_.batch;
    opts.cache_only = wire.cache_only;
    opts.max_result_age_ms = wire.max_result_age_ms;
    opts.cache_exact_only = wire.cache_exact_only;
    opts.session_id = wire.session_id;
    opts.priority = wire.priority;
    opts.node_id = options_.id;
    opts.compiler.temp_namespace = options_.id;

    dashboard::BatchReport report;
    auto results =
        services[view]->service->ExecuteBatch(ctx, sub, opts, &report);
    if (!results.ok()) return fail(results.status());  // typed, no partials

    for (size_t k = 0; k < positions.size(); ++k) {
      out.results[positions[k]] = std::move((*results)[k]);
      if (k < report.queries.size()) {
        out.queries[positions[k]] = report.queries[k];
      }
    }
    out.remote_queries += report.remote_queries;
    out.fused_groups += report.fused_groups;
    out.local_resolved += report.local_resolved;
    out.cache_hits += report.cache_hits;
  }

  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  batches_served_.fetch_add(1, std::memory_order_relaxed);
  ctx.Count(obs::Labeled("rpc.node.batches", "node", options_.id));
  ctx.Observe(obs::Labeled("rpc.node.ms", "node", options_.id), ms);

  resp.payload = EncodeBatchResponse(out);
  return resp;
}

}  // namespace vizq::cluster
