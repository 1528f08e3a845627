// DataServerNode: one simulated Data Server in the sharded cluster.
//
// A node owns a slice of the published sources (assigned by the
// coordinator's consistent-hash placement) and serves `execute_batch`
// RPCs against them: each hosted source gets its own QueryService and
// per-node cache stack, sitting over the cluster-wide distributed tier
// (the §3.2 Redis/Cassandra layer) so a result computed on any node
// keeps every node warm. A bounded pool of cpu slots models the node's
// compute: batches queue (deadline-aware) for a slot, which is what
// makes aggregate goodput scale as nodes are added.
//
// Node-local state is namespaced by node id: each hosted source compiles
// its temp tables under CompilerOptions::temp_namespace = the node id, so
// two nodes sharing a backend can never observe each other's temps.
//
// A request for a view the node does not host answers
// kFailedPrecondition ("stale placement"): the retrying channel
// re-resolves the owner and roams — this is the window during a
// rebalance where routing and hosting briefly disagree.

#ifndef VIZQUERY_CLUSTER_NODE_H_
#define VIZQUERY_CLUSTER_NODE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/dashboard/query_service.h"
#include "src/rpc/channel.h"

namespace vizq::cluster {

// One published source as the cluster sees it: the view to register and
// the backend to execute against. (Source name == view name.)
struct SourceSpec {
  query::ViewDefinition view;
  std::shared_ptr<federation::DataSource> backend;
  query::ColumnDomains domains;  // may be empty
};

struct NodeOptions {
  std::string id;
  // Concurrent batches this node can execute; further batches wait
  // (deadline-aware) for a slot. The cluster's scaling lever.
  int cpu_slots = 2;
  // Per-source cache sizing on this node.
  cache::IntelligentCacheOptions cache;
  cache::LiteralCacheOptions literal_cache;
  // Template pipeline options; per-request scalars (cache_only, ladder
  // freshness, session) are overridden from the RPC payload.
  dashboard::BatchOptions batch;
  // The cluster-wide cache tier behind every hosted source (may be null).
  std::shared_ptr<cache::DistributedCacheTier> shared_tier;
};

// The scalar batch options that cross the wire with a scattered batch
// (everything else comes from the node's template options).
struct WireBatchOptions {
  bool cache_only = false;
  double max_result_age_ms = -1.0;
  bool cache_exact_only = false;
  uint64_t session_id = 0;
  TaskClass priority = TaskClass::kInteractive;
};

// What one node answered for one scattered batch.
struct NodeBatchResult {
  std::vector<ResultTable> results;  // positional, same order as request
  std::vector<dashboard::QueryReport> queries;
  int remote_queries = 0;
  int fused_groups = 0;
  int local_resolved = 0;
  int cache_hits = 0;
};

// Payload codecs for the "execute_batch" method, shared by the node
// (decode request / encode response) and the coordinator (the reverse).
std::string EncodeBatchRequest(const std::vector<query::AbstractQuery>& batch,
                               const WireBatchOptions& options);
StatusOr<std::pair<std::vector<query::AbstractQuery>, WireBatchOptions>>
DecodeBatchRequest(const std::string& payload);
std::string EncodeBatchResponse(const NodeBatchResult& result);
StatusOr<NodeBatchResult> DecodeBatchResponse(const std::string& payload);

class DataServerNode : public rpc::RpcHandler {
 public:
  explicit DataServerNode(NodeOptions options);

  const std::string& id() const { return options_.id; }

  // Source management (called by the coordinator under its placement
  // lock; also safe concurrently with Handle()).
  Status AddSource(const SourceSpec& spec);
  bool RemoveSource(const std::string& view);
  bool Serves(const std::string& view) const;
  std::vector<std::string> HostedViews() const;

  // rpc::RpcHandler: "execute_batch" over hosted sources.
  rpc::RpcResponse Handle(const ExecContext& ctx,
                          const rpc::RpcRequest& request) override;

  int64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Hosted {
    std::shared_ptr<dashboard::CacheStack> caches;
    std::shared_ptr<dashboard::QueryService> service;
  };

  // Blocks until a cpu slot frees or the deadline passes.
  Status AcquireSlot(const ExecContext& ctx);
  void ReleaseSlot();

  std::shared_ptr<Hosted> FindHosted(const std::string& view) const;

  rpc::RpcResponse ExecuteBatchRpc(const ExecContext& ctx,
                                   const rpc::RpcRequest& request);

  NodeOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Hosted>> hosted_;  // by view name

  std::mutex slots_mu_;
  std::condition_variable slots_cv_;
  int slots_in_use_ = 0;

  std::atomic<int64_t> batches_served_{0};
};

}  // namespace vizq::cluster

#endif  // VIZQUERY_CLUSTER_NODE_H_
