// The three serving workloads: inputs generated from the seed, and the
// serving stack each one sets up. README.md gives each workload's purpose
// and sizes; the constants live in workloads.cc.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "servebench/seams.h"
#include "src/cache/intelligent_cache.h"
#include "src/cluster/coordinator.h"
#include "src/dashboard/query_service.h"
#include "src/server/frontend.h"
#include "src/tde/storage/database.h"

namespace servebench {

enum class WorkloadKind { kExploreExtract, kSharedDashboards, kLiveCluster };
const char* WorkloadName(WorkloadKind kind);
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

struct WorkloadSizes {
  int64_t rows = 0;           // flights in the fact table
  int clients = 0;            // closed-loop client threads (capped at nproc)
  int workbooks = 0;          // published Fig. 1 workbooks sessions pick from
  double zipf_s = 0;          // workbook popularity skew (0 = uniform)
  int warmup_interactions = 0;  // untimed replay before timing, all clients
  // Interactions in each client's timed trace. A client that reaches the
  // end of its trace starts it again, so the length bounds memory, not
  // the rate a run may reach.
  int64_t trace_per_client = 0;
};
WorkloadSizes SizesFor(WorkloadKind kind);

// One click: the dirty zones' queries of one session step.
struct Interaction {
  uint64_t session_id = 0;
  bool opens_session = false;
  std::vector<vizq::query::AbstractQuery> batch;
};
using ClientTrace = std::vector<Interaction>;

// Everything generated from the seed before set-up starts.
struct Inputs {
  WorkloadKind kind = WorkloadKind::kExploreExtract;
  WorkloadSizes sizes;
  std::string flights_csv;   // explore_extract: the text file
  std::string carriers_csv;  // explore_extract: reference dimension
  std::shared_ptr<vizq::tde::Database> db;  // the others: generated extract
  std::vector<vizq::query::ViewDefinition> views;  // views the queries name
  std::vector<ClientTrace> warmup;  // per client, replayed untimed
  std::vector<ClientTrace> timed;   // per client, replayed by timed windows
  // Held-out queries (a separate seed stream) for the cache miss probe.
  std::vector<vizq::query::AbstractQuery> probes;
};

// `clients` is the workload's client count after the nproc cap.
vizq::StatusOr<Inputs> GenerateInputs(WorkloadKind kind, uint64_t seed,
                                      int clients);

// Public stats of the deployment at one instant; per-layer metrics are
// deltas of two snapshots.
struct StatsSnapshot {
  int64_t cache_entries = 0;
  int64_t cache_bytes = 0;
  int64_t cache_evictions = 0;
  int64_t sched_interactive = 0;
  int64_t sched_shed = 0;
  int64_t pool_waits = 0;
  int64_t connects = 0;
  int64_t rpc_calls = 0;
  int64_t rpc_bytes = 0;
  int64_t rpc_transport_errors = 0;
  int64_t rpc_retries = 0;
  double rpc_net_ms = 0;
  int64_t shared_gets = 0;
  int64_t shared_hits = 0;
  std::vector<int64_t> node_batches;
};

struct ExtractTimes {
  double parse_ms = 0;
  double build_ms = 0;
};

// One set-up serving stack: Frontend over a (seam-wrapped) executor over
// caches and a data source.
class Deployment {
 public:
  Deployment(const Inputs& inputs, SpanLog* log);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Builds the stack from the generated inputs (the extract, caches,
  // services, cluster). Warm-up is the caller's.
  vizq::Status Build(ExtractTimes* times);

  // explore_extract gives each analyst session a fresh stack; the load
  // generator calls this, untimed, before a session's first interaction.
  void BeginSession(int client);

  vizq::StatusOr<std::vector<vizq::ResultTable>> Serve(
      int client, const Interaction& interaction, const vizq::ExecContext& ctx,
      vizq::server::ServeReport* report);

  StatsSnapshot Snapshot() const;

  // Returns-to-baseline checks over public accessors: admission in-flight,
  // pool leases, connection executes in flight. Empty when all hold.
  std::vector<std::string> CheckResources();

  // The data the workload's queries read, for the reference check.
  std::shared_ptr<vizq::tde::Database> data() const { return data_; }

  // The cache the miss probe measures (null where no public cache exists).
  vizq::cache::IntelligentCache* probe_cache();

 private:
  struct SessionStack {
    std::shared_ptr<vizq::dashboard::CacheStack> caches;
    std::unique_ptr<vizq::dashboard::QueryService> service;
    std::unique_ptr<SeamExecutor> seam;
    std::unique_ptr<vizq::server::Frontend> frontend;
  };
  vizq::StatusOr<SessionStack> MakeStack(
      std::shared_ptr<vizq::federation::DataSource> source,
      vizq::cache::IntelligentCacheOptions cache_options,
      vizq::cache::LiteralCacheOptions literal_options);
  void RetireSession(SessionStack* stack);
  // Admission in-flight and pool leases of one stack; appends problems.
  static void CheckStack(SessionStack& stack, const std::string& what,
                         std::vector<std::string>* problems);

  const Inputs& inputs_;
  SpanLog* log_;
  std::shared_ptr<vizq::tde::Database> data_;
  // Single-node workloads: one stack per client (explore_extract) or one
  // shared stack (shared_dashboards).
  std::shared_ptr<vizq::federation::DataSource> source_;
  std::vector<SessionStack> stacks_;
  // Totals of session stacks already retired; clients retire their own
  // stacks concurrently.
  mutable std::mutex retired_mu_;
  int64_t retired_evictions_ = 0;
  std::vector<std::string> retired_problems_;
  // live_cluster. The node seams are registered as the transport's
  // endpoints, so they are declared first and outlive the coordinator.
  std::vector<std::unique_ptr<SeamHandler>> node_seams_;
  std::vector<std::string> node_ids_;
  std::unique_ptr<vizq::cluster::ClusterCoordinator> cluster_;
  std::unique_ptr<SeamExecutor> cluster_seam_;
  std::unique_ptr<vizq::server::Frontend> cluster_frontend_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
