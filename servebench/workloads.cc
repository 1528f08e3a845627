#include "servebench/workloads.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/common/scheduler.h"
#include "src/extract/shadow_extract.h"
#include "src/federation/simulated_source.h"
#include "src/obs/metrics.h"
#include "src/workload/faa_generator.h"
#include "src/workload/flights_dashboards.h"
#include "src/workload/sessions.h"

namespace servebench {

using vizq::Status;
using vizq::StatusOr;

namespace {

constexpr const char* kNames[] = {"explore_extract", "shared_dashboards",
                                  "live_cluster"};

// Sub-seeds: each generated input draws from its own stream of the run
// seed, so changing one input's size leaves the others unchanged.
enum Stream : uint64_t {
  kDataStream = 1,
  kTimedStream = 2,
  kWarmupStream = 3,
  kProbeStream = 4,
};
uint64_t SubSeed(uint64_t seed, Stream stream) {
  return vizq::HashCombine(vizq::HashCombine(0x5e4eb, seed), stream);
}

// Interactions per session, the open included. Every session has this
// length, so each run holds the same share of cold opens.
constexpr int kSessionSteps = 6;
// shared_dashboards: the byte cap of its intelligent and literal caches,
// below the working set of distinct results.
constexpr int64_t kSharedCacheBytes = 128 * 1024;
// live_cluster: nodes behind the coordinator.
constexpr int kClusterNodes = 3;

// The live_cluster source of workbook `w`: its own view name, an alias of
// the flights star view, so placement routes each workbook separately.
std::string AliasView(int w) { return "flights_star_wb" + std::to_string(w); }

// Whole sessions, at least `per_client` interactions per client, so a
// trace ends where a session ends and replaying it from the start opens
// a new session.
vizq::StatusOr<std::vector<ClientTrace>> GenerateTraces(
    const std::vector<vizq::workload::Workbook>& workbooks,
    const WorkloadSizes& sizes, WorkloadKind kind, int clients,
    int64_t per_client, uint64_t seed) {
  vizq::ZipfDistribution zipf(workbooks.size(), sizes.zipf_s);
  std::vector<ClientTrace> traces(clients);
  for (int c = 0; c < clients; ++c) {
    vizq::Rng rng(vizq::HashCombine(seed, static_cast<uint64_t>(c)));
    uint64_t session_no = 0;
    ClientTrace& trace = traces[c];
    trace.reserve(static_cast<size_t>(per_client));
    while (static_cast<int64_t>(trace.size()) < per_client) {
      int w = static_cast<int>(zipf.Sample(rng));
      uint64_t session_id =
          (static_cast<uint64_t>(c + 1) << 32) | ++session_no;
      // Think times are generated but ignored: the loop is closed with
      // zero think time.
      vizq::workload::SessionProfile profile;
      profile.p_leave = 0;
      profile.max_steps = kSessionSteps;
      vizq::workload::Session session(session_id, &workbooks[w], profile,
                                      rng.Next());
      bool first = true;
      while (auto step = session.Next()) {
        VIZQ_ASSIGN_OR_RETURN(std::vector<vizq::query::AbstractQuery> batch,
                              session.BuildBatch(*step));
        if (kind == WorkloadKind::kLiveCluster) {
          for (vizq::query::AbstractQuery& q : batch) {
            q.data_source = AliasView(w);
            q.view = AliasView(w);
          }
        }
        trace.push_back(Interaction{session_id, first, std::move(batch)});
        first = false;
      }
    }
  }
  return traces;
}

int64_t ProcessPoolWaits() {
  return vizq::obs::GlobalMetrics().GetCounter("pool.waits").value();
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  return kNames[static_cast<int>(kind)];
}

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (int i = 0; i < 3; ++i) {
    if (name == kNames[i]) {
      *kind = static_cast<WorkloadKind>(i);
      return true;
    }
  }
  return false;
}

WorkloadSizes SizesFor(WorkloadKind kind) {
  WorkloadSizes s;
  switch (kind) {
    case WorkloadKind::kExploreExtract:
      s.rows = 80000;
      s.clients = 1;
      s.workbooks = 4;
      s.zipf_s = 0;
      s.warmup_interactions = 40;
      s.trace_per_client = 1800;
      break;
    case WorkloadKind::kSharedDashboards:
      s.rows = 50000;
      s.clients = 4;
      s.workbooks = 16;
      s.zipf_s = 1.0;
      s.warmup_interactions = 600;
      s.trace_per_client = 1200;
      break;
    case WorkloadKind::kLiveCluster:
      s.rows = 50000;
      s.clients = 4;
      s.workbooks = 8;
      s.zipf_s = 1.0;
      s.warmup_interactions = 400;
      s.trace_per_client = 600;
      break;
  }
  return s;
}

StatusOr<Inputs> GenerateInputs(WorkloadKind kind, uint64_t seed,
                                int clients) {
  Inputs in;
  in.kind = kind;
  in.sizes = SizesFor(kind);

  vizq::workload::FaaOptions faa;
  faa.num_flights = in.sizes.rows;
  faa.seed = SubSeed(seed, kDataStream);
  if (kind == WorkloadKind::kExploreExtract) {
    VIZQ_ASSIGN_OR_RETURN(in.flights_csv, vizq::workload::GenerateFaaCsv(faa));
    in.carriers_csv = "code,airline_name\n";
    const auto& codes = vizq::workload::FaaCarrierCodes();
    const auto& names = vizq::workload::FaaAirlineNames();
    for (int i = 0; i < faa.num_carriers; ++i) {
      in.carriers_csv += codes[i] + "," + names[i] + "\n";
    }
  } else {
    VIZQ_ASSIGN_OR_RETURN(in.db, vizq::workload::GenerateFaaDatabase(faa));
  }

  const std::string source = WorkloadName(kind);
  // BuildWorkbookSet alternates the Fig. 1 and Fig. 2 layouts (even and
  // odd indices). Every workload keeps only Fig. 1 workbooks (5 to 9 zones
  // a click), so the median falls inside one kind of interaction rather
  // than between one-zone and nine-zone clicks.
  std::vector<vizq::workload::Workbook> both =
      vizq::workload::BuildWorkbookSet(source, 2 * in.sizes.workbooks);
  std::vector<vizq::workload::Workbook> workbooks;
  for (size_t i = 0; i < both.size(); i += 2) {
    workbooks.push_back(std::move(both[i]));
  }
  // BuildWorkbookSet's baseline quick filter drops carrier i mod 14, which
  // repeats across the even indices and may name a carrier the data lacks.
  // Each workbook here keeps every generated carrier but its own pair:
  // a = w mod n and a + 1 + w / n (mod n), pairs one or two apart. For
  // n > 4 they are distinct while w < 2n, and baselines of one size never
  // contain one another, so no two workbooks share a cache keyspace until
  // a session's quick filter replaces the baseline.
  const int n = faa.num_carriers;
  if (in.sizes.workbooks > 2 * n) {
    return vizq::InvalidArgument("more workbooks than distinct baselines");
  }
  const std::vector<std::string>& codes = vizq::workload::FaaCarrierCodes();
  for (int w = 0; w < in.sizes.workbooks; ++w) {
    const int a = w % n;
    const int b = (a + 1 + w / n) % n;
    std::vector<vizq::Value> kept;
    for (int c = 0; c < n; ++c) {
      if (c != a && c != b) kept.push_back(vizq::Value(codes[c]));
    }
    workbooks[w].base_state.SetQuickFilter("carrier", std::move(kept));
  }
  if (kind == WorkloadKind::kLiveCluster) {
    for (int w = 0; w < in.sizes.workbooks; ++w) {
      vizq::query::ViewDefinition view = vizq::workload::FlightsStarView();
      view.name = AliasView(w);
      in.views.push_back(view);
    }
  } else {
    in.views.push_back(vizq::workload::FlightsStarView());
  }

  VIZQ_ASSIGN_OR_RETURN(in.timed,
                        GenerateTraces(workbooks, in.sizes, kind, clients,
                                       in.sizes.trace_per_client,
                                       SubSeed(seed, kTimedStream)));
  int64_t warm_per_client =
      (in.sizes.warmup_interactions + clients - 1) / clients;
  VIZQ_ASSIGN_OR_RETURN(in.warmup,
                        GenerateTraces(workbooks, in.sizes, kind, clients,
                                       warm_per_client,
                                       SubSeed(seed, kWarmupStream)));
  VIZQ_ASSIGN_OR_RETURN(std::vector<ClientTrace> probe_traces,
                        GenerateTraces(workbooks, in.sizes, kind, 1, 400,
                                       SubSeed(seed, kProbeStream)));
  for (Interaction& it : probe_traces[0]) {
    for (vizq::query::AbstractQuery& q : it.batch) {
      in.probes.push_back(std::move(q));
    }
  }
  return in;
}

Deployment::Deployment(const Inputs& inputs, SpanLog* log)
    : inputs_(inputs), log_(log) {}

Deployment::~Deployment() = default;

StatusOr<Deployment::SessionStack> Deployment::MakeStack(
    std::shared_ptr<vizq::federation::DataSource> source,
    vizq::cache::IntelligentCacheOptions cache_options,
    vizq::cache::LiteralCacheOptions literal_options) {
  SessionStack stack;
  stack.caches = std::make_shared<vizq::dashboard::CacheStack>(
      cache_options, literal_options);
  stack.service = std::make_unique<vizq::dashboard::QueryService>(
      std::move(source), stack.caches);
  for (const vizq::query::ViewDefinition& view : inputs_.views) {
    VIZQ_RETURN_IF_ERROR(stack.service->RegisterView(view));
  }
  stack.seam = std::make_unique<SeamExecutor>(stack.service.get(), log_);
  stack.frontend = std::make_unique<vizq::server::Frontend>(stack.seam.get());
  return stack;
}

Status Deployment::Build(ExtractTimes* times) {
  const WorkloadSizes& sizes = inputs_.sizes;
  switch (inputs_.kind) {
    case WorkloadKind::kExploreExtract: {
      auto db = std::make_shared<vizq::tde::Database>("extracts");
      vizq::extract::ShadowExtractManager extracts(db);
      vizq::extract::ExtractOptions options;
      options.sort_by = {"carrier", "fl_date"};
      vizq::extract::ExtractStats stats;
      VIZQ_RETURN_IF_ERROR(
          extracts.ExtractCsv("flights", inputs_.flights_csv, options, &stats)
              .status());
      vizq::extract::ExtractStats dim_stats;
      VIZQ_RETURN_IF_ERROR(
          extracts.ExtractCsv("carriers", inputs_.carriers_csv, {}, &dim_stats)
              .status());
      if (times != nullptr) {
        times->parse_ms = stats.parse_ms + dim_stats.parse_ms;
        times->build_ms = stats.build_ms + dim_stats.build_ms;
      }
      data_ = db;
      source_ = std::make_shared<SeamSource>(
          std::make_shared<vizq::federation::TdeDataSource>(
              WorkloadName(inputs_.kind), db),
          Layer::kTde, log_);
      // Session stacks are built per analyst session (BeginSession).
      stacks_.resize(inputs_.timed.size());
      return vizq::OkStatus();
    }
    case WorkloadKind::kSharedDashboards: {
      data_ = inputs_.db;
      source_ = std::make_shared<SeamSource>(
          std::make_shared<vizq::federation::TdeDataSource>(
              WorkloadName(inputs_.kind), inputs_.db),
          Layer::kTde, log_);
      // Both caches run full: the literal cache would otherwise keep every
      // SQL text the run ever sent and its hit rate would climb all run.
      vizq::cache::IntelligentCacheOptions cache_options;
      cache_options.max_bytes = kSharedCacheBytes;
      vizq::cache::LiteralCacheOptions literal_options;
      literal_options.max_bytes = kSharedCacheBytes;
      VIZQ_ASSIGN_OR_RETURN(
          SessionStack stack,
          MakeStack(source_, cache_options, literal_options));
      stacks_.push_back(std::move(stack));
      return vizq::OkStatus();
    }
    case WorkloadKind::kLiveCluster: {
      data_ = inputs_.db;
      vizq::cluster::ClusterOptions options;
      options.num_nodes = kClusterNodes;
      // As many batch slots per node as there are clients: a node never
      // queues batches, so latency follows the backends and the network.
      options.node.cpu_slots = sizes.clients;
      // No result caches on the nodes: every click pays its round trips,
      // so the hit rate cannot drift while the sessions explore.
      options.node.batch.use_intelligent_cache = false;
      options.node.batch.use_literal_cache = false;
      cluster_ = std::make_unique<vizq::cluster::ClusterCoordinator>(options);
      for (int w = 0; w < sizes.workbooks; ++w) {
        vizq::cluster::SourceSpec spec;
        spec.view = inputs_.views[w];
        spec.backend = std::make_shared<SeamSource>(
            vizq::federation::SimulatedDataSource::SingleThreadedSql(
                spec.view.name, inputs_.db),
            Layer::kFederation, log_);
        VIZQ_RETURN_IF_ERROR(cluster_->Publish(spec));
      }
      for (int n = 0; n < kClusterNodes; ++n) {
        std::string id = "n" + std::to_string(n);
        vizq::cluster::DataServerNode* node = cluster_->node(id);
        if (node == nullptr) return vizq::Internal("no cluster node " + id);
        node_seams_.push_back(std::make_unique<SeamHandler>(node, log_));
        cluster_->transport().RegisterEndpoint(id, node_seams_.back().get());
        node_ids_.push_back(id);
      }
      cluster_seam_ = std::make_unique<SeamExecutor>(cluster_.get(), log_);
      cluster_frontend_ =
          std::make_unique<vizq::server::Frontend>(cluster_seam_.get());
      return vizq::OkStatus();
    }
  }
  return vizq::Internal("unknown workload");
}

void Deployment::CheckStack(SessionStack& stack, const std::string& what,
                            std::vector<std::string>* problems) {
  if (stack.service == nullptr) return;
  int64_t inflight = stack.frontend->admission().stats().inflight;
  if (inflight != 0) {
    problems->push_back(what + ": admission in-flight " +
                        std::to_string(inflight));
  }
  vizq::federation::ConnectionPool& pool = stack.service->pool();
  int leased = pool.size() - pool.idle();
  if (leased != 0) {
    problems->push_back(what + ": " + std::to_string(leased) +
                        " pool leases not returned");
  }
}

void Deployment::RetireSession(SessionStack* stack) {
  if (stack->caches == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_evictions_ += stack->caches->intelligent.stats().evictions;
    CheckStack(*stack, "retired session stack", &retired_problems_);
  }
  *stack = SessionStack();
}

void Deployment::BeginSession(int client) {
  if (inputs_.kind != WorkloadKind::kExploreExtract) return;
  SessionStack& stack = stacks_[client];
  RetireSession(&stack);
  auto fresh = MakeStack(source_, {}, {});
  if (fresh.ok()) stack = *std::move(fresh);
}

StatusOr<std::vector<vizq::ResultTable>> Deployment::Serve(
    int client, const Interaction& interaction, const vizq::ExecContext& ctx,
    vizq::server::ServeReport* report) {
  vizq::server::Frontend* frontend = nullptr;
  switch (inputs_.kind) {
    case WorkloadKind::kExploreExtract:
      frontend = stacks_[client].frontend.get();
      break;
    case WorkloadKind::kSharedDashboards:
      frontend = stacks_[0].frontend.get();
      break;
    case WorkloadKind::kLiveCluster:
      frontend = cluster_frontend_.get();
      break;
  }
  if (frontend == nullptr) {
    return vizq::FailedPrecondition("no serving stack for this client");
  }
  return frontend->Serve(interaction.session_id, ctx, interaction.batch,
                         report);
}

StatsSnapshot Deployment::Snapshot() const {
  StatsSnapshot s;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    s.cache_evictions = retired_evictions_;
  }
  for (const SessionStack& stack : stacks_) {
    if (stack.caches == nullptr) continue;
    s.cache_entries += stack.caches->intelligent.num_entries();
    s.cache_bytes += stack.caches->intelligent.total_bytes();
    s.cache_evictions += stack.caches->intelligent.stats().evictions;
  }
  vizq::Scheduler& sched = vizq::Scheduler::Global();
  s.sched_interactive = sched.submitted(vizq::TaskClass::kInteractive);
  for (int c = 0; c < vizq::kNumTaskClasses; ++c) {
    s.sched_shed += sched.shed(static_cast<vizq::TaskClass>(c));
  }
  s.pool_waits = ProcessPoolWaits();
  s.connects = log_->connects.load();
  if (cluster_ != nullptr) {
    s.rpc_calls = cluster_->transport().calls();
    s.rpc_bytes = cluster_->transport().bytes_moved();
    s.rpc_transport_errors = cluster_->transport().transport_errors();
    s.rpc_retries = cluster_->retries();
    s.rpc_net_ms = cluster_->transport().net().simulated_ms();
    if (cluster_->shared_tier() != nullptr) {
      s.shared_gets = cluster_->shared_tier()->gets();
      s.shared_hits = cluster_->shared_tier()->hits();
    }
    for (const std::string& id : node_ids_) {
      s.node_batches.push_back(cluster_->node(id)->batches_served());
    }
  }
  return s;
}

std::vector<std::string> Deployment::CheckResources() {
  std::vector<std::string> problems;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    problems = retired_problems_;
  }
  for (size_t i = 0; i < stacks_.size(); ++i) {
    CheckStack(stacks_[i], "stack " + std::to_string(i), &problems);
  }
  if (cluster_frontend_ != nullptr) {
    int64_t inflight = cluster_frontend_->admission().stats().inflight;
    if (inflight != 0) {
      problems.push_back("cluster frontend: admission in-flight " +
                         std::to_string(inflight));
    }
  }
  int64_t executing = log_->executes_in_flight.load();
  if (executing != 0) {
    problems.push_back(std::to_string(executing) +
                       " connection executes still in flight");
  }
  return problems;
}

vizq::cache::IntelligentCache* Deployment::probe_cache() {
  for (SessionStack& stack : stacks_) {
    if (stack.caches != nullptr) return &stack.caches->intelligent;
  }
  return nullptr;
}

}  // namespace servebench
