#include "src/server/data_server.h"

namespace vizq::server {

using dashboard::BatchReport;
using query::AbstractQuery;

// --- ServerSession ---

ServerSession::~ServerSession() { Close(); }

Status ServerSession::CreateTempTable(const std::string& name,
                                      const std::string& column,
                                      DataType type,
                                      std::vector<Value> values) {
  if (closed_) return FailedPrecondition("session is closed");
  if (temps_.find(name) != temps_.end()) {
    return AlreadyExists("temp table '" + name + "' exists in this session");
  }
  if (!server_->options_.enable_in_memory_temp_tables) {
    return Unimplemented("in-memory temp tables are disabled on this server");
  }
  query::TempTableSpec spec;
  spec.name = name;
  spec.column = "v";
  spec.source_column = column;
  spec.type = type;
  spec.values = std::move(values);
  temps_[name] =
      server_->temp_registry_.Acquire(spec, server_->options_.node_id);
  return OkStatus();
}

Status ServerSession::DropTempTable(const std::string& name) {
  auto it = temps_.find(name);
  if (it == temps_.end()) {
    return NotFound("temp table '" + name + "' not found");
  }
  server_->temp_registry_.Release(it->second);
  temps_.erase(it);
  return OkStatus();
}

bool ServerSession::HasTempTable(const std::string& name) const {
  return temps_.find(name) != temps_.end();
}

StatusOr<ResultTable> ServerSession::Query(const ExecContext& ctx,
                                           const ClientQuery& q,
                                           BatchReport* report) {
  if (closed_) return FailedPrecondition("session is closed");
  return server_->ExecuteForSession(ctx, this, q, report);
}

StatusOr<std::vector<ResultTable>> ServerSession::QueryBatch(
    const ExecContext& ctx, const std::vector<ClientQuery>& batch,
    BatchReport* report) {
  if (closed_) return FailedPrecondition("session is closed");
  return server_->ExecuteBatchForSession(ctx, this, batch, report);
}

void ServerSession::Close() {
  if (closed_) return;
  closed_ = true;
  for (auto& [name, def] : temps_) {
    server_->temp_registry_.Release(def);
  }
  temps_.clear();
}

// --- DataServer ---

Status DataServer::Publish(PublishedDataSource source,
                           std::shared_ptr<federation::DataSource> backend) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sources_.find(source.name) != sources_.end()) {
    return AlreadyExists("data source '" + source.name +
                         "' is already published");
  }
  Published published;
  published.caches = std::make_shared<dashboard::CacheStack>();
  published.service = std::make_unique<dashboard::QueryService>(
      backend, published.caches);
  // The published view is registered under the published source's name so
  // client queries address it uniformly.
  query::ViewDefinition view = source.view;
  view.name = source.name;
  VIZQ_RETURN_IF_ERROR(published.service->RegisterView(view));
  published.source = std::move(source);
  sources_.emplace(published.source.name, std::move(published));
  return OkStatus();
}

StatusOr<std::unique_ptr<ServerSession>> DataServer::Connect(
    const std::string& user, const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    return NotFound("published data source '" + source + "' not found");
  }
  const PublishedDataSource& pds = it->second.source;
  if (pds.permissions.deny_unlisted_users() &&
      !pds.permissions.HasUser(user)) {
    return FailedPrecondition("user '" + user + "' has no access to '" +
                              source + "'");
  }
  SourceMetadata metadata;
  metadata.source_name = source;
  const query::QueryCompiler* compiler =
      it->second.service->FindCompiler(source);
  if (compiler != nullptr) {
    for (const auto& [name, type] : compiler->view_columns()) {
      metadata.columns.push_back(ResultColumn{name, type});
    }
    metadata.supports_temp_tables =
        options_.enable_in_memory_temp_tables;
  }
  for (const auto& [name, calc] : pds.calculations) {
    metadata.calculation_names.push_back(name);
  }
  // Connect has no per-request context; session churn is a process-level
  // fact, so it goes straight to the global registry.
  if (GlobalMetricsSink* sink = GetGlobalMetricsSink(); sink != nullptr) {
    sink->Add("server.connects", 1);
  }
  return std::unique_ptr<ServerSession>(
      new ServerSession(this, source, user, std::move(metadata)));
}

std::vector<std::string> DataServer::ListSources() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, published] : sources_) out.push_back(name);
  return out;
}

dashboard::QueryService* DataServer::ServiceForTesting(
    const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : it->second.service.get();
}

StatusOr<AbstractQuery> DataServer::ResolveClientQuery(ServerSession* session,
                                                       const ClientQuery& q) {
  AbstractQuery resolved = q.query;
  resolved.view = session->source_;
  resolved.data_source = session->source_;

  // Expand temp-table references into their server-held enumerations
  // (§5.3: the client sends the name, not the values, "reduced network
  // traffic between the client and the Data Server").
  for (const auto& [column, temp_name] : q.temp_filters) {
    auto it = session->temps_.find(temp_name);
    if (it == session->temps_.end()) {
      return NotFound("session has no temp table '" + temp_name + "'");
    }
    resolved.filters.predicates.push_back(
        query::ColumnPredicate::InSet(column, it->second->values));
    {
      std::lock_guard<std::mutex> lock(mu_);
      values_saved_ += static_cast<int64_t>(it->second->values.size());
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto sit = sources_.find(session->source_);
  if (sit == sources_.end()) {
    return NotFound("published data source vanished");
  }
  const PublishedDataSource& pds = sit->second.source;

  // Expand shared calculations referenced by name.
  for (query::Measure& m : resolved.measures) {
    if (m.column.empty() && m.func == AggFunc::kCountStar) continue;
    auto cit = pds.calculations.find(m.column);
    if (cit != pds.calculations.end()) {
      std::string alias = m.alias.empty() ? m.column : m.alias;
      m = cit->second;
      m.alias = std::move(alias);
    }
  }

  // Row-level permissions merge into the filters; the user cannot weaken
  // them (Normalize() intersects same-column predicates).
  const query::PredicateSet* user_filter =
      pds.permissions.FilterFor(session->user_);
  if (user_filter != nullptr) {
    for (const query::ColumnPredicate& p : user_filter->predicates) {
      resolved.filters.predicates.push_back(p);
    }
  }
  resolved.Canonicalize();
  return resolved;
}

StatusOr<ResultTable> DataServer::ExecuteForSession(const ExecContext& ctx,
                                                    ServerSession* session,
                                                    const ClientQuery& q,
                                                    BatchReport* report) {
  VIZQ_ASSIGN_OR_RETURN(std::vector<ResultTable> results,
                        ExecuteBatchForSession(ctx, session, {q}, report));
  return std::move(results[0]);
}

StatusOr<std::vector<ResultTable>> DataServer::ExecuteBatchForSession(
    const ExecContext& ctx, ServerSession* session,
    const std::vector<ClientQuery>& batch, BatchReport* report) {
  VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("server batch"));
  ctx.Count("server.batches");
  ctx.Count("server.queries", static_cast<int64_t>(batch.size()));
  if (ctx.tracing_enabled()) {
    ctx.LogEvent("server", "batch source=" + session->source_ + " user=" +
                               session->user_ + " queries=" +
                               std::to_string(batch.size()));
  }
  std::vector<AbstractQuery> resolved;
  resolved.reserve(batch.size());
  int64_t temp_values = 0;
  for (const ClientQuery& q : batch) {
    for (const auto& [column, temp_name] : q.temp_filters) {
      (void)column;
      (void)temp_name;
      ++temp_values;
    }
    VIZQ_ASSIGN_OR_RETURN(AbstractQuery r, ResolveClientQuery(session, q));
    resolved.push_back(std::move(r));
  }
  if (temp_values > 0) {
    ctx.Count("server.temp_filter_expansions", temp_values);
  }
  dashboard::QueryService* service;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sources_.find(session->source_);
    if (it == sources_.end()) {
      return NotFound("published data source vanished");
    }
    service = it->second.service.get();
  }
  return service->ExecuteBatch(ctx, resolved, options_.batch, report);
}

}  // namespace vizq::server
