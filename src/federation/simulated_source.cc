#include "src/federation/simulated_source.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace vizq::federation {

void SleepMs(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

Status SleepMsCancellable(double ms, const ExecContext& ctx,
                          const std::string& what) {
  constexpr double kSliceMs = 2.0;
  double left = ms;
  while (left > 0) {
    VIZQ_RETURN_IF_ERROR(ctx.CheckContinue(what.c_str()));
    double slice = std::min(left, kSliceMs);
    SleepMs(slice);
    left -= slice;
  }
  return ctx.CheckContinue(what.c_str());
}

namespace {

class SimulatedConnection : public Connection {
 public:
  SimulatedConnection(SimulatedDataSource* source,
                      std::shared_ptr<tde::Database> base)
      : source_(source),
        session_db_(std::make_shared<tde::Database>(*base)),
        engine_(session_db_) {
    (void)session_db_->CreateSchema(tde::kTempSchema);
  }

  ~SimulatedConnection() override { Close(); }

  using Connection::Execute;

  StatusOr<ResultTable> Execute(const query::CompiledQuery& cq,
                                ExecutionInfo* info,
                                const ExecContext& ctx) override {
    if (closed_) return FailedPrecondition("connection is closed");
    auto started = std::chrono::steady_clock::now();
    const PerformanceModel& m = source_->model();
    ScopedSpan span(ctx.StartSpan("remote:" + source_->name()));
    ExecContext remote_ctx = ctx.WithSpan(span.get());

    // Temp tables required by this query (created lazily, reused when the
    // session already holds them — the §3.5 pooling benefit).
    for (const query::TempTableSpec& spec : cq.temp_tables) {
      if (HasTempTable(spec.name)) {
        if (info != nullptr) info->reused_temp_table = true;
      } else {
        VIZQ_RETURN_IF_ERROR(CreateTempTable(spec));
      }
    }

    // Request travels to the server.
    VIZQ_RETURN_IF_ERROR(
        SleepMsCancellable(m.network_rtt_ms, ctx, "simulated request send"));

    // Server-side admission throttle (§3.5: "the database is likely to
    // throttle them based on available resources or a hard-coded
    // threshold").
    VIZQ_ASSIGN_OR_RETURN(double queue_ms, source_->AdmitQuery(ctx));
    ctx.Observe("remote.queue_ms", queue_ms);
    if (queue_ms >= 1.0 && ctx.tracing_enabled()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", queue_ms);
      ctx.LogEvent("remote", "admission-queued source=" + source_->name() +
                                 " wait_ms=" + buf);
    }

    // Execute for real (serially; the timing model below charges the
    // architecture-dependent cost).
    tde::QueryOptions exec = tde::QueryOptions::Serial();
    auto result = engine_.Execute(cq.plan, exec, remote_ctx);
    if (!result.ok()) {
      source_->FinishQuery();
      return result.status();
    }

    // CPU-bound work: rows scanned divided by the CPU slots this query
    // obtains. A single-thread-per-query engine gets exactly one slot;
    // parallel-plan engines get up to max_parallel_per_query idle slots.
    int want = source_->capabilities().single_thread_per_query
                   ? 1
                   : m.max_parallel_per_query;
    int got = source_->AcquireCpuSlots(want);
    double work_ms =
        m.dispatch_ms +
        static_cast<double>(result->stats->rows_scanned) /
            (m.rows_per_ms * static_cast<double>(got));
    Status worked = SleepMsCancellable(work_ms, ctx, "simulated query work");
    source_->ReleaseCpuSlots(got);
    source_->FinishQuery();
    VIZQ_RETURN_IF_ERROR(worked);

    // Results stream back.
    double transfer_ms =
        m.network_rtt_ms + static_cast<double>(result->table.num_rows()) /
                               m.rows_per_ms_network;
    VIZQ_RETURN_IF_ERROR(
        SleepMsCancellable(transfer_ms, ctx, "simulated result transfer"));

    if (info != nullptr) {
      info->total_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - started)
              .count();
      info->queue_ms = queue_ms;
      info->rows_returned = result->table.num_rows();
    }
    return std::move(result->table);
  }

  Status CreateTempTable(const query::TempTableSpec& spec) override {
    if (closed_) return FailedPrecondition("connection is closed");
    const PerformanceModel& m = source_->model();
    // Upload the enumeration + session DDL.
    SleepMs(m.network_rtt_ms + m.session_ddl_lock_ms +
            m.temp_table_row_ms * static_cast<double>(spec.values.size()));
    tde::TableBuilder builder(spec.name,
                              {tde::ColumnInfo{spec.column, spec.type}});
    for (const Value& v : spec.values) {
      VIZQ_RETURN_IF_ERROR(builder.AddRow({v}));
    }
    VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<tde::Table> table, builder.Finish());
    return session_db_->AddTable(tde::kTempSchema, std::move(table));
  }

  bool HasTempTable(const std::string& name) const override {
    return session_db_->GetTable(tde::kTempSchema, name).ok();
  }

  Status DropTempTable(const std::string& name) override {
    return session_db_->DropTable(tde::kTempSchema, name);
  }

  std::vector<std::string> TempTableNames() const override {
    return session_db_->ListTables(tde::kTempSchema);
  }

  void Close() override {
    if (!closed_) {
      closed_ = true;
      source_->ConnectionClosed();
    }
  }

 private:
  SimulatedDataSource* source_;
  std::shared_ptr<tde::Database> session_db_;
  tde::TdeEngine engine_;
  bool closed_ = false;
};

}  // namespace

SimulatedDataSource::SimulatedDataSource(std::string name,
                                         std::shared_ptr<tde::Database> db,
                                         PerformanceModel model,
                                         query::Capabilities capabilities,
                                         query::SqlDialect dialect)
    : name_(std::move(name)),
      db_(std::move(db)),
      model_(model),
      capabilities_(std::move(capabilities)),
      dialect_(std::move(dialect)) {}

StatusOr<std::unique_ptr<Connection>> SimulatedDataSource::Connect() {
  bool adopt_warm = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_connections_ >= capabilities_.max_connections) {
      return ResourceExhausted("data source '" + name_ +
                               "' is at its connection limit (" +
                               std::to_string(capabilities_.max_connections) +
                               ")");
    }
    ++open_connections_;
    if (warm_sessions_ > 0) {
      --warm_sessions_;
      adopt_warm = true;  // handshake already paid by the prewarm task
    }
  }
  if (!adopt_warm) SleepMs(model_.connect_ms);
  return std::unique_ptr<Connection>(
      std::make_unique<SimulatedConnection>(this, db_));
}

void SimulatedDataSource::PrewarmAsync(int count, Scheduler* scheduler) {
  if (count <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prewarm_group_ == nullptr) {
      prewarm_group_ = std::make_unique<TaskGroup>(
          scheduler != nullptr ? scheduler : &Scheduler::Global(),
          TaskClass::kBackground);
    }
  }
  for (int i = 0; i < count; ++i) {
    prewarm_group_->Spawn(
        [this] {
          SleepMs(model_.connect_ms);
          std::lock_guard<std::mutex> lock(mu_);
          // A warm session only helps if a future Connect() can use it
          // within the connection cap; surplus handshakes are discarded.
          if (warm_sessions_ + open_connections_ <
              capabilities_.max_connections) {
            ++warm_sessions_;
          }
        },
        "prewarm-connect");
  }
}

void SimulatedDataSource::WaitForPrewarm() {
  TaskGroup* group = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    group = prewarm_group_.get();
  }
  if (group != nullptr) group->Wait();
}

int SimulatedDataSource::warm_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_sessions_;
}

int SimulatedDataSource::open_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_connections_;
}

void SimulatedDataSource::ConnectionClosed() {
  std::lock_guard<std::mutex> lock(mu_);
  --open_connections_;
}

StatusOr<double> SimulatedDataSource::AdmitQuery(const ExecContext& ctx) {
  auto started = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  // Timed slices: cancellation cannot signal the CV, so wake periodically
  // to poll the context.
  while (running_queries_ >= capabilities_.max_concurrent_queries) {
    VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("backend admission queue"));
    admission_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
      return running_queries_ < capabilities_.max_concurrent_queries;
    });
  }
  ++running_queries_;
  ++queries_executed_;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - started)
      .count();
}

void SimulatedDataSource::FinishQuery() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_queries_;
  }
  admission_cv_.notify_one();
}

int SimulatedDataSource::AcquireCpuSlots(int want) {
  std::lock_guard<std::mutex> lock(mu_);
  int idle = model_.cpu_slots - used_cpu_slots_;
  int got = std::max(1, std::min(want, idle));
  used_cpu_slots_ += got;  // may oversubscribe by design: everyone gets >=1
  return got;
}

void SimulatedDataSource::ReleaseCpuSlots(int slots) {
  std::lock_guard<std::mutex> lock(mu_);
  used_cpu_slots_ -= slots;
}

std::shared_ptr<SimulatedDataSource> SimulatedDataSource::SingleThreadedSql(
    std::string name, std::shared_ptr<tde::Database> db) {
  PerformanceModel m;
  m.connect_ms = 15;
  m.max_parallel_per_query = 1;
  return std::make_shared<SimulatedDataSource>(
      std::move(name), std::move(db), m,
      query::Capabilities::SingleThreadedSql(), query::SqlDialect::MssqlLike());
}

std::shared_ptr<SimulatedDataSource> SimulatedDataSource::ParallelWarehouse(
    std::string name, std::shared_ptr<tde::Database> db) {
  PerformanceModel m;
  m.connect_ms = 25;
  m.cpu_slots = 8;
  m.max_parallel_per_query = 8;
  return std::make_shared<SimulatedDataSource>(
      std::move(name), std::move(db), m,
      query::Capabilities::ParallelWarehouse(),
      query::SqlDialect::BigWarehouse());
}

std::shared_ptr<SimulatedDataSource> SimulatedDataSource::ThrottledCloud(
    std::string name, std::shared_ptr<tde::Database> db) {
  PerformanceModel m;
  m.connect_ms = 40;
  m.network_rtt_ms = 4.0;
  m.max_parallel_per_query = 1;
  m.cpu_slots = 4;
  return std::make_shared<SimulatedDataSource>(
      std::move(name), std::move(db), m, query::Capabilities::ThrottledCloud(),
      query::SqlDialect::MysqlLike());
}

}  // namespace vizq::federation
