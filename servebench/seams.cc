#include "servebench/seams.h"

#include <time.h>

#include <chrono>
#include <cstdio>

#include "src/obs/json.h"

namespace servebench {

using vizq::ExecContext;
using vizq::StatusOr;

namespace {

constexpr int kNumLayers = 5;
constexpr const char* kLayerNames[kNumLayers] = {
    "server.serve", "dashboard.batch", "cluster.node", "tde.execute",
    "federation.execute"};

bool LayerFromName(const std::string& name, Layer* layer) {
  for (int i = 0; i < kNumLayers; ++i) {
    if (name == kLayerNames[i]) {
      *layer = static_cast<Layer>(i);
      return true;
    }
  }
  return false;
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed by the calling thread.
int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Forwards to the wrapped connection, timing Execute when recording.
class SeamConnection : public vizq::federation::Connection {
 public:
  SeamConnection(std::unique_ptr<vizq::federation::Connection> inner,
                 Layer layer, SpanLog* log)
      : inner_(std::move(inner)), layer_(layer), log_(log) {}

  using Connection::Execute;
  StatusOr<vizq::ResultTable> Execute(
      const vizq::query::CompiledQuery& cq,
      vizq::federation::ExecutionInfo* info,
      const ExecContext& ctx) override {
    log_->executes_in_flight.fetch_add(1, std::memory_order_relaxed);
    StatusOr<vizq::ResultTable> result = vizq::Internal("not executed");
    {
      SpanLog::Scope span(log_, layer_, ctx);
      result = inner_->Execute(cq, info, ctx);
      if (result.ok()) span.set_rows(result->num_rows());
    }
    log_->executes_in_flight.fetch_sub(1, std::memory_order_relaxed);
    return result;
  }
  vizq::Status CreateTempTable(const vizq::query::TempTableSpec& spec) override {
    return inner_->CreateTempTable(spec);
  }
  bool HasTempTable(const std::string& name) const override {
    return inner_->HasTempTable(name);
  }
  vizq::Status DropTempTable(const std::string& name) override {
    return inner_->DropTempTable(name);
  }
  std::vector<std::string> TempTableNames() const override {
    return inner_->TempTableNames();
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<vizq::federation::Connection> inner_;
  Layer layer_;
  SpanLog* log_;
};

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}

SpanLog::SpanLog() : epoch_ns_(SteadyNs()) {}

int64_t SpanLog::NowNs() const { return SteadyNs() - epoch_ns_; }

int SpanLog::ThreadIndexLocked() {
  return thread_index_
      .emplace(std::this_thread::get_id(),
               static_cast<int>(thread_index_.size()) + 1)
      .first->second;
}

void SpanLog::Bind(const ExecContext& ctx, int64_t interaction) {
  std::lock_guard<std::mutex> lock(mu_);
  bound_[ctx.trace()].id = interaction;
}

void SpanLog::Unbind(const ExecContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  bound_.erase(ctx.trace());
}

SpanLog::Scope::Scope(SpanLog* log, Layer layer, const ExecContext& ctx) {
  if (!log->recording()) return;
  log_ = log;
  key_ = ctx.trace();
  record_.layer = layer;
  {
    std::lock_guard<std::mutex> lock(log->mu_);
    record_.id = log->next_id_++;
    record_.tid = log->ThreadIndexLocked();
    auto it = key_ == nullptr ? log->bound_.end() : log->bound_.find(key_);
    if (it != log->bound_.end()) {
      Interaction& in = it->second;
      record_.interaction = in.id;
      for (auto o = in.open.rbegin(); o != in.open.rend(); ++o) {
        if (o->layer < layer) {
          record_.parent = o->id;
          break;
        }
      }
      in.open.push_back(Open{record_.id, layer});
    }
  }
  cpu_start_ns_ = ThreadCpuNs();
  record_.start_ns = log->NowNs();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  record_.end_ns = log_->NowNs();
  record_.cpu_ns = ThreadCpuNs() - cpu_start_ns_;
  std::lock_guard<std::mutex> lock(log_->mu_);
  auto it = log_->bound_.find(key_);
  if (it != log_->bound_.end()) {
    std::vector<Open>& open = it->second.open;
    for (auto o = open.begin(); o != open.end(); ++o) {
      if (o->id == record_.id) {
        open.erase(o);
        break;
      }
    }
  }
  log_->spans_.push_back(record_);
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

StatusOr<std::vector<vizq::ResultTable>> SeamExecutor::ExecuteBatch(
    const ExecContext& ctx,
    const std::vector<vizq::query::AbstractQuery>& batch,
    const vizq::dashboard::BatchOptions& options,
    vizq::dashboard::BatchReport* report) {
  SpanLog::Scope span(log_, Layer::kBatch, ctx);
  return inner_->ExecuteBatch(ctx, batch, options, report);
}

StatusOr<std::unique_ptr<vizq::federation::Connection>> SeamSource::Connect() {
  log_->connects.fetch_add(1, std::memory_order_relaxed);
  VIZQ_ASSIGN_OR_RETURN(std::unique_ptr<vizq::federation::Connection> conn,
                        inner_->Connect());
  return std::unique_ptr<vizq::federation::Connection>(
      new SeamConnection(std::move(conn), layer_, log_));
}

vizq::rpc::RpcResponse SeamHandler::Handle(
    const ExecContext& ctx, const vizq::rpc::RpcRequest& request) {
  SpanLog::Scope span(log_, Layer::kNode, ctx);
  return inner_->Handle(ctx, request);
}

std::string ToChromeTrace(const std::vector<SpanRecord>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const char* name = LayerName(s.layer);
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"seam\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%lld,"
        "\"parent\":%lld,\"interaction\":%lld,\"cpu_us\":%.3f,"
        "\"rows\":%lld}}",
        i == 0 ? "" : ",", name, static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
        static_cast<long long>(s.id), static_cast<long long>(s.parent),
        static_cast<long long>(s.interaction),
        static_cast<double>(s.cpu_ns) / 1e3, static_cast<long long>(s.rows));
    out += buf;
  }
  out += "]}\n";
  return out;
}

StatusOr<std::vector<SpanRecord>> FromChromeTrace(const std::string& json) {
  VIZQ_RETURN_IF_ERROR(vizq::obs::ValidateChromeTrace(json));
  VIZQ_ASSIGN_OR_RETURN(vizq::obs::JsonValue doc, vizq::obs::ParseJson(json));
  std::vector<SpanRecord> out;
  for (const vizq::obs::JsonValue& ev : doc.Find("traceEvents")->array()) {
    SpanRecord s;
    if (!LayerFromName(ev.Find("name")->string(), &s.layer)) {
      return vizq::InvalidArgument("unknown span name " +
                                   ev.Find("name")->string());
    }
    const vizq::obs::JsonValue* args = ev.Find("args");
    if (args == nullptr || !args->is_object()) {
      return vizq::InvalidArgument("span without args");
    }
    auto num = [&](const char* key) -> double {
      const vizq::obs::JsonValue* v = args->Find(key);
      return v != nullptr && v->is_number() ? v->number() : 0.0;
    };
    double ts_us = ev.Find("ts")->number();
    double dur_us = ev.Find("dur")->number();
    s.start_ns = static_cast<int64_t>(ts_us * 1e3 + 0.5);
    s.end_ns = s.start_ns + static_cast<int64_t>(dur_us * 1e3 + 0.5);
    s.tid = static_cast<int>(ev.Find("tid")->number());
    s.id = static_cast<int64_t>(num("id"));
    s.parent = static_cast<int64_t>(num("parent"));
    s.interaction = static_cast<int64_t>(num("interaction"));
    s.cpu_ns = static_cast<int64_t>(num("cpu_us") * 1e3 + 0.5);
    s.rows = static_cast<int64_t>(num("rows"));
    out.push_back(s);
  }
  return out;
}

}  // namespace servebench
