// Seam tracing for the serving benchmark.
//
// The benchmark times each layer from outside, at its public seams, so
// the program under test carries no benchmark code:
//
//   server.serve        around each Frontend::Serve call (loadgen.cc)
//   dashboard.batch     SeamExecutor, a BatchExecutor wrapper
//   cluster.node        SeamHandler, re-registered per cluster node
//   tde.execute         SeamConnection over a TdeDataSource
//   federation.execute  SeamConnection over a simulated SQL source
//
// Spans of one interaction share its id. Calls hop onto scheduler workers
// and, in the cluster, into node handlers; every hop carries a copy of the
// ExecContext the load generator created for the interaction, and all copies
// (WithSpan, ForRemoteCall) share that context's Trace object, so the
// Trace address is the key that ties a span to its interaction. A span's
// parent is the innermost still-open span of a higher layer in the same
// interaction. Spans stay in memory and are written once, as a Chrome
// trace, after the traced window; the per-layer metrics are computed
// back from that file (layers.cc), so the numbers and the trace agree.
//
// With recording off (the untraced runs) the wrappers only forward, plus
// one relaxed atomic load.

#ifndef SERVEBENCH_SEAMS_H_
#define SERVEBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/exec_context.h"
#include "src/dashboard/query_service.h"
#include "src/federation/data_source.h"
#include "src/rpc/channel.h"

namespace servebench {

// Seam layers, outermost first: a span's parent is always of a lower rank.
enum class Layer : uint8_t { kServe, kBatch, kNode, kTde, kFederation };
const char* LayerName(Layer layer);

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;       // -1: root
  int64_t interaction = -1;  // -1: not tied to a timed interaction
  Layer layer = Layer::kServe;
  int64_t start_ns = 0;  // steady clock, relative to the log's epoch
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  // CPU time of the recording thread inside the span
  int tid = 0;         // small per-thread index
  int64_t rows = 0;    // connection spans: rows returned
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void SetRecording(bool on) { recording_.store(on); }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  // Ties every span opened under a copy of `ctx` to `interaction` until
  // Unbind. The context must have tracing enabled.
  void Bind(const vizq::ExecContext& ctx, int64_t interaction);
  void Unbind(const vizq::ExecContext& ctx);

  // One open span; ends on destruction. Inert when recording is off.
  class Scope {
   public:
    Scope(SpanLog* log, Layer layer, const vizq::ExecContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_rows(int64_t rows) { record_.rows = rows; }

   private:
    SpanLog* log_ = nullptr;  // null when inert
    const void* key_ = nullptr;
    SpanRecord record_;
    int64_t cpu_start_ns_ = 0;
  };

  std::vector<SpanRecord> spans() const;

  // Seam counters, kept whether or not recording is on.
  std::atomic<int64_t> connects{0};           // DataSource::Connect calls
  std::atomic<int64_t> executes_in_flight{0};  // Connection::Execute calls

 private:
  struct Open {
    int64_t id;
    Layer layer;
  };
  struct Interaction {
    int64_t id = -1;
    std::vector<Open> open;
  };

  int64_t NowNs() const;
  int ThreadIndexLocked();

  std::atomic<bool> recording_{false};
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::unordered_map<const void*, Interaction> bound_;
  std::map<std::thread::id, int> thread_index_;
  int64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

// --- seam wrappers ---------------------------------------------------------

class SeamExecutor : public vizq::dashboard::BatchExecutor {
 public:
  SeamExecutor(vizq::dashboard::BatchExecutor* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  vizq::StatusOr<std::vector<vizq::ResultTable>> ExecuteBatch(
      const vizq::ExecContext& ctx,
      const std::vector<vizq::query::AbstractQuery>& batch,
      const vizq::dashboard::BatchOptions& options,
      vizq::dashboard::BatchReport* report) override;

 private:
  vizq::dashboard::BatchExecutor* inner_;
  SpanLog* log_;
};

// Wraps a DataSource so every connection it opens is a SeamConnection
// recording spans of `layer` (kTde or kFederation).
class SeamSource : public vizq::federation::DataSource {
 public:
  SeamSource(std::shared_ptr<vizq::federation::DataSource> inner, Layer layer,
             SpanLog* log)
      : inner_(std::move(inner)), layer_(layer), log_(log) {}

  const std::string& name() const override { return inner_->name(); }
  const vizq::query::Capabilities& capabilities() const override {
    return inner_->capabilities();
  }
  const vizq::query::SqlDialect& dialect() const override {
    return inner_->dialect();
  }
  const vizq::tde::Database& catalog() const override {
    return inner_->catalog();
  }
  vizq::StatusOr<std::unique_ptr<vizq::federation::Connection>> Connect()
      override;

 private:
  std::shared_ptr<vizq::federation::DataSource> inner_;
  Layer layer_;
  SpanLog* log_;
};

class SeamHandler : public vizq::rpc::RpcHandler {
 public:
  SeamHandler(vizq::rpc::RpcHandler* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  vizq::rpc::RpcResponse Handle(const vizq::ExecContext& ctx,
                                const vizq::rpc::RpcRequest& request) override;

 private:
  vizq::rpc::RpcHandler* inner_;
  SpanLog* log_;
};

// --- Chrome trace export ---------------------------------------------------

// Renders spans as a Chrome trace-event document: one complete ("X")
// event per span, ts/dur in microseconds, with id, parent, interaction,
// cpu_us and rows in args.
std::string ToChromeTrace(const std::vector<SpanRecord>& spans);

// Parses a document written by ToChromeTrace back into span records.
vizq::StatusOr<std::vector<SpanRecord>> FromChromeTrace(
    const std::string& json);

}  // namespace servebench

#endif  // SERVEBENCH_SEAMS_H_
