// ExecContext: the per-request context threaded through the entire query
// stack (QueryService -> caches -> connection pool -> data sources -> TDE
// operators). It carries four concerns that every layer needs but none
// should own:
//
//   * a monotonic **deadline** — the response-time budget of the request;
//   * a cooperative **CancelToken** — callers abandon work (user navigated
//     away, dashboard superseded) and every layer stops at the next
//     checkpoint;
//   * a hierarchical **trace** — the request's one telemetry record: one
//     Span per pipeline stage / operator, each carrying the timestamped
//     breadcrumbs (cache decisions, pool events) and string attributes
//     (the annotated EXPLAIN ANALYZE plan) logged while it was the
//     context's current span. The tail-exemplar store (src/obs/) copies
//     a finished request's subtree out of it;
//   * a **PhaseTimeline** — named-phase wall-time attribution (admission,
//     cache lookup, scheduler queue wait, execution, materialization)
//     whose root phases decompose the request's end-to-end latency (see
//     phase_timeline.h).
//
// Count/Observe go to the process-global metrics sink (installed by
// obs::GlobalMetrics()); there is no per-request registry.
// ExecContext::Background() keeps its "observability off" contract: no
// trace, no timeline, and it forwards nothing.
//
// Ownership / threading rules (see DESIGN.md "ExecContext"):
//   * The request originator creates the context and keeps it alive for
//     the whole request; copies are cheap handles sharing the same trace,
//     timeline and cancel state.
//   * Anyone holding a copy may Cancel(); cancellation is sticky.
//   * A Span is single-writer for its clock: only the thread that started
//     it may End() it. Starting *children* of a span, and adding events
//     and attributes to it, is safe from any thread (the trace's mutex
//     serializes them).
//   * `ExecContext::Background()` is the explicit "no deadline, no trace"
//     context; zero-context overloads across the stack delegate to it so
//     call sites can migrate incrementally.

#ifndef VIZQUERY_COMMON_EXEC_CONTEXT_H_
#define VIZQUERY_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/phase_timeline.h"
#include "src/common/status.h"

namespace vizq {

// Shared cooperative-cancellation flag. Copies observe the same state.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { state_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return state_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

class Trace;

// One timed node in the trace tree. Created via ExecContext::StartSpan /
// Span::StartChild; closed with End() (idempotent). Single-writer: the
// starting thread ends it; concurrent child creation, events and
// attributes are safe.
class Span {
 public:
  // A timestamped breadcrumb: a *decision* (why a cache lookup missed,
  // where a pool acquire was steered) made while this span was current.
  struct Event {
    std::chrono::steady_clock::time_point at;
    std::string category;  // e.g. "cache.intelligent", "pool"
    std::string detail;
  };

  const std::string& name() const { return name_; }

  // Milliseconds from start to End(); if still open, elapsed-so-far.
  double duration_ms() const;
  bool finished() const { return duration_ns_.load() >= 0; }

  // When the span started (steady clock) — the timestamp source for
  // Chrome trace-event export (obs::RequestsToChromeTrace).
  std::chrono::steady_clock::time_point start_time() const { return start_; }

  // Stops the clock. Safe to call more than once; later calls are no-ops.
  void End();

  // Starts a child span (thread-safe). Never returns null.
  Span* StartChild(const std::string& name);

  // Snapshot of the current children, in creation order.
  std::vector<const Span*> children() const;

  // Appends a breadcrumb stamped now (thread-safe).
  void AddEvent(std::string category, std::string detail);
  // Stores `value` under `name`; a later set of the same name wins
  // (thread-safe).
  void SetAttribute(const std::string& name, std::string value);
  // Snapshots, in logging order / by name.
  std::vector<Event> events() const;
  std::map<std::string, std::string> attributes() const;

 private:
  friend class Trace;
  Span(Trace* trace, std::string name);

  Trace* trace_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<int64_t> duration_ns_{-1};  // -1 while open
  // Guarded by trace_->mu_.
  std::vector<std::unique_ptr<Span>> children_;
  std::vector<Event> events_;
  std::map<std::string, std::string> attributes_;
};

// Owns a span tree. Rendering is meant for after the request completes,
// but is safe (snapshot-consistent) at any time.
class Trace {
 public:
  explicit Trace(std::string root_name = "request");

  Span* root() { return root_.get(); }
  const Span* root() const { return root_.get(); }

  // Indented text tree: one line per span, "name  <ms> ms".
  std::string ToText() const;
  // Nested JSON: {"name":..,"ms":..,"children":[..]}.
  std::string ToJson() const;

  // Depth-first list of span names (root first); handy for tests.
  std::vector<std::string> SpanNames() const;

 private:
  friend class Span;
  mutable std::mutex mu_;
  std::unique_ptr<Span> root_;
};

// Process-global metrics destination. ExecContext::Count/Observe forward
// every update here (when a sink is installed and the context is traced),
// giving the process a single registry. The canonical implementation is
// obs::MetricsRegistry; the indirection keeps common/ free of a
// dependency on obs/.
class GlobalMetricsSink {
 public:
  virtual ~GlobalMetricsSink() = default;
  virtual void Add(const std::string& name, int64_t delta) = 0;
  virtual void Observe(const std::string& name, double value) = 0;
  // Last-write-wins instantaneous value (queue depths, pool occupancy).
  // Default no-op so sinks that only aggregate counters keep working.
  virtual void SetGauge(const std::string& name, double value) {
    (void)name;
    (void)value;
  }
};

// Installs / reads the process-global sink. The sink must outlive all use
// (in practice it is a leaked singleton). Thread-safe.
void SetGlobalMetricsSink(GlobalMetricsSink* sink);
GlobalMetricsSink* GetGlobalMetricsSink();

// The context itself: a cheap value type. Copies share deadline, cancel
// state, trace and timeline; `WithSpan` re-parents where new spans,
// events and attributes attach.
class ExecContext {
 public:
  // No deadline; tracing enabled.
  ExecContext();

  // Process-wide context with no deadline and tracing *disabled*
  // (StartSpan returns null; Count/Observe/LogEvent/Attach are no-ops).
  // The delegate for every zero-context overload in the stack.
  static const ExecContext& Background();

  // Fresh context whose deadline is `ms` from now.
  static ExecContext WithDeadlineMs(double ms);

  // The context an RPC transport hands to the remote (node-side) handler:
  // shares this context's cancel state, trace and current span, but
  //   * tightens the deadline to min(existing, now + budget_ms), so a
  //     per-call budget can never outlive the request's own deadline;
  //   * drops the phase timeline — node-side root phases (cache lookup,
  //     plan, execution) would double-count against the caller's `rpc`
  //     phase; the transport charges the remote share back explicitly as
  //     the `remote_exec` detail phase instead.
  // budget_ms <= 0 keeps the existing deadline unchanged.
  ExecContext ForRemoteCall(double budget_ms) const;

  // --- deadline ---
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }
  // Milliseconds until the deadline; a very large number when unset.
  double remaining_ms() const;
  bool deadline_expired() const;

  // --- cancellation ---
  void Cancel() { token_.Cancel(); }
  // True when explicitly cancelled OR past the deadline.
  bool cancelled() const { return token_.cancelled() || deadline_expired(); }
  const CancelToken& cancel_token() const { return token_; }

  // The cooperative checkpoint every layer polls: kDeadlineExceeded past
  // the deadline, kAborted after Cancel(), OK otherwise. `what` names the
  // checkpoint for the error message.
  Status CheckContinue(const char* what) const;

  // --- tracing ---
  bool tracing_enabled() const { return trace_ != nullptr; }
  Trace* trace() { return trace_.get(); }
  const Trace* trace() const { return trace_.get(); }

  // Starts a span under this context's current parent (the root unless
  // re-parented with WithSpan). Returns null when tracing is disabled —
  // ScopedSpan and End() tolerate null.
  Span* StartSpan(const std::string& name) const;

  // Copy whose current span is `span`: StartSpan attaches children under
  // it, and LogEvent/Attach write to it. Null leaves the parent unchanged.
  ExecContext WithSpan(Span* span) const;

  // Breadcrumbs and attributes on the current span (the WithSpan parent,
  // or else the root). No-ops when tracing is disabled (Background()).
  void LogEvent(std::string category, std::string detail) const;
  void Attach(const std::string& name, std::string text) const;

  // --- metrics ---
  // Forward to the process-global sink; Background() forwards nothing.
  void Count(const std::string& name, int64_t delta = 1) const;
  void Observe(const std::string& name, double value) const;

  // --- phase timeline ---
  // Null when timelines are disabled (Background(), or the process-wide
  // PhaseTimeline::SetEnabled(false) kill switch at creation time). All
  // copies of a context share one timeline, like the trace.
  PhaseTimeline* timeline() const { return timeline_.get(); }

 private:
  struct DisabledTag {};
  explicit ExecContext(DisabledTag);

  // The WithSpan parent, or else the root. Requires tracing.
  Span* current_span() const;

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  CancelToken token_;
  std::shared_ptr<Trace> trace_;
  std::shared_ptr<PhaseTimeline> timeline_;
  Span* parent_ = nullptr;  // current span; null = the trace's root
};

// RAII helper: ends the span on scope exit. Tolerates a null span, so
// `ScopedSpan s(ctx.StartSpan("x"))` works with tracing disabled.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  explicit ScopedSpan(Span* span) : span_(span) {}
  ScopedSpan(ScopedSpan&& other) noexcept : span_(other.span_) {
    other.span_ = nullptr;
  }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      if (span_ != nullptr) span_->End();
      span_ = other.span_;
      other.span_ = nullptr;
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (span_ != nullptr) span_->End();
  }

  Span* get() const { return span_; }
  // Ends the span now (idempotent with the destructor).
  void End() {
    if (span_ != nullptr) span_->End();
  }

 private:
  Span* span_ = nullptr;
};

}  // namespace vizq

#endif  // VIZQUERY_COMMON_EXEC_CONTEXT_H_
