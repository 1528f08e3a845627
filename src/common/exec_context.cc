#include "src/common/exec_context.h"

#include <limits>
#include <sstream>

#include "src/common/str_util.h"

namespace vizq {

namespace {

std::string FormatMs(double ms) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << ms;
  return os.str();
}

}  // namespace

// --- global metrics sink ---

namespace {
std::atomic<GlobalMetricsSink*> g_metrics_sink{nullptr};
}  // namespace

void SetGlobalMetricsSink(GlobalMetricsSink* sink) {
  g_metrics_sink.store(sink, std::memory_order_release);
}

GlobalMetricsSink* GetGlobalMetricsSink() {
  return g_metrics_sink.load(std::memory_order_acquire);
}

// --- Span ---

Span::Span(Trace* trace, std::string name)
    : trace_(trace),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()) {}

double Span::duration_ms() const {
  int64_t ns = duration_ns_.load(std::memory_order_acquire);
  if (ns < 0) {
    ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
             .count();
  }
  return static_cast<double>(ns) / 1e6;
}

void Span::End() {
  int64_t expected = -1;
  int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  duration_ns_.compare_exchange_strong(expected, ns,
                                       std::memory_order_acq_rel);
}

Span* Span::StartChild(const std::string& name) {
  std::lock_guard<std::mutex> lock(trace_->mu_);
  children_.push_back(std::unique_ptr<Span>(new Span(trace_, name)));
  return children_.back().get();
}

std::vector<const Span*> Span::children() const {
  std::lock_guard<std::mutex> lock(trace_->mu_);
  std::vector<const Span*> out;
  out.reserve(children_.size());
  for (const auto& c : children_) out.push_back(c.get());
  return out;
}

void Span::AddEvent(std::string category, std::string detail) {
  Event ev{std::chrono::steady_clock::now(), std::move(category),
           std::move(detail)};
  std::lock_guard<std::mutex> lock(trace_->mu_);
  events_.push_back(std::move(ev));
}

void Span::SetAttribute(const std::string& name, std::string value) {
  std::lock_guard<std::mutex> lock(trace_->mu_);
  attributes_[name] = std::move(value);
}

std::vector<Span::Event> Span::events() const {
  std::lock_guard<std::mutex> lock(trace_->mu_);
  return events_;
}

std::map<std::string, std::string> Span::attributes() const {
  std::lock_guard<std::mutex> lock(trace_->mu_);
  return attributes_;
}

// --- Trace ---

Trace::Trace(std::string root_name)
    : root_(new Span(this, std::move(root_name))) {}

namespace {

void RenderText(const Span& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(span.name());
  out->append("  ");
  out->append(FormatMs(span.duration_ms()));
  out->append(" ms\n");
  for (const Span* child : span.children()) {
    RenderText(*child, depth + 1, out);
  }
}

void RenderJson(const Span& span, std::string* out) {
  out->append("{\"name\":\"");
  AppendJsonEscaped(span.name(), out);
  out->append("\",\"ms\":");
  out->append(FormatMs(span.duration_ms()));
  std::vector<const Span*> children = span.children();
  if (!children.empty()) {
    out->append(",\"children\":[");
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out->push_back(',');
      RenderJson(*children[i], out);
    }
    out->push_back(']');
  }
  out->push_back('}');
}

void CollectNames(const Span& span, std::vector<std::string>* out) {
  out->push_back(span.name());
  for (const Span* child : span.children()) CollectNames(*child, out);
}

}  // namespace

std::string Trace::ToText() const {
  std::string out;
  RenderText(*root_, 0, &out);
  return out;
}

std::string Trace::ToJson() const {
  std::string out;
  RenderJson(*root_, &out);
  return out;
}

std::vector<std::string> Trace::SpanNames() const {
  std::vector<std::string> out;
  CollectNames(*root_, &out);
  return out;
}

// --- ExecContext ---

ExecContext::ExecContext()
    : trace_(std::make_shared<Trace>()),
      timeline_(PhaseTimeline::Enabled() ? std::make_shared<PhaseTimeline>()
                                         : nullptr) {}

ExecContext::ExecContext(DisabledTag) {}

const ExecContext& ExecContext::Background() {
  static const ExecContext* background = new ExecContext(DisabledTag{});
  return *background;
}

ExecContext ExecContext::WithDeadlineMs(double ms) {
  ExecContext ctx;
  ctx.has_deadline_ = true;
  ctx.deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(static_cast<int64_t>(ms * 1000));
  return ctx;
}

ExecContext ExecContext::ForRemoteCall(double budget_ms) const {
  ExecContext remote = *this;
  remote.timeline_.reset();
  if (budget_ms > 0) {
    auto budget_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(budget_ms * 1000));
    if (!remote.has_deadline_ || budget_deadline < remote.deadline_) {
      remote.has_deadline_ = true;
      remote.deadline_ = budget_deadline;
    }
  }
  return remote;
}

double ExecContext::remaining_ms() const {
  if (!has_deadline_) return std::numeric_limits<double>::max();
  return std::chrono::duration<double, std::milli>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

bool ExecContext::deadline_expired() const {
  return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
}

Status ExecContext::CheckContinue(const char* what) const {
  if (deadline_expired()) {
    return DeadlineExceeded(std::string(what) + ": deadline exceeded");
  }
  if (token_.cancelled()) {
    return Aborted(std::string(what) + ": cancelled");
  }
  return OkStatus();
}

Span* ExecContext::current_span() const {
  return parent_ != nullptr ? parent_ : trace_->root();
}

Span* ExecContext::StartSpan(const std::string& name) const {
  if (trace_ == nullptr) return nullptr;
  return current_span()->StartChild(name);
}

ExecContext ExecContext::WithSpan(Span* span) const {
  ExecContext copy = *this;
  if (span != nullptr) copy.parent_ = span;
  return copy;
}

void ExecContext::LogEvent(std::string category, std::string detail) const {
  if (trace_ != nullptr) {
    current_span()->AddEvent(std::move(category), std::move(detail));
  }
}

void ExecContext::Attach(const std::string& name, std::string text) const {
  if (trace_ != nullptr) current_span()->SetAttribute(name, std::move(text));
}

void ExecContext::Count(const std::string& name, int64_t delta) const {
  if (trace_ == nullptr) return;
  if (GlobalMetricsSink* sink = GetGlobalMetricsSink(); sink != nullptr) {
    sink->Add(name, delta);
  }
}

void ExecContext::Observe(const std::string& name, double value) const {
  if (trace_ == nullptr) return;
  if (GlobalMetricsSink* sink = GetGlobalMetricsSink(); sink != nullptr) {
    sink->Observe(name, value);
  }
}

}  // namespace vizq
