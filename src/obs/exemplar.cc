#include "src/obs/exemplar.h"

#include <algorithm>

#include "src/common/phase_timeline.h"
#include "src/common/str_util.h"

namespace vizq::obs {

namespace {

std::string FormatUs(double us) {
  // Chrome's ts/dur are microseconds; integers keep the export stable.
  return std::to_string(static_cast<int64_t>(us < 0 ? 0 : us));
}

double ToUs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

RecordedSpan CopySpan(const Span& span,
                      std::chrono::steady_clock::time_point epoch) {
  RecordedSpan out;
  out.name = span.name();
  out.start_us = ToUs(span.start_time() - epoch);
  out.duration_us = span.duration_ms() * 1000.0;
  for (const Span::Event& ev : span.events()) {
    out.events.push_back(
        RecordedEvent{ev.category, ev.detail, ToUs(ev.at - epoch)});
  }
  out.attributes = span.attributes();
  for (const Span* child : span.children()) {
    out.children.push_back(CopySpan(*child, epoch));
  }
  return out;
}

// One trace "thread" per tree depth: chrome://tracing renders nested spans
// on separate rows without needing flow events, and each breadcrumb sits
// on its span's row.
void AppendSpanEvents(const RecordedSpan& span, int64_t pid, int depth,
                      bool* first, std::string* out) {
  const std::string ids = ",\"pid\":" + std::to_string(pid) +
                          ",\"tid\":" + std::to_string(depth);
  if (!*first) out->push_back(',');
  *first = false;
  out->append("{\"name\":\"");
  AppendJsonEscaped(span.name, out);
  out->append("\",\"ph\":\"X\",\"ts\":");
  out->append(FormatUs(span.start_us));
  out->append(",\"dur\":");
  out->append(FormatUs(span.duration_us));
  out->append(ids);
  if (!span.attributes.empty()) {
    out->append(",\"args\":{");
    bool first_arg = true;
    for (const auto& [key, value] : span.attributes) {
      if (!first_arg) out->push_back(',');
      first_arg = false;
      out->push_back('"');
      AppendJsonEscaped(key, out);
      out->append("\":\"");
      AppendJsonEscaped(value, out);
      out->push_back('"');
    }
    out->push_back('}');
  }
  out->push_back('}');
  for (const RecordedEvent& ev : span.events) {
    out->append(",{\"name\":\"");
    AppendJsonEscaped(ev.category, out);
    out->append("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    out->append(FormatUs(ev.at_us));
    out->append(ids);
    out->append(",\"args\":{\"detail\":\"");
    AppendJsonEscaped(ev.detail, out);
    out->append("\"}}");
  }
  for (const RecordedSpan& child : span.children) {
    AppendSpanEvents(child, pid, depth + 1, first, out);
  }
}

}  // namespace

int RecordedSpan::TotalSpans() const {
  int n = 1;
  for (const RecordedSpan& c : children) n += c.TotalSpans();
  return n;
}

const RecordedSpan* RecordedSpan::Find(const std::string& span_name) const {
  if (name == span_name) return this;
  for (const RecordedSpan& c : children) {
    if (const RecordedSpan* found = c.Find(span_name)) return found;
  }
  return nullptr;
}

RecordedRequest CaptureRequest(const Span& span, const std::string& name,
                               std::chrono::steady_clock::time_point epoch) {
  RecordedRequest request;
  request.name = name;
  request.root = CopySpan(span, epoch);
  request.duration_us = request.root.duration_us;
  return request;
}

std::string RequestsToChromeTrace(
    const std::vector<RecordedRequest>& requests) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const RecordedRequest& r : requests) {
    AppendSpanEvents(r.root, r.id, 0, &first, &out);
    // Name the process after the request so Perfetto's track labels are
    // meaningful.
    out.append(",{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,");
    out.append("\"pid\":" + std::to_string(r.id));
    out.append(",\"tid\":0,\"args\":{\"name\":\"");
    AppendJsonEscaped(r.name, &out);
    out.append("\"}}");
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

TailExemplarStore::TailExemplarStore(TailExemplarOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

int64_t TailExemplarStore::WindowIndexLocked() const {
  int64_t sec = std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - epoch_)
                    .count();
  return sec / std::max(options_.window_seconds, 1);
}

void TailExemplarStore::RollLocked() {
  int64_t idx = WindowIndexLocked();
  if (current_.index == idx) return;
  if (current_.index == idx - 1) {
    previous_ = std::move(current_);
  } else {
    // More than one whole window elapsed with no offers: both stale.
    previous_ = Window{};
  }
  current_ = Window{};
  current_.index = idx;
}

bool TailExemplarStore::HasSlotLocked(double duration_ms, bool shed) const {
  if (shed) return static_cast<int>(current_.shed.size()) < options_.shed_k;
  if (duration_ms < options_.min_duration_ms || options_.top_k <= 0) {
    return false;
  }
  return static_cast<int>(current_.slow.size()) < options_.top_k ||
         duration_ms > current_.slow.back().duration_ms;
}

bool TailExemplarStore::WouldAdmit(double duration_ms) const {
  if (duration_ms < options_.min_duration_ms) return false;
  if (options_.top_k <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // A rolled-over window admits everything; don't mutate state here —
  // Offer() does the actual roll.
  if (current_.index != WindowIndexLocked()) return true;
  return HasSlotLocked(duration_ms, /*shed=*/false);
}

void TailExemplarStore::Offer(const ExecContext& ctx, const Span* span,
                              const std::string& name, double duration_ms,
                              const std::string& outcome, bool shed) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_offered_;
    RollLocked();
    if (!HasSlotLocked(duration_ms, shed)) return;
  }
  // Capture outside the lock: the copy is the expensive part, and only a
  // request that currently wins a slot pays for it.
  Exemplar ex;
  ex.duration_ms = duration_ms;
  ex.outcome = outcome;
  ex.shed = shed;
  if (const PhaseTimeline* tl = ctx.timeline()) {
    ex.rung = tl->rung();
    ex.timeline_text = tl->ToString();
  }
  if (span != nullptr && ctx.tracing_enabled()) {
    ex.request = CaptureRequest(*span, name, epoch_);
  } else {
    // Shed / tracing-off requests still export: synthesize a one-span
    // tree with the observed duration so the Chrome trace stays valid.
    ex.request.name = name;
    ex.request.duration_us = duration_ms * 1000.0;
    ex.request.root.name = name;
    ex.request.root.duration_us = ex.request.duration_us;
  }

  std::lock_guard<std::mutex> lock(mu_);
  RollLocked();
  if (!HasSlotLocked(duration_ms, shed)) return;  // a racing offer won
  ex.request.id = ++total_retained_;
  if (shed) {
    current_.shed.push_back(std::move(ex));
    return;
  }
  // Insert keeping slowest-first order.
  auto pos = std::upper_bound(
      current_.slow.begin(), current_.slow.end(), duration_ms,
      [](double d, const Exemplar& e) { return d > e.duration_ms; });
  current_.slow.insert(pos, std::move(ex));
  if (static_cast<int>(current_.slow.size()) > options_.top_k) {
    current_.slow.pop_back();
  }
}

std::vector<Exemplar> TailExemplarStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Exemplar> out;
  out.reserve(current_.slow.size() + previous_.slow.size() +
              current_.shed.size() + previous_.shed.size());
  for (const Exemplar& e : current_.slow) out.push_back(e);
  for (const Exemplar& e : previous_.slow) out.push_back(e);
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    return a.duration_ms > b.duration_ms;
  });
  for (const Exemplar& e : current_.shed) out.push_back(e);
  for (const Exemplar& e : previous_.shed) out.push_back(e);
  return out;
}

Exemplar TailExemplarStore::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  const Exemplar* best = nullptr;
  for (const Window* w : {&current_, &previous_}) {
    if (!w->slow.empty() &&
        (best == nullptr || w->slow.front().duration_ms > best->duration_ms)) {
      best = &w->slow.front();
    }
  }
  return best == nullptr ? Exemplar{} : *best;
}

std::string TailExemplarStore::ToChromeTrace() const {
  std::vector<Exemplar> all = Snapshot();
  std::vector<RecordedRequest> requests;
  requests.reserve(all.size());
  for (Exemplar& e : all) requests.push_back(std::move(e.request));
  return RequestsToChromeTrace(requests);
}

void TailExemplarStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = Window{};
  previous_ = Window{};
  total_offered_ = 0;
  total_retained_ = 0;
}

int64_t TailExemplarStore::total_offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_offered_;
}

int64_t TailExemplarStore::total_retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_retained_;
}

TailExemplarStore& GlobalExemplars() {
  static TailExemplarStore* store = new TailExemplarStore();
  return *store;
}

}  // namespace vizq::obs
