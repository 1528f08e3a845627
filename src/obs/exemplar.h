// TailExemplarStore: always-on retention of *full traces* for the
// requests that matter most — the slowest content requests and the
// requests the shed ladder turned away. It is the process's one store of
// finished requests.
//
// Aggregates (histograms, SLO burn rates) tell you THAT the p99
// regressed; they cannot tell you WHY. The exemplar store closes that
// gap: for every completed request the serving layer offers the
// request's duration plus its live span tree; the store keeps the top-K
// slowest (and separately up to shed_k shed requests) per rolling time
// window, copying the span subtree — with each span's breadcrumbs and
// attributes — and the request's PhaseTimeline rendering only for
// requests that actually make the cut.
//
// Cost model: the hot path is WouldAdmit(), a handful of atomic/mutexed
// comparisons against the current window's admission floor, and Offer()
// makes the same check before it copies anything. The expensive part
// (deep-copying the span tree) happens only for admitted requests — at
// steady state that is K requests per window, not K per second, for the
// slow lane and the first-come shed lane alike. This is what makes
// "always on" affordable.
//
// Two windows (current + previous) are retained so that a scrape right
// after a window rolls still sees the tail of the last full window.
// Exports are Chrome trace-event JSON ("trace event format"), loadable
// in chrome://tracing / Perfetto: spans become complete ("ph":"X")
// events whose "args" are the span's attributes, and breadcrumbs become
// instant ("ph":"i") events on their span's row. Timestamps are
// microseconds relative to the store's epoch (steady clock).

#ifndef VIZQUERY_OBS_EXEMPLAR_H_
#define VIZQUERY_OBS_EXEMPLAR_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/exec_context.h"

namespace vizq::obs {

// One breadcrumb, copied out of the span that logged it.
struct RecordedEvent {
  std::string category;
  std::string detail;
  double at_us = 0;  // relative to the capture epoch
};

// One span, copied out of the live Trace (which the request owns and may
// destroy after capture), with its own breadcrumbs and attributes.
struct RecordedSpan {
  std::string name;
  double start_us = 0;  // relative to the capture epoch
  double duration_us = 0;
  std::vector<RecordedEvent> events;
  std::map<std::string, std::string> attributes;
  std::vector<RecordedSpan> children;

  int TotalSpans() const;
  // Depth-first (pre-order) search of this subtree; null when absent.
  const RecordedSpan* Find(const std::string& span_name) const;
};

struct RecordedRequest {
  int64_t id = 0;          // assigned by the store that retains it
  std::string name;        // e.g. "batch:flights_star" or "shed:<view>"
  double duration_us = 0;  // the captured root span's wall time
  RecordedSpan root;
};

// Copies `span`'s subtree — every span's timing, breadcrumbs and
// attributes — into an owned RecordedRequest with timestamps relative to
// `epoch`. An open span is captured with its elapsed-so-far duration.
// `id` is left 0 for the caller to assign.
RecordedRequest CaptureRequest(const Span& span, const std::string& name,
                               std::chrono::steady_clock::time_point epoch);

// Chrome trace-event JSON for a set of captured requests (each renders as
// one "pid" so Perfetto groups them).
std::string RequestsToChromeTrace(const std::vector<RecordedRequest>& requests);

struct TailExemplarOptions {
  // Slowest content requests retained per window.
  int top_k = 8;
  // Shed requests retained per window (first-come: sheds are about
  // coverage of the decision, not about being slow).
  int shed_k = 4;
  // Window length; current + previous windows are queryable.
  int window_seconds = 60;
  // Requests faster than this never compete for a slot (0 = everything
  // competes; bench/tests use 0, servers can set a floor).
  double min_duration_ms = 0;
};

// One retained request: the full recorded trace plus the serving-layer
// verdict that made it interesting.
struct Exemplar {
  RecordedRequest request;   // span tree with breadcrumbs + attributes
  double duration_ms = 0;
  std::string outcome;       // e.g. "content", "placeholder", "rejected"
  int rung = -1;             // shed-ladder rung, -1 when not degraded
  bool shed = false;         // retained via the shed lane
  std::string timeline_text; // PhaseTimeline::ToString() at completion
};

class TailExemplarStore {
 public:
  explicit TailExemplarStore(TailExemplarOptions options = {});

  TailExemplarStore(const TailExemplarStore&) = delete;
  TailExemplarStore& operator=(const TailExemplarStore&) = delete;

  // Cheap pre-check: would a content request of this duration currently
  // make the slow lane? Callers use it to skip building the offer on the
  // fast path. (A true result is advisory — a racing offer may still
  // displace this one.)
  bool WouldAdmit(double duration_ms) const;

  // Offers one completed request. Copies the span tree only if the
  // request wins a slot. `span` may be null (shed requests often have no
  // trace); a synthetic single-span tree is recorded instead so exports
  // stay loadable. `outcome` follows ServeOutcomeName()-style labels.
  void Offer(const ExecContext& ctx, const Span* span,
             const std::string& name, double duration_ms,
             const std::string& outcome, bool shed);

  // Everything currently retained (current + previous window), slowest
  // first; shed exemplars follow the slow ones, in arrival order within
  // each window, current window first.
  std::vector<Exemplar> Snapshot() const;
  // The single slowest retained request (duration 0 when empty).
  Exemplar Slowest() const;

  // Chrome trace-event JSON of every retained exemplar.
  std::string ToChromeTrace() const;

  void Clear();

  int64_t total_offered() const;
  int64_t total_retained() const;

  const TailExemplarOptions& options() const { return options_; }

 private:
  struct Window {
    int64_t index = -1;                // floor(now / window_seconds)
    std::deque<Exemplar> slow;         // sorted slowest-first, <= top_k
    std::deque<Exemplar> shed;         // first-come, <= shed_k
  };

  int64_t WindowIndexLocked() const;
  void RollLocked();
  // True when a request of `duration_ms` would take a slot of the current
  // window's slow lane (or, for a shed, of its shed lane) now.
  bool HasSlotLocked(double duration_ms, bool shed) const;

  const TailExemplarOptions options_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  Window current_;
  Window previous_;
  int64_t total_offered_ = 0;
  int64_t total_retained_ = 0;
};

// The process-wide store (leaked singleton), fed by QueryService and the
// frontend's shed path.
TailExemplarStore& GlobalExemplars();

}  // namespace vizq::obs

#endif  // VIZQUERY_OBS_EXEMPLAR_H_
