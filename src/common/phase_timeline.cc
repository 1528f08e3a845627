#include "src/common/phase_timeline.h"

#include <algorithm>
#include <cstdio>

namespace vizq {

namespace {

std::atomic<bool> g_timelines_enabled{true};

// Top of this thread's scope stack. A request is driven by one thread at
// a time for its root phases (the serving thread; scheduler workers only
// Add() detail phases), so a per-thread stack is exactly the exclusivity
// we want: nested scopes pause their parent on the same thread, and
// scopes on other threads are unrelated.
thread_local PhaseScope* tls_top_scope = nullptr;

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kClientQueue: return "client_queue";
    case Phase::kClientPrep: return "client_prep";
    case Phase::kAdmission: return "admission";
    case Phase::kCacheLookup: return "cache_lookup";
    case Phase::kPlan: return "plan";
    case Phase::kExecution: return "execution";
    case Phase::kMaterialize: return "materialize";
    case Phase::kLadder: return "ladder";
    case Phase::kRpc: return "rpc";
    case Phase::kQueueInteractive: return "queue_interactive";
    case Phase::kQueueBatch: return "queue_batch";
    case Phase::kQueueBackground: return "queue_background";
    case Phase::kRemoteExec: return "remote_exec";
  }
  return "?";
}

void PhaseTimeline::SetEnabled(bool enabled) {
  g_timelines_enabled.store(enabled, std::memory_order_relaxed);
}

bool PhaseTimeline::Enabled() {
  return g_timelines_enabled.load(std::memory_order_relaxed);
}

int64_t PhaseTimeline::attributed_ns() const {
  int64_t total = 0;
  for (int i = 0; i < kNumRootPhases; ++i) {
    total += ns_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::string PhaseTimeline::ToString() const {
  // snprintf into a stack buffer: this renders on serving threads (each
  // tail exemplar's timeline), so no ostringstream construction — a
  // locale-aware stream costs more than the whole timeline bookkeeping.
  char buf[512];
  size_t len = 0;
  auto append = [&](const char* fmt, auto... vals) {
    if (len >= sizeof(buf)) return;
    int n = std::snprintf(buf + len, sizeof(buf) - len, fmt, vals...);
    if (n > 0) len = std::min(len + static_cast<size_t>(n), sizeof(buf) - 1);
  };
  for (int i = 0; i < kNumPhases; ++i) {
    int64_t ns = ns_[i].load(std::memory_order_relaxed);
    if (ns == 0) continue;
    append(len == 0 ? "%s=%.3fms" : " %s=%.3fms",
           PhaseName(static_cast<Phase>(i)), static_cast<double>(ns) / 1e6);
  }
  int r = rung();
  if (r >= 0) append(len == 0 ? "rung=%d" : " rung=%d", r);
  const char* o = outcome_.load(std::memory_order_relaxed);
  if (o != nullptr) append(len == 0 ? "outcome=%s" : " outcome=%s", o);
  return std::string(buf, len);
}

PhaseScope::PhaseScope(PhaseTimeline* timeline, Phase phase)
    : timeline_(timeline), phase_(phase) {
  if (timeline_ == nullptr) {
    ended_ = true;
    return;
  }
  // Same-phase nesting on the same timeline is an accounting no-op: the
  // child's time would land in the very bucket the paused parent is
  // already charging. Go inert instead of paying the pause/resume clock
  // reads — this is the hot per-query case (each cache probe opening
  // kCacheLookup under the batch loop's own kCacheLookup scope).
  if (tls_top_scope != nullptr && tls_top_scope->timeline_ == timeline_ &&
      tls_top_scope->phase_ == phase) {
    timeline_ = nullptr;
    ended_ = true;
    return;
  }
  auto now = std::chrono::steady_clock::now();
  parent_ = tls_top_scope;
  if (parent_ != nullptr) {
    // Pause the enclosing scope: bank its elapsed time; its clock restarts
    // when this scope ends. Exclusive accounting is unconditional — even a
    // parent on a *different* timeline stops, because this thread's time
    // now belongs to the nested work.
    parent_->accumulated_ns_ +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - parent_->started_)
            .count();
  }
  started_ = now;
  tls_top_scope = this;
}

void PhaseScope::End() {
  if (ended_) return;
  ended_ = true;
  auto now = std::chrono::steady_clock::now();
  accumulated_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now - started_)
                         .count();
  timeline_->Add(phase_, accumulated_ns_);
  tls_top_scope = parent_;
  if (parent_ != nullptr) parent_->started_ = now;  // resume
}

}  // namespace vizq
