#include "src/server/frontend.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/exemplar.h"

namespace vizq::server {

const char* ServeOutcomeName(ServeOutcome o) {
  switch (o) {
    case ServeOutcome::kFresh: return "fresh";
    case ServeOutcome::kStale: return "stale";
    case ServeOutcome::kDegradedDerived: return "derived";
    case ServeOutcome::kShed: return "shed";
    case ServeOutcome::kError: return "error";
  }
  return "?";
}

namespace {

// True for the failure codes the degraded rungs can still help with:
// resource exhaustion anywhere below (scheduler shed, pool saturation)
// and a spent deadline. A bad query or backend error stays an error.
bool Degradable(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kDeadlineExceeded;
}

double MaxAge(const dashboard::BatchReport& r) {
  double m = 0;
  for (const auto& q : r.queries) m = std::max(m, q.age_ms);
  return m;
}

bool AnyDerived(const dashboard::BatchReport& r) {
  for (const auto& q : r.queries) {
    if (q.served_from == dashboard::ServedFrom::kIntelligentCacheDerived) {
      return true;
    }
  }
  return false;
}

}  // namespace

StatusOr<std::vector<ResultTable>> Frontend::Serve(
    uint64_t session_id, const ExecContext& request_ctx,
    const std::vector<query::AbstractQuery>& batch, ServeReport* report) {
  auto started = std::chrono::steady_clock::now();
  ScopedSpan serve_span(request_ctx.StartSpan("frontend.serve"));
  // Admission, the batch and the degraded rungs run under frontend.serve,
  // so its subtree (what a shed exemplar captures) holds their spans and
  // the ladder's degrade/shed events.
  const ExecContext ctx = request_ctx.WithSpan(serve_span.get());
  ServeReport local;
  // Which ladder rung answered: 0 admitted path, 1 stale-exact,
  // 2 derived, 3 typed shed.
  int rung = 0;
  auto finish = [&](ServeOutcome outcome,
                    StatusOr<std::vector<ResultTable>> result)
      -> StatusOr<std::vector<ResultTable>> {
    local.outcome = outcome;
    local.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    local.max_age_ms = MaxAge(local.batch);
    ctx.Count(std::string("frontend.serve_") + ServeOutcomeName(outcome));
    if (local.max_age_ms > 0) {
      ctx.Observe("frontend.served_age_ms", local.max_age_ms);
    }

    // Timeline roll-up: stamp the verdict on the request's timeline,
    // export each phase into the registry's per-phase histograms, and
    // feed the SLO monitor. phase.unattributed.ms is the serve-side wall
    // time no scope claimed (client phases accrue before Serve and are
    // excluded here). The SLO judges the *user's* response time, so the
    // client-side phases the timeline carries (queue wait before a
    // serving thread picked the request up, batch construction) count
    // toward the threshold — under overload the queue is exactly where
    // the user's time goes, and a serve-side-only view would keep the
    // burn rate green while users wait seconds.
    double user_latency_ms = local.wall_ms;
    if (PhaseTimeline* tl = ctx.timeline()) {
      tl->SetRung(rung);
      tl->SetOutcome(ServeOutcomeName(outcome));
      std::call_once(phase_hist_once_, [this] {
        obs::MetricsRegistry& registry = obs::GlobalMetrics();
        for (int p = 0; p < kNumPhases; ++p) {
          phase_hist_[p] = &registry.GetHistogram(
              std::string("phase.") + PhaseName(static_cast<Phase>(p)) +
              ".ms");
        }
        phase_total_hist_ = &registry.GetHistogram("phase.total.ms");
        phase_unattributed_hist_ =
            &registry.GetHistogram("phase.unattributed.ms");
      });
      double server_attributed = 0;
      for (int p = 0; p < kNumPhases; ++p) {
        Phase phase = static_cast<Phase>(p);
        double ms = tl->phase_ms(phase);
        if (ms <= 0) continue;
        phase_hist_[p]->Observe(ms);
        if (phase == Phase::kClientQueue || phase == Phase::kClientPrep) {
          user_latency_ms += ms;
        } else if (IsRootPhase(phase)) {
          server_attributed += ms;
        }
      }
      phase_total_hist_->Observe(local.wall_ms);
      phase_unattributed_hist_->Observe(
          std::max(0.0, local.wall_ms - server_attributed));
    }
    switch (outcome) {
      case ServeOutcome::kFresh:
      case ServeOutcome::kStale:
      case ServeOutcome::kDegradedDerived:
        slo_.Record(user_latency_ms);
        break;
      case ServeOutcome::kError:
        slo_.RecordBad();
        break;
      case ServeOutcome::kShed:
        // A shed only honors the protection contract when the server
        // declined the work up front. Accepting a request and then
        // failing to deliver (admitted_failed: deadline burned, backend
        // saturated mid-flight) is an SLO miss like any other.
        if (local.degrade_reason.rfind("admitted_failed", 0) == 0) {
          slo_.RecordBad();
        } else {
          slo_.RecordShed();
        }
        break;
    }
    if (outcome == ServeOutcome::kShed) {
      // Retain the shed for postmortems: what the request had done by the
      // time the ladder gave up, and why (timeline text rides along).
      serve_span.End();
      obs::GlobalExemplars().Offer(
          ctx, serve_span.get(),
          "shed:" + (batch.empty() ? std::string("?") : batch[0].view),
          local.wall_ms, ServeOutcomeName(outcome), /*shed=*/true);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      switch (outcome) {
        case ServeOutcome::kFresh: ++stats_.fresh; break;
        case ServeOutcome::kStale: ++stats_.stale; break;
        case ServeOutcome::kDegradedDerived: ++stats_.derived; break;
        case ServeOutcome::kShed: ++stats_.shed; break;
        case ServeOutcome::kError: ++stats_.errors; break;
      }
    }
    if (report != nullptr) *report = std::move(local);
    return result;
  };

  AdmissionController::Ticket ticket;
  std::string reason;
  AdmissionDecision decision = AdmissionDecision::kDegrade;
  {
    PhaseScope admission_phase(ctx.timeline(), Phase::kAdmission);
    // Deadline-aware bypass: a request whose remaining budget cannot pay
    // for the full pipeline is not worth admitting — an admitted request
    // that times out mid-flight burned a backend slot AND still failed
    // the user. The degraded rungs cost a cache probe and answer (or
    // crisply shed) within whatever budget is left. Fail fast over fail
    // slow: under a queue spike this converts admitted_failed timeouts
    // into bounded-stale answers and typed sheds.
    if (ctx.has_deadline() &&
        ctx.remaining_ms() < opts_.min_admit_headroom_ms) {
      reason = "deadline_low: remaining budget under admit headroom";
      ctx.Count("frontend.deadline_bypass");
    } else {
      decision = admission_.Admit(session_id, &ticket, &reason);
    }
  }
  if (decision == AdmissionDecision::kAdmit) {
    ctx.Count("frontend.admit");
    dashboard::BatchOptions opts = opts_.batch;
    opts.session_id = session_id;
    opts.cache_only = false;
    opts.cache_exact_only = false;
    opts.max_result_age_ms = -1.0;
    auto result = service_->ExecuteBatch(ctx, batch, opts, &local.batch);
    ticket.Release();
    if (result.ok()) return finish(ServeOutcome::kFresh, std::move(result));
    if (!Degradable(result.status())) {
      local.degrade_reason = result.status().message();
      return finish(ServeOutcome::kError, std::move(result));
    }
    reason = "admitted_failed: " + result.status().message();
  }
  // --- degraded rungs ---
  // Ladder bookkeeping accrues to `ladder`; the cache probes inside the
  // rungs open their own nested scopes and are charged to cache_lookup.
  PhaseScope ladder_phase(ctx.timeline(), Phase::kLadder);
  ctx.Count("frontend.degrade");
  ctx.LogEvent("frontend", "degrade session=" + std::to_string(session_id) +
                               " reason=" + reason);
  local.degrade_reason = reason;
  if (opts_.stale_serve_ms > 0) {
    ServeOutcome outcome = ServeOutcome::kShed;
    auto degraded =
        ServeDegraded(session_id, ctx, batch, &local, &outcome, &rung);
    if (degraded.ok()) {
      ladder_phase.End();
      return finish(outcome, std::move(degraded));
    }
  }
  rung = 3;
  ctx.Count("frontend.shed");
  ctx.LogEvent("frontend", "shed session=" + std::to_string(session_id));
  ladder_phase.End();
  return finish(ServeOutcome::kShed,
                ResourceExhausted("server overloaded (" + reason +
                                  "); no cache answer within " +
                                  std::to_string(opts_.stale_serve_ms) +
                                  "ms freshness bound — retry with backoff"));
}

StatusOr<std::vector<ResultTable>> Frontend::ServeDegraded(
    uint64_t session_id, const ExecContext& ctx,
    const std::vector<query::AbstractQuery>& batch, ServeReport* report,
    ServeOutcome* outcome, int* rung) {
  ScopedSpan span(ctx.StartSpan("frontend.degraded"));
  // Both rungs' batches nest under frontend.degraded.
  const ExecContext rung_ctx = ctx.WithSpan(span.get());
  dashboard::BatchOptions opts = opts_.batch;
  opts.session_id = session_id;
  opts.cache_only = true;
  opts.max_result_age_ms = opts_.stale_serve_ms;
  // Rung 1: exact entries only (fresh or bounded-stale).
  opts.cache_exact_only = true;
  auto exact = service_->ExecuteBatch(rung_ctx, batch, opts, &report->batch);
  if (exact.ok()) {
    *outcome = MaxAge(report->batch) > 0 ? ServeOutcome::kStale
                                         : ServeOutcome::kFresh;
    *rung = 1;
    ctx.Count("frontend.rung_exact");
    return exact;
  }
  // Rung 2: allow subsumption roll-ups from larger cached results.
  opts.cache_exact_only = false;
  auto derived =
      service_->ExecuteBatch(rung_ctx, batch, opts, &report->batch);
  if (derived.ok()) {
    *outcome = AnyDerived(report->batch) ? ServeOutcome::kDegradedDerived
               : MaxAge(report->batch) > 0 ? ServeOutcome::kStale
                                           : ServeOutcome::kFresh;
    *rung = 2;
    ctx.Count("frontend.rung_derived");
    return derived;
  }
  return derived;
}

Frontend::Stats Frontend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vizq::server
