// Thread-safety suites for the always-on observability layer, written to
// run under TSan (CI's thread-sanitizer job): span events and attributes
// written through WithSpan copies while the tree is captured and
// exported, the TailExemplarStore's Offer/Snapshot/Clear window
// machinery, the SloMonitor's bucket ring, and PhaseTimeline's
// cross-thread Add + per-thread scope stacks. Each test hammers one
// structure from several threads and then asserts the cheap invariants
// that survive any interleaving (counts conserved, exports parse, no
// torn snapshots).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/phase_timeline.h"
#include "src/obs/exemplar.h"
#include "src/obs/json.h"
#include "src/obs/plan_profile.h"
#include "src/obs/slo.h"

namespace vizq::obs {
namespace {

ExecContext MakeTracedWork(const std::string& crumb) {
  ExecContext ctx;
  ctx.LogEvent("test", crumb);
  Span* child = ctx.trace()->root()->StartChild("stage");
  child->StartChild("inner")->End();
  child->End();
  return ctx;
}

// Breadcrumbs in `span`'s subtree.
size_t TotalEvents(const RecordedSpan& span) {
  size_t n = span.events.size();
  for (const RecordedSpan& c : span.children) n += TotalEvents(c);
  return n;
}

TEST(ObsConcurrencyTest, SpanEventsAttributesCaptureExportRace) {
  // Writers open child spans and log through WithSpan copies of one
  // context — the shape of a batch whose scheduler workers share a trace —
  // while a reader captures and exports the growing tree.
  ExecContext ctx;
  const Span& root = *ctx.trace()->root();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        ScopedSpan span(ctx.StartSpan("w" + std::to_string(t)));
        ExecContext span_ctx = ctx.WithSpan(span.get());
        span_ctx.LogEvent("test", std::to_string(i));
        span_ctx.Attach("i", std::to_string(i));
        // The shared root takes everyone's writes at once.
        ctx.LogEvent("root", "w" + std::to_string(t));
        ctx.Attach("last_writer", std::to_string(t));
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      RecordedRequest r = CaptureRequest(root, "live", root.start_time());
      EXPECT_TRUE(ValidateChromeTrace(RequestsToChromeTrace({r})).ok());
    }
  });
  for (std::thread& th : threads) th.join();

  RecordedRequest final_capture =
      CaptureRequest(root, "final", root.start_time());
  EXPECT_EQ(final_capture.root.TotalSpans(), 1 + kWriters * kPerWriter);
  EXPECT_EQ(TotalEvents(final_capture.root),
            static_cast<size_t>(2 * kWriters * kPerWriter));
  EXPECT_EQ(final_capture.root.events.size(),
            static_cast<size_t>(kWriters * kPerWriter));
  for (const RecordedSpan& child : final_capture.root.children) {
    ASSERT_EQ(child.events.size(), 1u);
    EXPECT_EQ(child.attributes.at("i"), child.events[0].detail);
  }
  EXPECT_EQ(final_capture.root.attributes.count("last_writer"), 1u);
  EXPECT_TRUE(
      ValidateChromeTrace(RequestsToChromeTrace({final_capture})).ok());
}

TEST(ObsConcurrencyTest, TailExemplarStoreOfferSnapshotClearRace) {
  TailExemplarOptions opt;
  opt.top_k = 4;
  opt.shed_k = 2;
  TailExemplarStore store(opt);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 300;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        double ms = static_cast<double>((t * kPerWriter + i) % 97) + 0.5;
        if (!store.WouldAdmit(ms) && i % 7 != 0) continue;
        ExecContext ctx = MakeTracedWork("w");
        ctx.timeline()->Add(Phase::kExecution,
                            static_cast<int64_t>(ms * 1e6));
        store.Offer(ctx, ctx.trace()->root(), "req:" + std::to_string(i),
                    ms, "content", /*shed=*/i % 11 == 0);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<Exemplar> kept = store.Snapshot();
      EXPECT_LE(kept.size(), 2u * (opt.top_k + opt.shed_k));
      // Content exemplars lead, slowest-first.
      for (size_t i = 1; i < kept.size(); ++i) {
        if (kept[i - 1].shed || kept[i].shed) break;
        EXPECT_GE(kept[i - 1].duration_ms, kept[i].duration_ms);
      }
      (void)store.Slowest();
      EXPECT_TRUE(ValidateChromeTrace(store.ToChromeTrace()).ok());
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      store.Clear();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  for (std::thread& th : threads) th.join();

  EXPECT_GE(store.total_offered(), store.total_retained());
  EXPECT_TRUE(ValidateChromeTrace(store.ToChromeTrace()).ok());
}

TEST(ObsConcurrencyTest, SloMonitorRecordSnapshotResetRace) {
  SloMonitor monitor;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        switch ((t + i) % 3) {
          case 0: monitor.Record(static_cast<double>(i % 1000)); break;
          case 1: monitor.RecordBad(); break;
          default: monitor.RecordShed(); break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      SloSnapshot snap = monitor.Snapshot();
      EXPECT_GE(snap.total, snap.good);
      EXPECT_GE(snap.total, 0);
      EXPECT_GE(snap.sheds, 0);
      EXPECT_GE(snap.short_burn, 0.0);
      EXPECT_GE(snap.long_burn, 0.0);
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 5; ++i) {
      monitor.Reset();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  for (std::thread& th : threads) th.join();
  SloSnapshot final_snap = monitor.Snapshot();
  EXPECT_GE(final_snap.total, final_snap.good);
}

TEST(ObsConcurrencyTest, PhaseTimelineCrossThreadAddsAndScopes) {
  // One request's timeline is shared by the serving thread (root-phase
  // scopes) and scheduler workers (detail-phase Adds) — exactly the
  // production sharing shape.
  auto tl = std::make_shared<PhaseTimeline>();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          tl->Add(Phase::kQueueInteractive, 1000);
        } else {
          // Scope stacks are thread-local: concurrent scopes on separate
          // threads must not corrupt each other's pause/resume chains.
          PhaseScope outer(tl.get(), Phase::kExecution);
          PhaseScope inner(tl.get(), Phase::kCacheLookup);
        }
        if (i % 100 == 0) {
          tl->SetRung(t % 4);
          tl->SetOutcome("content");
          (void)tl->ToString();
          (void)tl->attributed_ns();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(tl->phase_ns(Phase::kQueueInteractive),
            static_cast<int64_t>(kThreads / 2) * kPerThread * 1000);
  EXPECT_GE(tl->phase_ns(Phase::kExecution), 0);
  EXPECT_GE(tl->phase_ns(Phase::kCacheLookup), 0);
  EXPECT_EQ(std::string(tl->outcome()), "content");
}

TEST(ObsConcurrencyTest, PlanProfileRegistryRecordSnapshotRace) {
  PlanProfileRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        registry.Record("shape-" + std::to_string(i % 5),
                        static_cast<double>(i % 50) + 0.5);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& p : registry.Snapshot()) {
        EXPECT_LE(p.p50_ms, p.p95_ms);
        EXPECT_LE(p.p95_ms, p.p99_ms);
      }
    }
  });
  threads.emplace_back([&] {
    std::this_thread::yield();
    stop.store(true, std::memory_order_release);
  });
  for (std::thread& th : threads) th.join();

  std::vector<PlanProfileRegistry::Profile> profiles = registry.Snapshot();
  ASSERT_EQ(profiles.size(), 5u);
  int64_t total = 0;
  for (const auto& p : profiles) total += p.count;
  EXPECT_EQ(total, static_cast<int64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace vizq::obs
