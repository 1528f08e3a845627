// The process-wide priority task scheduler: one audited concurrency
// surface for every execution layer (DESIGN.md §10).
//
// The paper's responsiveness story has many concurrent activities sharing
// one client machine: concurrent batch submission (§3.5), speculative
// background prefetch, and intra-query parallelism via Exchange (§4.2).
// Before this scheduler each subsystem spun up its own threads and they
// fought blindly for cores; now all of them submit tasks here:
//
//   * three priority classes, kInteractive > kBatch > kBackground, with
//     FIFO order inside a class refined by earliest-deadline-first for
//     tasks whose ExecContext carries a deadline;
//   * admission control: per-class bounded queues; a full queue sheds the
//     task with a typed kResourceExhausted status instead of queueing
//     unboundedly (TaskGroup turns a shed into inline execution on the
//     submitter, so correctness never depends on admission);
//   * anti-starvation: every Nth dispatch picks from the *lowest*
//     non-empty class, so background work keeps trickling through under
//     sustained interactive load;
//   * class caps: non-interactive work may only occupy a fraction of the
//     workers, keeping reserve capacity for interactive arrivals (tasks
//     spawned from inside a worker bypass the caps — a capped parent
//     blocked on its children must not be able to wedge the process);
//   * cooperative cancellation: tasks carry an ExecContext; a task marked
//     skip-if-cancelled whose context is already cancelled/expired at
//     dispatch is dropped (counted) without running;
//   * observability: per-class submitted/completed/shed counters and
//     queue-depth gauges, task wait/run histograms (sched.* names in the
//     global metrics registry) and a "sched:<name>" span on traced
//     contexts, so a request's span tree (and any tail exemplar captured
//     from it) shows scheduling alongside execution.
//
// Workers are hosted on an internal ThreadPool — the pool's only
// remaining production role. The pool is intentionally oversubscribed
// relative to the core count: most tasks in this codebase model I/O
// (simulated backends sleep), so workers spend their time blocked, not
// computing.
//
// Scheduler::Global() is the process singleton every migrated layer uses;
// tests construct private instances with small worker counts.

#ifndef VIZQUERY_COMMON_SCHEDULER_H_
#define VIZQUERY_COMMON_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace vizq {

enum class TaskClass : uint8_t {
  kInteractive = 0,  // user-visible query work (Exchange producers,
                     // dashboard batches)
  kBatch = 1,        // bulk work with a caller waiting, but no user staring
  kBackground = 2,   // speculation: prefetch, connection prewarm
};
inline constexpr int kNumTaskClasses = 3;

const char* TaskClassName(TaskClass c);

struct SchedulerOptions {
  // 0 resolves to an oversubscribed default (see scheduler.cc): tasks here
  // mostly sleep on simulated I/O, so more workers than cores is correct.
  int num_threads = 0;

  // Admission control: Submit returns kResourceExhausted once this many
  // tasks of the class are waiting. Background is tighter — speculation
  // is the first thing to shed under pressure.
  int max_queued_interactive = 4096;
  int max_queued_batch = 4096;
  int max_queued_background = 1024;

  // Fraction of workers non-interactive (batch+background) tasks may
  // occupy at once; the remainder is reserve capacity for interactive
  // arrivals. Background alone is capped at half of this.
  double non_interactive_share = 0.75;

  // Every Nth dispatch picks from the lowest-priority non-empty class, so
  // kBackground cannot starve forever under sustained kInteractive load.
  int starvation_boost_period = 16;

  // Per-session fair admission (defense in depth under the server-level
  // AdmissionController): at most this many tasks of ONE session may be
  // queued across all classes; excess submits shed with
  // kResourceExhausted and count into session_shed. 0 = no per-session
  // cap. Tasks without a session (session_id == 0) are exempt.
  int max_queued_per_session = 0;

  // false = one undifferentiated FIFO ignoring class, deadline and caps —
  // the "single shared pool" baseline bench_scheduler measures against.
  bool prioritize = true;
};

struct SubmitOptions {
  // Labels the task's span ("sched:<name>") and shows up in traces.
  std::string name;
  // Drop the task (without running it) when its context is already
  // cancelled or past deadline at dispatch. Only for fire-and-forget
  // work; joined work runs so its completion bookkeeping happens.
  bool skip_if_cancelled = false;
  // The user session this task belongs to; 0 = sessionless (exempt from
  // the per-session queue cap). Set by QueryService from
  // BatchOptions::session_id so one hot session saturating the queues
  // sheds its own work instead of everyone's.
  uint64_t session_id = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Enqueues `fn` under `cls`. kResourceExhausted when the class queue is
  // full (load shed), kFailedPrecondition after Shutdown(). The context
  // supplies the deadline used for intra-class ordering and the trace the
  // task's "sched:" span attaches to.
  Status Submit(TaskClass cls, std::function<void()> fn,
                const ExecContext& ctx = ExecContext::Background(),
                SubmitOptions opts = {});

  // Completes every queued task, joins the workers, and rejects further
  // submits. Idempotent; called by the destructor.
  void Shutdown();

  int num_threads() const { return num_threads_; }
  int64_t queue_depth(TaskClass cls) const;
  int64_t submitted(TaskClass cls) const;
  int64_t completed(TaskClass cls) const;
  int64_t shed(TaskClass cls) const;
  int64_t skipped_cancelled(TaskClass cls) const;
  // Submits shed by the per-session cap (also counted in shed(cls)).
  int64_t session_shed() const;
  // Currently queued tasks of one session (0 when unknown).
  int64_t session_queued(uint64_t session_id) const;

  // Blocks until completed(cls) >= n or `timeout` elapses; returns whether
  // the target was reached. The CV-latch replacement for sleep-poll loops
  // in tests and for harness drains.
  bool WaitForCompleted(TaskClass cls, int64_t n,
                        std::chrono::milliseconds timeout);

  // The process-wide scheduler (leaked singleton, like GlobalMetrics()).
  static Scheduler& Global();

  // True when the calling thread is one of this scheduler's workers —
  // i.e. the caller is inside a task. Nested spawns from such threads
  // bypass the class caps (see the header comment).
  bool OnWorkerThread() const;

 private:
  struct Task {
    std::function<void()> fn;
    ExecContext ctx;
    std::string name;
    TaskClass cls = TaskClass::kInteractive;
    uint64_t seq = 0;
    uint64_t session_id = 0;
    bool has_deadline = false;
    bool skip_if_cancelled = false;
    bool nested = false;  // submitted from a worker of this scheduler
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point enqueued{};
  };

  // Heap order: earliest deadline first, then FIFO by submit sequence;
  // `true` when `a` should dispatch after `b`.
  static bool Worse(const Task& a, const Task& b);

  void WorkerLoop();
  // Picks the next runnable task under mu_; false when nothing is
  // dispatchable right now (empty, or capped classes only).
  bool PickTaskLocked(Task* out);
  // Extracts the best (by dispatch order) cap-bypassing nested task from
  // a capped class's heap — nested tasks may sit behind non-nested ones,
  // so the front alone does not decide dispatchability. False when the
  // queue holds no nested task.
  static bool PopNestedLocked(std::vector<Task>& q, Task* out);
  void RunTask(Task task);
  int64_t TotalQueuedLocked() const;
  void PublishDepthGauge(TaskClass cls, size_t depth) const;

  SchedulerOptions options_;
  int num_threads_ = 0;
  int max_non_interactive_running_ = 0;
  int max_background_running_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  // Notified on every task completion; WaitForCompleted parks here.
  std::condition_variable completed_cv_;
  // Per-class min-heaps ordered by (deadline, seq): EDF among deadlined
  // tasks, then FIFO (no-deadline tasks sort last, among themselves FIFO).
  std::vector<Task> queues_[kNumTaskClasses];
  uint64_t next_seq_ = 0;
  uint64_t dispatches_ = 0;
  int running_non_interactive_ = 0;
  int running_background_ = 0;
  bool stop_ = false;

  int64_t submitted_[kNumTaskClasses] = {};
  int64_t completed_[kNumTaskClasses] = {};
  int64_t shed_[kNumTaskClasses] = {};
  int64_t skipped_cancelled_[kNumTaskClasses] = {};
  // Queued tasks per session (entries erased at zero) and the count of
  // submits shed by the per-session cap.
  std::map<uint64_t, int64_t> session_queued_;
  int64_t session_shed_ = 0;

  // The worker host. Kept last so it is destroyed (joined) first.
  std::unique_ptr<ThreadPool> pool_;
};

// Joins a fan-out of scheduler tasks — the replacement for the per-call
// ThreadPool / CountDownLatch pattern. Spawn() enqueues onto the group's
// scheduler and class; a shed or post-shutdown submit runs the task inline
// on the spawning (or pumping) thread, so the group never loses work.
// Wait() blocks until every spawned task finished; the destructor waits.
// When Wait() runs on a scheduler worker it does not merely park: it
// claims the group's still-queued tasks and runs them inline, so workers
// blocked joining nested fan-outs cannot starve the very tasks they wait
// for (every worker parked in some Wait() would otherwise be a circular
// wait under saturation).
//
// `max_concurrency` > 0 bounds how many of the group's tasks are in
// flight at once (the §3.5 max_parallel_queries semantics); further
// spawns queue inside the group and are released as tasks finish.
class TaskGroup {
 public:
  // `session_id` tags every task the group submits (per-session fair
  // admission); a session-cap shed runs inline like any other shed.
  TaskGroup(Scheduler* scheduler, TaskClass cls,
            const ExecContext& ctx = ExecContext::Background(),
            int max_concurrency = 0, uint64_t session_id = 0);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn, std::string name = {});
  void Wait();

  int64_t spawned() const;
  // Tasks that were shed by the scheduler and ran inline instead.
  int64_t ran_inline() const;
  // Still-queued tasks a Wait()ing scheduler worker claimed and ran
  // itself instead of parking.
  int64_t stolen() const;

 private:
  struct Pending {
    std::function<void()> fn;
    std::string name;
  };
  // A task handed to the scheduler. The claim flag picks exactly one
  // runner: the dispatched wrapper, a Wait()ing worker that stole it, or
  // the pumping thread when the submit itself failed.
  struct Submitted {
    std::function<void()> fn;
    std::atomic<bool> claimed{false};
  };
  // All group state sits behind a shared_ptr: wrappers queued in the
  // scheduler capture it, so a wrapper that loses its claim (its task was
  // stolen) still runs safely after the TaskGroup object is gone, and a
  // worker finishing a task can pump successors without racing group
  // destruction.
  struct State {
    Scheduler* scheduler = nullptr;
    TaskClass cls = TaskClass::kInteractive;
    ExecContext ctx;
    int max_concurrency = 0;
    uint64_t session_id = 0;

    std::mutex mu;
    std::condition_variable done_cv;
    std::deque<Pending> pending;
    // Submitted-but-possibly-unstarted wrappers: the steal window for
    // Wait()ing workers. Claimed entries are trimmed lazily.
    std::deque<std::shared_ptr<Submitted>> submitted;
    int64_t outstanding = 0;  // spawned, not yet finished
    int64_t in_flight = 0;    // submitted or running
    int64_t spawned = 0;
    int64_t ran_inline = 0;
    int64_t stolen = 0;
  };

  // Submits pending tasks while below max_concurrency, then applies
  // `finished` completions to outstanding (notifying waiters) as its
  // very last touch of the counters. Call without holding s->mu.
  static void Pump(const std::shared_ptr<State>& s, int64_t finished);
  // Runs a claimed task and its completion bookkeeping, then pumps.
  static void RunClaimed(const std::shared_ptr<State>& s,
                         const std::shared_ptr<Submitted>& task);
  // Pops the first unclaimed submitted wrapper, claiming it; null when
  // none remain. Requires s.mu held.
  static std::shared_ptr<Submitted> StealLocked(State& s);

  std::shared_ptr<State> state_;
};

}  // namespace vizq

#endif  // VIZQUERY_COMMON_SCHEDULER_H_
