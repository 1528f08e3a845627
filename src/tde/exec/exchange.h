// The Exchange operator (§4.2.1): takes N inputs and produces one output,
// running each input as a producer task — exactly the restricted N-to-1
// form shipped in Tableau 9.0 (no repartitioning, no order preservation;
// §4.2.2 explains the restriction and its consequence: everything above
// the Exchange runs serially).
//
// Producers are kInteractive tasks on the process-wide Scheduler
// (src/common/scheduler.h), not raw threads. Three consequences:
//
//   * cooperative cancellation: a producer blocked on the full output
//     queue wakes on the ExecContext's cancellation/deadline, records the
//     context's typed error and exits — the consumer surfaces
//     kDeadlineExceeded/kAborted, never a silently truncated OK result;
//   * saturation robustness: every producer input is guarded by a claim
//     flag. When the scheduler is saturated (queued producers not yet
//     dispatched) and the consumer has nothing to read, the consumer
//     claims an unstarted input and runs it inline (unbounded buffering),
//     so an Exchange can always drain even with zero available workers;
//   * observability: producer wait/run times land in the sched.* metrics
//     and scheduler spans like every other task.

#ifndef VIZQUERY_TDE_EXEC_EXCHANGE_H_
#define VIZQUERY_TDE_EXEC_EXCHANGE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/scheduler.h"
#include "src/tde/exec/morsel.h"
#include "src/tde/exec/operators.h"

namespace vizq::tde {

class ExchangeOperator : public Operator {
 public:
  // All inputs must share one output schema. `scheduler` defaults to
  // Scheduler::Global(). Producers are submitted under `priority` — the
  // query's class, threaded in by the translator.
  explicit ExchangeOperator(
      std::vector<OperatorPtr> inputs,
      const ExecContext& ctx = ExecContext::Background(),
      Scheduler* scheduler = nullptr,
      TaskClass priority = TaskClass::kInteractive);
  ~ExchangeOperator() override;

  const BatchSchema& schema() const override { return inputs_[0]->schema(); }
  Status Open() override;
  StatusOr<bool> Next(Batch* batch) override;
  Status Close() override;

  int num_inputs() const { return static_cast<int>(inputs_.size()); }

  // Registers a morsel queue shared by this Exchange's scan inputs. Open()
  // rewinds every registered queue before producers start, so re-opening
  // the operator tree re-scans instead of seeing drained cursors.
  void AddMorselQueue(MorselQueuePtr queue) {
    morsel_queues_.push_back(std::move(queue));
  }

 private:
  // Runs input `input_index` to completion, pushing batches. `bounded`
  // producers respect max_queue_; the consumer's inline fallback runs
  // unbounded (buffering everything) to avoid blocking on itself.
  void ProducerLoop(int input_index, bool bounded);
  // Atomically claims an input; false when someone else already ran it.
  bool ClaimProducer(int input_index);
  // Consumer-side help under scheduler saturation: claim one unstarted
  // input and run it inline. False when every input is claimed.
  bool RunOneProducerInline();
  void StopProducers();

  std::vector<OperatorPtr> inputs_;
  ExecContext ctx_;
  Scheduler* scheduler_;
  TaskClass priority_;

  std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<Batch> queue_;
  size_t max_queue_ = 8;
  int live_producers_ = 0;
  bool cancelled_ = false;
  Status first_error_;
  std::unique_ptr<TaskGroup> group_;
  std::unique_ptr<std::atomic<bool>[]> claimed_;
  std::vector<MorselQueuePtr> morsel_queues_;
  // The thread that called Open() — the consumer. A producer wrapper
  // executing on it (shed or stolen) must run unbounded: the consumer
  // cannot drain its own queue while inside the producer.
  std::thread::id consumer_tid_;
  bool opened_ = false;
};

}  // namespace vizq::tde

#endif  // VIZQUERY_TDE_EXEC_EXCHANGE_H_
