#include "src/tde/exec/exchange.h"

#include <chrono>

namespace vizq::tde {

ExchangeOperator::ExchangeOperator(std::vector<OperatorPtr> inputs,
                                   const ExecContext& ctx,
                                   Scheduler* scheduler, TaskClass priority)
    : inputs_(std::move(inputs)),
      ctx_(ctx),
      scheduler_(scheduler != nullptr ? scheduler : &Scheduler::Global()),
      priority_(priority) {}

ExchangeOperator::~ExchangeOperator() { StopProducers(); }

Status ExchangeOperator::Open() {
  // A re-open without an intervening Close() must not leave the previous
  // producers racing the reset below: stop and join them first.
  StopProducers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    cancelled_ = false;
    first_error_ = OkStatus();
    live_producers_ = static_cast<int>(inputs_.size());
  }
  // Re-opening re-scans: rewind the shared morsel cursors before any
  // producer starts claiming (a second Open would otherwise silently
  // return zero rows from the drained queues).
  for (const MorselQueuePtr& q : morsel_queues_) q->Reset();
  consumer_tid_ = std::this_thread::get_id();
  const int n = static_cast<int>(inputs_.size());
  // Zero-initialized: all inputs unclaimed.
  claimed_ = std::make_unique<std::atomic<bool>[]>(n);
  group_ = std::make_unique<TaskGroup>(scheduler_, priority_, ctx_);
  for (int i = 0; i < n; ++i) {
    group_->Spawn(
        [this, i] {
          // The consumer may have run this input inline already (scheduler
          // saturation); whoever wins the claim runs it exactly once.
          if (!ClaimProducer(i)) return;
          // Bounded is a run-time property: when the scheduler sheds this
          // wrapper (or Wait() steals it) it executes on the consumer
          // thread, which cannot simultaneously drain queue_ — respecting
          // max_queue_ there would deadlock against ourselves, exactly
          // like RunOneProducerInline.
          ProducerLoop(i,
                       /*bounded=*/std::this_thread::get_id() !=
                           consumer_tid_);
        },
        "exchange-producer");
  }
  opened_ = true;
  return OkStatus();
}

bool ExchangeOperator::ClaimProducer(int input_index) {
  return !claimed_[input_index].exchange(true, std::memory_order_acq_rel);
}

void ExchangeOperator::ProducerLoop(int input_index, bool bounded) {
  Operator* input = inputs_[input_index].get();
  Status status;
  bool stopped_before_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_before_start = cancelled_;
  }
  if (!stopped_before_start) {
    status = input->Open();
    if (status.ok()) {
      Batch batch;
      while (true) {
        StatusOr<bool> more = input->Next(&batch);
        if (!more.ok()) {
          status = more.status();
          break;
        }
        if (!*more) break;
        std::unique_lock<std::mutex> lock(mu_);
        // The context cannot signal this CV, so a producer blocked on a
        // full queue waits in timed slices and polls it: a cancel or an
        // expired deadline wakes the producer instead of leaving it
        // parked until the consumer drains (which it may never do).
        while (bounded && !cancelled_ && queue_.size() >= max_queue_ &&
               !ctx_.cancelled()) {
          can_push_.wait_for(lock, std::chrono::milliseconds(2));
        }
        if (cancelled_) break;  // consumer-side stop: not an error
        if (Status cont = ctx_.CheckContinue("exchange producer");
            !cont.ok()) {
          // Record the typed error so the consumer surfaces
          // kDeadlineExceeded/kAborted, never a truncated OK stream.
          status = cont;
          break;
        }
        queue_.push_back(std::move(batch));
        can_pop_.notify_one();
      }
      Status close_status = input->Close();
      if (status.ok()) status = close_status;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    --live_producers_;
  }
  can_pop_.notify_all();
}

bool ExchangeOperator::RunOneProducerInline() {
  for (int i = 0; i < static_cast<int>(inputs_.size()); ++i) {
    if (ClaimProducer(i)) {
      // Unbounded: the consumer cannot simultaneously drain the queue, so
      // respecting max_queue_ here would deadlock against ourselves.
      // Memory stays bounded by the input's size.
      ProducerLoop(i, /*bounded=*/false);
      return true;
    }
  }
  return false;
}

StatusOr<bool> ExchangeOperator::Next(Batch* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  int idle_spins = 0;
  while (true) {
    if (!queue_.empty()) {
      *batch = std::move(queue_.front());
      queue_.pop_front();
      can_push_.notify_one();
      return true;
    }
    if (live_producers_ == 0) break;
    VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("exchange consumer"));
    can_pop_.wait_for(lock, std::chrono::milliseconds(2));
    if (queue_.empty() && live_producers_ > 0 && ++idle_spins >= 5) {
      // ~10ms with nothing to read: the scheduler may be saturated and
      // our producers still queued. Help out by running an unstarted
      // input inline — the Exchange drains even with zero free workers.
      idle_spins = 0;
      lock.unlock();
      RunOneProducerInline();
      lock.lock();
    }
  }
  if (!first_error_.ok()) return first_error_;
  return false;
}

void ExchangeOperator::StopProducers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  can_push_.notify_all();
  if (group_ != nullptr) {
    group_->Wait();
    group_.reset();
  }
}

Status ExchangeOperator::Close() {
  StopProducers();
  std::lock_guard<std::mutex> lock(mu_);
  opened_ = false;
  return first_error_;
}

}  // namespace vizq::tde
