#include "src/federation/connection_pool.h"

#include <algorithm>
#include <chrono>

namespace vizq::federation {

PooledConnection::PooledConnection(PooledConnection&& other) noexcept
    : pool_(other.pool_), conn_(other.conn_), slot_(other.slot_) {
  other.pool_ = nullptr;
  other.conn_ = nullptr;
  other.slot_ = -1;
}

PooledConnection& PooledConnection::operator=(
    PooledConnection&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    conn_ = other.conn_;
    slot_ = other.slot_;
    other.pool_ = nullptr;
    other.conn_ = nullptr;
    other.slot_ = -1;
  }
  return *this;
}

PooledConnection::~PooledConnection() { Release(); }

void PooledConnection::Release() {
  if (pool_ != nullptr) {
    pool_->ReturnSlot(slot_);
    pool_ = nullptr;
    conn_ = nullptr;
    slot_ = -1;
  }
}

ConnectionPool::ConnectionPool(std::shared_ptr<DataSource> source,
                               int max_size)
    : ConnectionPool(std::move(source), PoolOptions{max_size, 30000}) {}

ConnectionPool::ConnectionPool(std::shared_ptr<DataSource> source,
                               PoolOptions options)
    : source_(std::move(source)),
      options_(options),
      max_size_(options.max_size > 0
                    ? options.max_size
                    : source_->capabilities().max_connections) {}

ConnectionPool::~ConnectionPool() { CloseAll(); }

StatusOr<PooledConnection> ConnectionPool::Acquire(const ExecContext& ctx) {
  return AcquirePreferring(ctx, {});
}

StatusOr<PooledConnection> ConnectionPool::AcquirePreferring(
    const ExecContext& ctx, const std::vector<std::string>& temp_tables) {
  using Clock = std::chrono::steady_clock;
  // Total acquisition latency (contended or not) — unlike pool.wait_ms,
  // which only fires when the caller actually blocked, pool.acquire_us is
  // observed on every successful acquire so dashboards always see it.
  const bool timing = ctx.tracing_enabled();
  const Clock::time_point acquire_started =
      timing ? Clock::now() : Clock::time_point{};
  std::unique_lock<std::mutex> lock(mu_);
  ++op_counter_;

  bool waited = false;
  Clock::time_point wait_started{};
  // The pool's own bound: even deadline-less callers cannot block forever.
  const bool has_cap = options_.max_wait_ms > 0;
  const Clock::time_point wait_cap =
      has_cap ? Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                   options_.max_wait_ms * 1000))
              : Clock::time_point::max();

  // Called on every successful acquisition path.
  auto record_acquired = [&] {
    if (waited) {
      ctx.Observe("pool.wait_ms",
                  std::chrono::duration<double, std::milli>(Clock::now() -
                                                            wait_started)
                      .count());
    }
    if (timing) {
      ctx.Observe("pool.acquire_us",
                  std::chrono::duration<double, std::micro>(Clock::now() -
                                                            acquire_started)
                      .count());
    }
  };

  while (true) {
    Status alive = ctx.CheckContinue("connection pool acquire");
    if (!alive.ok()) {
      if (alive.code() == StatusCode::kDeadlineExceeded) {
        ++stats_.timeouts;
        ctx.Count("pool.timeouts");
      }
      return alive;
    }
    // 1. Idle connection holding a wanted temp table?
    if (!temp_tables.empty()) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (s.in_use || s.conn == nullptr) continue;
        for (const std::string& t : temp_tables) {
          if (s.conn->HasTempTable(t)) {
            s.in_use = true;
            s.last_used_op = op_counter_;
            ++stats_.reused;
            ++stats_.temp_affinity;
            record_acquired();
            return PooledConnection(this, s.conn.get(), static_cast<int>(i));
          }
        }
      }
    }
    // 2. Any idle connection.
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.in_use && s.conn != nullptr) {
        s.in_use = true;
        s.last_used_op = op_counter_;
        ++stats_.reused;
        record_acquired();
        return PooledConnection(this, s.conn.get(), static_cast<int>(i));
      }
    }
    // 3. Room to open a new one: an evicted (empty) slot, else a fresh
    // one below the cap.
    int slot_idx = -1;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].in_use && slots_[i].conn == nullptr) {
        slot_idx = static_cast<int>(i);
        break;
      }
    }
    if (slot_idx < 0 && static_cast<int>(slots_.size()) < max_size_) {
      slot_idx = static_cast<int>(slots_.size());
      slots_.emplace_back();
    }
    if (slot_idx >= 0) {
      slots_[slot_idx].in_use = true;
      slots_[slot_idx].last_used_op = op_counter_;
      lock.unlock();
      auto conn = source_->Connect();
      lock.lock();
      if (!conn.ok()) {
        slots_[slot_idx].in_use = false;
        available_cv_.notify_one();
        return conn.status();
      }
      slots_[slot_idx].conn = std::move(*conn);
      ++stats_.opened;
      record_acquired();
      return PooledConnection(this, slots_[slot_idx].conn.get(), slot_idx);
    }
    // 4. Wait for a release. Short timed slices keep the wait responsive
    // to cancellation (which does not signal the pool's CV) while the
    // predicate handles normal releases promptly.
    if (!waited) {
      waited = true;
      wait_started = Clock::now();
      ++stats_.waits;
      ctx.Count("pool.waits");
      if (ctx.tracing_enabled()) {
        ctx.LogEvent("pool", "wait all " + std::to_string(max_size_) +
                                 " connections busy");
      }
    }
    if (has_cap && Clock::now() >= wait_cap) {
      ++stats_.timeouts;
      ctx.Count("pool.timeouts");
      return ResourceExhausted(
          "connection pool acquire timed out after " +
          std::to_string(options_.max_wait_ms) + " ms (" +
          std::to_string(max_size_) + " connections all busy)");
    }
    Clock::time_point slice =
        Clock::now() + std::chrono::milliseconds(5);
    slice = std::min(slice, wait_cap);
    if (ctx.has_deadline()) slice = std::min(slice, ctx.deadline());
    available_cv_.wait_until(lock, slice, [this] {
      for (const Slot& s : slots_) {
        if (!s.in_use && s.conn != nullptr) return true;
      }
      return false;
    });
  }
}

void ConnectionPool::ReturnSlot(int slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[slot].in_use = false;
    slots_[slot].last_used_op = op_counter_;
  }
  available_cv_.notify_one();
}

void ConnectionPool::EvictIdle(int64_t max_idle_acquisitions) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.conn != nullptr && !s.in_use &&
        op_counter_ - s.last_used_op >= max_idle_acquisitions) {
      s.conn->Close();
      s.conn.reset();
      ++stats_.evicted;
    }
  }
  // Compact trailing empty slots so the pool can re-open later.
  while (!slots_.empty() && slots_.back().conn == nullptr &&
         !slots_.back().in_use) {
    slots_.pop_back();
  }
}

void ConnectionPool::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.conn != nullptr) s.conn->Close();
  }
  slots_.clear();
}

int ConnectionPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(slots_.size());
}

int ConnectionPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const Slot& s : slots_) {
    if (!s.in_use && s.conn != nullptr) ++n;
  }
  return n;
}

}  // namespace vizq::federation
