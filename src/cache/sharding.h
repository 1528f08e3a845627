// Shared machinery for the sharded query caches (§3.2 under multi-user
// load): shard-count normalization, key-to-shard hashing, a mutex guard
// that reports lock-wait time to the request's ExecContext, and the
// lazy-deletion eviction heap both caches use.
//
// Locking protocol (see DESIGN.md "Cache sharding"):
//   * every public cache operation holds at most ONE shard mutex at a
//     time — cross-shard work (invalidation, clears, snapshots, eviction
//     sweeps) locks shards strictly sequentially, so lock-order deadlock
//     is impossible by construction;
//   * cross-shard totals (bytes, stats, the logical tick) are plain
//     atomics, never guarded by shard mutexes.

#ifndef VIZQUERY_CACHE_SHARDING_H_
#define VIZQUERY_CACHE_SHARDING_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/eviction.h"
#include "src/common/exec_context.h"

namespace vizq::cache {

// Clamps a requested shard count to a power of two in [1, 256]; 0 picks
// the default. Power-of-two counts make shard selection a mask.
inline int NormalizeShardCount(int requested) {
  if (requested <= 0) requested = 16;
  requested = std::min(requested, 256);
  int pow2 = 1;
  while (pow2 < requested) pow2 <<= 1;
  return pow2;
}

inline size_t ShardIndexFor(const std::string& key, int num_shards) {
  return std::hash<std::string>{}(key) & static_cast<size_t>(num_shards - 1);
}

// std::lock_guard that optionally times the acquisition and reports it as
// a microsecond histogram on the context (e.g. cache.intelligent.
// lock_wait_us). The clock is only read when the context is traced, so
// benchmark hot paths running under ExecContext::Background() pay nothing.
// Only waits of at least 1 µs are reported: the metric is a contention
// signal, and recording every uncontended ~20 ns acquire would both
// drown it in noise and put two metric updates on the cache hot path.
class TimedLockGuard {
 public:
  TimedLockGuard(std::mutex& mu, const ExecContext& ctx,
                 const char* wait_metric)
      : mu_(mu) {
    if (ctx.tracing_enabled()) {
      auto start = std::chrono::steady_clock::now();
      mu_.lock();
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (us >= 1.0) ctx.Observe(wait_metric, us);
    } else {
      mu_.lock();
    }
  }
  TimedLockGuard(const TimedLockGuard&) = delete;
  TimedLockGuard& operator=(const TimedLockGuard&) = delete;
  ~TimedLockGuard() {
    if (!released_) mu_.unlock();
  }

  // Unlocks before scope exit (idempotent) — lets a hit path drop the
  // shard lock before formatting breadcrumbs.
  void Release() {
    if (!released_) {
      mu_.unlock();
      released_ = true;
    }
  }

 private:
  std::mutex& mu_;
  bool released_ = false;
};

// A max-heap of eviction candidates with lazy deletion. Entries carry a
// `heap_seq` bumped on every usage change and an `evicted` flag set when
// they leave the cache; heap nodes remember the seq they were pushed
// with. PopVictim discards nodes whose entry died and *re-pushes* nodes
// whose priority went stale (a hit made the entry less evictable), so the
// heap holds at most one node per live entry and eviction stays O(log n)
// amortized. EntryT must expose: `EntryUsage usage`, `uint64_t heap_seq`,
// `bool evicted`. All calls must hold the owning shard's mutex.
template <typename EntryT>
class EvictionHeap {
 public:
  void Push(const std::shared_ptr<EntryT>& entry,
            const EvictionConfig& config) {
    nodes_.push_back(Node{EvictionPriority(entry->usage, config),
                          entry->heap_seq, entry});
    std::push_heap(nodes_.begin(), nodes_.end());
  }

  // Highest-priority live entry, removed from the heap; nullptr when no
  // live entry remains. The caller evicts it (and sets entry->evicted).
  std::shared_ptr<EntryT> PopVictim(const EvictionConfig& config) {
    while (!nodes_.empty()) {
      std::pop_heap(nodes_.begin(), nodes_.end());
      Node node = std::move(nodes_.back());
      nodes_.pop_back();
      std::shared_ptr<EntryT> entry = node.entry.lock();
      if (entry == nullptr || entry->evicted) continue;  // lazy deletion
      if (node.seq != entry->heap_seq) {
        // Stale priority (the entry was touched since this node was
        // pushed): reinsert at its current, lower priority.
        Push(entry, config);
        continue;
      }
      return entry;
    }
    return nullptr;
  }

  void Clear() { nodes_.clear(); }
  size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    double priority = 0;  // higher pops first
    uint64_t seq = 0;
    std::weak_ptr<EntryT> entry;  // weak: must not pin evicted results
    bool operator<(const Node& other) const {
      return priority < other.priority;
    }
  };
  std::vector<Node> nodes_;
};

}  // namespace vizq::cache

#endif  // VIZQUERY_CACHE_SHARDING_H_
