#include "src/cache/literal_cache.h"

namespace vizq::cache {

namespace {

// Breadcrumbs carry a recognizable prefix of the query text, not the
// whole statement (texts run to kilobytes).
std::string TextPreview(const std::string& text) {
  constexpr size_t kMax = 60;
  if (text.size() <= kMax) return text;
  return text.substr(0, kMax) + "...";
}

}  // namespace

LiteralCache::LiteralCache(LiteralCacheOptions options) : options_(options) {
  int n = NormalizeShardCount(options_.num_shards);
  shards_.reserve(n);
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const ResultTable> LiteralCache::LookupShared(
    const std::string& query_text, const ExecContext& ctx) {
  int64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = ShardFor(query_text);
  std::shared_ptr<const ResultTable> found;
  {
    TimedLockGuard lock(shard.mu, ctx, "cache.literal.lock_wait_us");
    auto it = shard.entries.find(query_text);
    if (it != shard.entries.end()) {
      Entry& e = *it->second;
      e.usage.last_used_tick = tick;
      ++e.usage.hits;
      ++e.heap_seq;
      found = e.result;
    }
  }
  // Counting and breadcrumbs happen after the shard lock is released.
  if (found != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ctx.Count("cache.literal.hit");
    if (ctx.tracing_enabled()) {
      ctx.LogEvent("cache.literal", "hit text=" + TextPreview(query_text));
    }
    return found;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ctx.Count("cache.literal.miss");
  if (ctx.tracing_enabled()) {
    ctx.LogEvent("cache.literal", "miss text=" + TextPreview(query_text));
  }
  return nullptr;
}

std::optional<ResultTable> LiteralCache::Lookup(const std::string& query_text,
                                                const ExecContext& ctx) {
  auto hit = LookupShared(query_text, ctx);
  if (hit == nullptr) return std::nullopt;
  return *hit;  // copy happens outside any shard lock
}

void LiteralCache::Put(const std::string& query_text, ResultTable result,
                       double eval_cost_ms, const std::string& data_source,
                       const ExecContext& ctx) {
  ctx.Count("cache.literal.insert_attempts");
  if (eval_cost_ms < options_.min_eval_cost_ms) return;
  int64_t bytes = result.ApproxBytes();
  if (bytes > options_.max_result_bytes) return;
  int64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;

  auto entry = std::make_shared<Entry>();
  entry->result = std::make_shared<const ResultTable>(std::move(result));
  entry->data_source = data_source;
  entry->usage.inserted_tick = tick;
  entry->usage.last_used_tick = tick;
  entry->usage.eval_cost_ms = eval_cost_ms;
  entry->usage.bytes = bytes;
  entry->text = query_text;

  Shard& shard = ShardFor(query_text);
  {
    TimedLockGuard lock(shard.mu, ctx, "cache.literal.lock_wait_us");
    if (shard.entries.find(query_text) != shard.entries.end()) return;
    shard.entries.emplace(query_text, entry);
    shard.bytes += bytes;
    shard.heap.Push(entry, options_.eviction);
    if (ctx.tracing_enabled()) {
      ctx.Observe("cache.literal.shard_occupancy",
                  static_cast<double>(shard.entries.size()));
    }
  }
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  EvictIfNeeded(ctx);
}

void LiteralCache::EvictIfNeeded(const ExecContext& ctx) {
  // One shard lock at a time; see IntelligentCache::EvictIfNeeded for the
  // round-robin rationale.
  while (total_bytes_.load(std::memory_order_relaxed) > options_.max_bytes) {
    bool evicted_any = false;
    size_t start = evict_cursor_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0;
         i < shards_.size() &&
         total_bytes_.load(std::memory_order_relaxed) > options_.max_bytes;
         ++i) {
      Shard& shard = *shards_[(start + i) % shards_.size()];
      TimedLockGuard lock(shard.mu, ctx, "cache.literal.lock_wait_us");
      while (total_bytes_.load(std::memory_order_relaxed) >
             options_.max_bytes) {
        std::shared_ptr<Entry> victim = shard.heap.PopVictim(options_.eviction);
        if (victim == nullptr) break;
        victim->evicted = true;
        shard.entries.erase(victim->text);
        shard.bytes -= victim->usage.bytes;
        total_bytes_.fetch_sub(victim->usage.bytes,
                               std::memory_order_relaxed);
        evicted_any = true;
      }
    }
    if (!evicted_any) break;
  }
}

void LiteralCache::InvalidateDataSource(const std::string& data_source) {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second->data_source == data_source) {
        it->second->evicted = true;
        shard.bytes -= it->second->usage.bytes;
        total_bytes_.fetch_sub(it->second->usage.bytes,
                               std::memory_order_relaxed);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void LiteralCache::Clear() {
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [text, entry] : shard.entries) entry->evicted = true;
    total_bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.entries.clear();
    shard.heap.Clear();
    shard.bytes = 0;
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

int64_t LiteralCache::num_entries() const {
  int64_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += static_cast<int64_t>(shard->entries.size());
  }
  return n;
}

std::vector<int64_t> LiteralCache::ShardOccupancy() const {
  std::vector<int64_t> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(static_cast<int64_t>(shard->entries.size()));
  }
  return out;
}

std::vector<LiteralCache::Snapshot> LiteralCache::TakeSnapshot() const {
  std::vector<Snapshot> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [text, entry] : shard->entries) {
      out.push_back(Snapshot{text, entry->data_source, *entry->result,
                             entry->usage.eval_cost_ms});
    }
  }
  return out;
}

void LiteralCache::Restore(std::vector<Snapshot> entries) {
  for (Snapshot& s : entries) {
    Put(s.query_text, std::move(s.result), s.eval_cost_ms, s.data_source);
  }
}

void LiteralCache::SetStatsForRestore(int64_t hits, int64_t misses,
                                      int64_t invalidations) {
  hits_.store(hits, std::memory_order_relaxed);
  misses_.store(misses, std::memory_order_relaxed);
  invalidations_.store(invalidations, std::memory_order_relaxed);
}

}  // namespace vizq::cache
