#include "src/cache/persistence.h"

#include <fstream>

#include "src/common/binary_io.h"

namespace vizq::cache {

namespace {
// v1 ('VQCH'): entries only. v2 ('VQC2') appends both caches' hit/miss
// statistics — including the per-MissReason breakdown — so a restored
// cache reports the same hit rates it had when saved. v1 files remain
// readable (stats restore as zero).
constexpr uint32_t kMagicV1 = 0x56514348;  // 'VQCH'
constexpr uint32_t kMagicV2 = 0x56514332;  // 'VQC2'
}  // namespace

std::string SerializeCaches(const IntelligentCache& intelligent,
                            const LiteralCache& literal) {
  BinaryWriter w;
  w.U32(kMagicV2);
  auto iq = intelligent.TakeSnapshot();
  w.U32(static_cast<uint32_t>(iq.size()));
  for (const IntelligentCache::Snapshot& s : iq) {
    w.Str(s.descriptor.Serialize());
    w.Str(s.result.Serialize());
    w.F64(s.eval_cost_ms);
  }
  auto lq = literal.TakeSnapshot();
  w.U32(static_cast<uint32_t>(lq.size()));
  for (const LiteralCache::Snapshot& s : lq) {
    w.Str(s.query_text);
    w.Str(s.data_source);
    w.Str(s.result.Serialize());
    w.F64(s.eval_cost_ms);
  }
  // v2 stats block. The miss-reason array is length-prefixed so adding
  // reasons stays forward-compatible within v2.
  CacheStats is = intelligent.stats();
  w.I64(is.exact_hits);
  w.I64(is.derived_hits);
  w.I64(is.misses);
  w.I64(is.evictions);
  w.I64(is.inserts);
  w.I64(is.invalidations);
  w.U32(static_cast<uint32_t>(is.miss_reasons.size()));
  for (int64_t count : is.miss_reasons) w.I64(count);
  w.I64(literal.hits());
  w.I64(literal.misses());
  w.I64(literal.invalidations());
  return w.TakeBytes();
}

Status DeserializeCaches(const std::string& bytes,
                         IntelligentCache* intelligent,
                         LiteralCache* literal) {
  BinaryReader r(bytes);
  uint32_t magic;
  if (!r.U32(&magic) || (magic != kMagicV1 && magic != kMagicV2)) {
    return DataLoss("not a VizQuery cache file");
  }
  const bool has_stats = magic == kMagicV2;
  // An intelligent-cache entry is at least two strings and a cost, a
  // literal-cache entry three strings and a cost.
  uint32_t n;
  if (!r.Count(&n, 4 + 4 + 8)) return DataLoss("truncated cache file");
  std::vector<IntelligentCache::Snapshot> iq;
  for (uint32_t i = 0; i < n; ++i) {
    std::string desc_bytes, result_bytes;
    double cost;
    if (!r.Str(&desc_bytes) || !r.Str(&result_bytes) || !r.F64(&cost)) {
      return DataLoss("truncated intelligent-cache entry");
    }
    VIZQ_ASSIGN_OR_RETURN(query::AbstractQuery desc,
                          query::AbstractQuery::Deserialize(desc_bytes));
    VIZQ_ASSIGN_OR_RETURN(ResultTable result,
                          ResultTable::Deserialize(result_bytes));
    iq.push_back(
        IntelligentCache::Snapshot{std::move(desc), std::move(result), cost});
  }
  if (!r.Count(&n, 4 + 4 + 4 + 8)) return DataLoss("truncated cache file");
  std::vector<LiteralCache::Snapshot> lq;
  for (uint32_t i = 0; i < n; ++i) {
    LiteralCache::Snapshot s;
    std::string result_bytes;
    if (!r.Str(&s.query_text) || !r.Str(&s.data_source) ||
        !r.Str(&result_bytes) || !r.F64(&s.eval_cost_ms)) {
      return DataLoss("truncated literal-cache entry");
    }
    VIZQ_ASSIGN_OR_RETURN(s.result, ResultTable::Deserialize(result_bytes));
    lq.push_back(std::move(s));
  }
  CacheStats istats;
  int64_t lit_hits = 0, lit_misses = 0, lit_invalidations = 0;
  if (has_stats) {
    uint32_t num_reasons;
    if (!r.I64(&istats.exact_hits) || !r.I64(&istats.derived_hits) ||
        !r.I64(&istats.misses) || !r.I64(&istats.evictions) ||
        !r.I64(&istats.inserts) || !r.I64(&istats.invalidations) ||
        !r.Count(&num_reasons, 8)) {
      return DataLoss("truncated cache-stats block");
    }
    for (uint32_t i = 0; i < num_reasons; ++i) {
      int64_t count;
      if (!r.I64(&count)) return DataLoss("truncated miss-reason counts");
      // A newer writer may know more reasons than we do; drop the extras.
      if (i < istats.miss_reasons.size()) istats.miss_reasons[i] = count;
    }
    if (!r.I64(&lit_hits) || !r.I64(&lit_misses) ||
        !r.I64(&lit_invalidations)) {
      return DataLoss("truncated literal-cache stats");
    }
  }
  if (!r.AtEnd()) return DataLoss("trailing bytes in cache file");
  if (intelligent != nullptr) {
    intelligent->Restore(std::move(iq));
    // Restore() inserts through Put(), which counts insert attempts; the
    // saved counters overwrite that so round-trips are exact.
    if (has_stats) intelligent->SetStatsForRestore(istats);
  }
  if (literal != nullptr) {
    literal->Restore(std::move(lq));
    if (has_stats) {
      literal->SetStatsForRestore(lit_hits, lit_misses, lit_invalidations);
    }
  }
  return OkStatus();
}

Status SaveCachesToFile(const IntelligentCache& intelligent,
                        const LiteralCache& literal,
                        const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return InvalidArgument("cannot open '" + path + "' for writing");
  std::string bytes = SerializeCaches(intelligent, literal);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) return Internal("write to '" + path + "' failed");
  return OkStatus();
}

Status LoadCachesFromFile(const std::string& path,
                          IntelligentCache* intelligent,
                          LiteralCache* literal) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return NotFound("cannot open '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return DeserializeCaches(bytes, intelligent, literal);
}

}  // namespace vizq::cache
