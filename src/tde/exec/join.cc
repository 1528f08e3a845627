#include "src/tde/exec/join.h"

#include <chrono>

#include "src/common/rng.h"
#include "src/tde/exec/morsel.h"

namespace vizq::tde {

namespace {

// Deadline/cancel poll frequency for the probe side (batches) and the
// serial build / partition-insert loops (rows).
constexpr int64_t kCtxPollBatches = 4;
constexpr int64_t kBuildPollRows = 4096;
// Build-side morsel size for the parallel hash stage.
constexpr int64_t kBuildMorselRows = 8192;
// Partition-count ceiling; partitions are a power of two >= build_dop.
constexpr int kMaxBuildPartitions = 64;

// Combined key hash of build/probe row `r`; true when any key is null
// (null keys never match, §4.2.2).
inline bool HashKeysAt(const std::vector<ColumnVector>& key_cols, int64_t r,
                       uint64_t* h) {
  uint64_t acc = 0x9e3779b97f4a7c15ULL;
  for (const ColumnVector& kc : key_cols) {
    if (kc.IsNull(r)) return true;
    acc = HashCombine(acc, kc.HashAt(r));
  }
  *h = acc;
  return false;
}

}  // namespace

SharedBuildState::SharedBuildState(OperatorPtr right,
                                   std::vector<ExprPtr> right_keys,
                                   JoinBuildOptions options)
    : right_(std::move(right)),
      right_keys_(std::move(right_keys)),
      options_(options) {}

Status SharedBuildState::EnsureBuilt(const ExecContext& ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  while (phase_ == BuildPhase::kBuilding) {
    // Another fraction is building. Wait without holding the builder
    // hostage, polling our own context so a cancelled waiter leaves even
    // if the builder is long-running.
    VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("hash join build (waiting)"));
    build_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  if (phase_ == BuildPhase::kDone) return OkStatus();
  phase_ = BuildPhase::kBuilding;
  lock.unlock();

  Status s = Build(ctx);

  lock.lock();
  // Success latches kDone (build-once); failure returns to kIdle so a
  // later Open() — e.g. with a fresh context — may retry from scratch.
  phase_ = s.ok() ? BuildPhase::kDone : BuildPhase::kIdle;
  build_cv_.notify_all();
  return s;
}

Status SharedBuildState::Build(const ExecContext& ctx) {
  VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("hash join build"));
  ScopedSpan span(ctx.StartSpan("op:join-build"));
  // Reset in case a previous attempt failed partway through.
  build_ = Batch{};
  key_cols_.clear();
  partitions_.clear();
  partition_mask_ = 0;

  // Materialize the build side. Batches drain serially (cheap moves);
  // the per-column appends fan out — output columns are independent — so
  // a wide or large build side materializes at column parallelism under
  // the same task policy as the hash/insert stages instead of serially.
  build_ = right_->schema().NewBatch();
  VIZQ_RETURN_IF_ERROR(right_->Open());
  std::vector<Batch> staged;
  int64_t rows = 0;
  {
    Batch b;
    while (true) {
      VIZQ_ASSIGN_OR_RETURN(bool more, right_->Next(&b));
      if (!more) break;
      if ((staged.size() % 16) == 0) {
        VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("hash join build"));
      }
      rows += b.has_selection ? static_cast<int64_t>(b.selection.size())
                              : b.num_rows;
      staged.push_back(std::move(b));
      b = Batch{};
    }
  }
  VIZQ_RETURN_IF_ERROR(right_->Close());
  const int ncols = static_cast<int>(build_.columns.size());
  if (ncols > 0 && rows > 0) {
    std::vector<Status> mat_status(ncols);
    auto mat_task = [&](int c) {
      Status s;
      for (const Batch& b : staged) {
        s = ctx.CheckContinue("hash join build");
        if (!s.ok()) break;
        const int64_t live = b.has_selection
                                 ? static_cast<int64_t>(b.selection.size())
                                 : b.num_rows;
        for (int64_t i = 0; i < live; ++i) {
          const int64_t r = b.has_selection ? b.selection[i] : i;
          build_.columns[c].AppendFrom(b.columns[c], r);
        }
      }
      mat_status[c] = s;
    };
    if (options_.build_dop > 1) {
      RunTasks(ncols, options_.priority, ctx, "join-build", mat_task);
    } else {
      for (int c = 0; c < ncols; ++c) mat_task(c);
    }
    for (const Status& s : mat_status) {
      VIZQ_RETURN_IF_ERROR(s);
    }
  }
  build_.num_rows = rows;
  staged.clear();
  key_cols_.reserve(right_keys_.size());
  for (const ExprPtr& k : right_keys_) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*k, build_));
    key_cols_.push_back(std::move(v));
  }

  if (options_.build_dop > 1 && rows >= options_.min_parallel_rows) {
    return BuildPartitioned(ctx, rows);
  }
  return BuildSerial(ctx, rows);
}

Status SharedBuildState::BuildSerial(const ExecContext& ctx, int64_t rows) {
  partitions_.resize(1);
  partition_mask_ = 0;
  auto& table = partitions_[0];
  for (int64_t r = 0; r < rows; ++r) {
    if ((r % kBuildPollRows) == 0) {
      VIZQ_RETURN_IF_ERROR(ctx.CheckContinue("hash join build"));
    }
    uint64_t h = 0;
    if (HashKeysAt(key_cols_, r, &h)) continue;  // null keys never match
    table[h].push_back(r);
  }
  return OkStatus();
}

Status SharedBuildState::BuildPartitioned(const ExecContext& ctx,
                                          int64_t rows) {
  const int dop = std::min(options_.build_dop, kMaxBuildPartitions);
  int parts = 1;
  while (parts < dop) parts <<= 1;
  partitions_.assign(parts, {});
  partition_mask_ = static_cast<uint64_t>(parts - 1);
  hashes_.assign(rows, 0);
  null_key_.assign(rows, 0);

  // Stage 1 — morsel-parallel key hashing: dop tasks claim row ranges and
  // fill hashes_/null_key_ over disjoint ranges (no locking).
  MorselQueue queue(rows, kBuildMorselRows);
  std::vector<Status> task_status(dop);
  RunTasks(dop, options_.priority, ctx, "join-build", [&](int t) {
    int64_t morsels = 0;
    int64_t begin = 0, end = 0;
    Status s;
    while (queue.Claim(&begin, &end)) {
      s = ctx.CheckContinue("hash join build");
      if (!s.ok()) break;
      ++morsels;
      for (int64_t r = begin; r < end; ++r) {
        uint64_t h = 0;
        null_key_[r] = HashKeysAt(key_cols_, r, &h) ? 1 : 0;
        hashes_[r] = h;
      }
    }
    task_status[t] = s;
    ctx.Count("tde.join.build_morsels", morsels);
    if (options_.stats != nullptr) {
      std::lock_guard<std::mutex> lock(options_.stats->mu);
      options_.stats->join_build_morsels += morsels;
    }
  });
  for (const Status& s : task_status) {
    VIZQ_RETURN_IF_ERROR(s);
  }

  // Stage 2 — partitioned insert: one task per partition scans the hash
  // array and inserts only its own rows ((h & mask) == p), so each
  // partition map has a single writer and needs no lock. The result is
  // sealed read-only before any probe starts.
  std::vector<Status> insert_status(parts);
  RunTasks(parts, options_.priority, ctx, "join-build", [&](int p) {
    auto& part = partitions_[p];
    const uint64_t want = static_cast<uint64_t>(p);
    Status s;
    for (int64_t r = 0; r < rows; ++r) {
      if ((r % kBuildPollRows) == 0) {
        s = ctx.CheckContinue("hash join build");
        if (!s.ok()) break;
      }
      if (null_key_[r]) continue;
      const uint64_t h = hashes_[r];
      if ((h & partition_mask_) != want) continue;
      part[h].push_back(r);
    }
    insert_status[p] = s;
  });
  for (const Status& s : insert_status) {
    VIZQ_RETURN_IF_ERROR(s);
  }

  hashes_.clear();
  hashes_.shrink_to_fit();
  null_key_.clear();
  null_key_.shrink_to_fit();
  if (options_.stats != nullptr) {
    std::lock_guard<std::mutex> lock(options_.stats->mu);
    options_.stats->used_parallel_build = true;
  }
  return OkStatus();
}

HashJoinOperator::HashJoinOperator(OperatorPtr left,
                                   std::shared_ptr<SharedBuildState> build,
                                   std::vector<ExprPtr> left_keys,
                                   JoinType join_type, const ExecContext& ctx)
    : left_(std::move(left)),
      build_(std::move(build)),
      left_keys_(std::move(left_keys)),
      join_type_(join_type),
      ctx_(ctx) {
  // Output schema: left columns, then right columns (renamed on collision).
  const BatchSchema& ls = left_->schema();
  const BatchSchema& rs = build_->right_schema();
  schema_.names = ls.names;
  schema_.prototypes = ls.prototypes;
  for (int i = 0; i < rs.num_columns(); ++i) {
    std::string name = rs.names[i];
    if (schema_.FindColumn(name) >= 0) name = "r." + name;
    schema_.names.push_back(std::move(name));
    schema_.prototypes.push_back(ColumnVector::LayoutLike(rs.prototypes[i]));
  }
}

Status HashJoinOperator::Open() {
  batches_probed_ = 0;
  span_ = ctx_.StartSpan("op:hash-join");
  VIZQ_RETURN_IF_ERROR(build_->EnsureBuilt(ctx_));
  return left_->Open();
}

Status HashJoinOperator::Close() {
  if (span_ != nullptr) {
    span_->End();
    span_ = nullptr;
  }
  return left_->Close();
}

StatusOr<bool> HashJoinOperator::Next(Batch* batch) {
  if (batches_probed_ % kCtxPollBatches == 0) {
    VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("hash join"));
  }
  ++batches_probed_;
  Batch in;
  VIZQ_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
  if (!more) return false;

  // Probe keys may arrive run-encoded (an encoded scan feeding the join
  // directly); EvalExpr's bulk path indexes flat payloads, so flatten the
  // referenced columns first. Payload columns stay as-is — AppendFrom
  // resolves runs itself.
  for (const ExprPtr& k : left_keys_) {
    std::vector<int> refs;
    k->CollectColumnIndices(&refs);
    for (int c : refs) in.columns[c].DecodeRuns();
  }

  std::vector<ColumnVector> probe_keys;
  probe_keys.reserve(left_keys_.size());
  for (const ExprPtr& k : left_keys_) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*k, in));
    probe_keys.push_back(std::move(v));
  }

  const std::vector<ColumnVector>& build_keys = build_->key_columns();
  const Batch& build_batch = build_->build_batch();
  int nleft = static_cast<int>(in.columns.size());

  // A selection vector marks the dead physical rows; probe only the live
  // ones. (The output is materialized densely either way.)
  const int64_t live = in.has_selection
                           ? static_cast<int64_t>(in.selection.size())
                           : in.num_rows;

  *batch = schema_.NewBatch();
  int64_t out_rows = 0;
  for (int64_t i = 0; i < live; ++i) {
    const int64_t r = in.has_selection ? in.selection[i] : i;
    uint64_t h = 0;
    const bool null_key = HashKeysAt(probe_keys, r, &h);
    bool matched = false;
    if (!null_key) {
      const std::vector<int64_t>* bucket = build_->Probe(h);
      if (bucket != nullptr) {
        for (int64_t br : *bucket) {
          bool equal = true;
          for (size_t k = 0; k < probe_keys.size(); ++k) {
            if (probe_keys[k].CompareAt(r, build_keys[k], br) != 0) {
              equal = false;
              break;
            }
          }
          if (!equal) continue;
          matched = true;
          for (int c = 0; c < nleft; ++c) {
            batch->columns[c].AppendFrom(in.columns[c], r);
          }
          for (size_t c = 0; c < build_batch.columns.size(); ++c) {
            batch->columns[nleft + c].AppendFrom(build_batch.columns[c], br);
          }
          ++out_rows;
        }
      }
    }
    if (!matched && join_type_ == JoinType::kLeftOuter) {
      for (int c = 0; c < nleft; ++c) {
        batch->columns[c].AppendFrom(in.columns[c], r);
      }
      for (size_t c = 0; c < build_batch.columns.size(); ++c) {
        batch->columns[nleft + c].AppendNull();
      }
      ++out_rows;
    }
  }
  batch->num_rows = out_rows;
  return true;
}

}  // namespace vizq::tde
