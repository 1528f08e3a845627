#include "src/tde/exec/aggregate.h"

#include <algorithm>

#include "src/common/rng.h"

namespace vizq::tde {

// Deadline/cancel poll frequency while consuming input batches.
constexpr int64_t kCtxPollBatches = 4;
// Merge-partition ceiling; partitions are a power of two >= merge_dop.
constexpr int kMaxMergePartitions = 64;

namespace {

// True when this spec's running sum is integral.
bool SumIsIntegral(const AggSpec& spec) {
  return spec.arg == nullptr ||
         spec.arg->result_type.kind != TypeKind::kFloat64;
}

DataType AggOutputType(const AggSpec& spec) {
  DataType arg_type =
      spec.arg != nullptr ? spec.arg->result_type : DataType::Int64();
  return AggResultType(spec.func, arg_type);
}

}  // namespace

std::vector<ResultColumn> PartialStateColumns(const AggSpec& spec) {
  std::vector<ResultColumn> out;
  switch (spec.func) {
    case AggFunc::kAvg:
      out.push_back({spec.output_name + "$sum", DataType::Float64()});
      out.push_back({spec.output_name + "$cnt", DataType::Int64()});
      break;
    case AggFunc::kSum:
      out.push_back({spec.output_name,
                     SumIsIntegral(spec) ? DataType::Int64()
                                         : DataType::Float64()});
      break;
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      out.push_back({spec.output_name, DataType::Int64()});
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      out.push_back({spec.output_name, spec.arg->result_type});
      break;
    case AggFunc::kCountDistinct:
      // Not re-aggregable; the parallelizer never asks for a partial here.
      out.push_back({spec.output_name, DataType::Int64()});
      break;
  }
  return out;
}

BatchSchema MakeAggSchema(const std::vector<GroupExpr>& group_exprs,
                          const std::vector<AggSpec>& specs, AggPhase phase,
                          const BatchSchema& child_schema) {
  BatchSchema schema;
  for (const GroupExpr& g : group_exprs) {
    schema.names.push_back(g.name);
    ColumnVector proto(g.expr->result_type);
    if (g.expr->kind == ExprKind::kColumnRef && g.expr->column_index >= 0 &&
        g.expr->column_index < child_schema.num_columns()) {
      proto.dict = child_schema.prototypes[g.expr->column_index].dict;
    }
    schema.prototypes.push_back(std::move(proto));
  }
  for (const AggSpec& spec : specs) {
    if (phase == AggPhase::kPartial) {
      for (const ResultColumn& rc : PartialStateColumns(spec)) {
        schema.names.push_back(rc.name);
        schema.prototypes.emplace_back(rc.type);
      }
    } else {
      schema.names.push_back(spec.output_name);
      schema.prototypes.emplace_back(AggOutputType(spec));
    }
  }
  return schema;
}

HashAggregateOperator::HashAggregateOperator(OperatorPtr child,
                                             std::vector<GroupExpr> group_exprs,
                                             std::vector<AggSpec> specs,
                                             AggPhase phase,
                                             const ExecContext& ctx)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      specs_(std::move(specs)),
      phase_(phase),
      ctx_(ctx) {
  schema_ = MakeAggSchema(group_exprs_, specs_, phase_, child_->schema());
  main_ = NewGroupTable();
}

HashAggregateOperator::GroupTable HashAggregateOperator::NewGroupTable()
    const {
  GroupTable gt;
  gt.group_store.reserve(group_exprs_.size());
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    gt.group_store.push_back(ColumnVector::LayoutLike(schema_.prototypes[i]));
  }
  gt.accums.resize(specs_.size());
  return gt;
}

void HashAggregateOperator::EnableDenseGroups(DenseAggConfig config,
                                              ExecStats* stats) {
  dense_ = std::move(config);
  stats_ = stats;
}

void HashAggregateOperator::EnableParallelMerge(const AggMergeOptions& options,
                                                ExecStats* stats) {
  merge_ = options;
  stats_ = stats;
}

Status HashAggregateOperator::Open() {
  consumed_ = false;
  emit_cursor_ = 0;
  emit_table_idx_ = 0;
  batches_consumed_ = 0;
  cell_to_group_.clear();
  main_ = NewGroupTable();
  merge_tables_.clear();
  emit_tables_.clear();
  span_ = ctx_.StartSpan("op:aggregate");
  return child_->Open();
}

Status HashAggregateOperator::Close() {
  if (span_ != nullptr) {
    span_->End();
    span_ = nullptr;
  }
  return child_->Close();
}

int64_t HashAggregateOperator::FindOrCreateGroup(
    GroupTable& gt, const std::vector<ColumnVector>& key_cols, int64_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const ColumnVector& kc : key_cols) {
    h = HashCombine(h, kc.HashAt(row));
  }
  return FindOrCreateGroup(gt, key_cols, row, h);
}

int64_t HashAggregateOperator::FindOrCreateGroup(
    GroupTable& gt, const std::vector<ColumnVector>& key_cols, int64_t row,
    uint64_t hash) {
  auto& bucket = gt.buckets[hash];
  for (int64_t candidate : bucket) {
    bool equal = true;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      if (gt.group_store[k].CompareAt(candidate, key_cols[k], row) != 0) {
        equal = false;
        break;
      }
    }
    if (equal) return candidate;
  }
  // New group.
  int64_t g = gt.num_groups++;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    gt.group_store[k].AppendFrom(key_cols[k], row);
  }
  AppendGroupSlots(gt);
  bucket.push_back(g);
  return g;
}

void HashAggregateOperator::AppendGroupSlots(GroupTable& gt) {
  for (size_t s = 0; s < specs_.size(); ++s) {
    Accumulator& acc = gt.accums[s];
    acc.sum_d.push_back(0);
    acc.sum_i.push_back(0);
    acc.count.push_back(0);
    acc.extreme.emplace_back();
    acc.has_value.push_back(0);
    if (specs_[s].func == AggFunc::kCountDistinct) {
      acc.distinct.emplace_back();
    }
  }
}

void HashAggregateOperator::UpdateAccumulator(GroupTable& gt, int spec_idx,
                                              int64_t group,
                                              const ColumnVector& arg_col,
                                              int64_t row) {
  const AggSpec& spec = specs_[spec_idx];
  Accumulator& acc = gt.accums[spec_idx];
  if (spec.func == AggFunc::kCountStar) {
    ++acc.count[group];
    return;
  }
  if (arg_col.IsNull(row)) return;  // aggregates skip nulls
  switch (spec.func) {
    case AggFunc::kSum:
      if (SumIsIntegral(spec)) {
        acc.sum_i[group] += arg_col.IntAt(row);
      } else {
        acc.sum_d[group] += arg_col.DoubleAt(row);
      }
      acc.has_value[group] = 1;
      break;
    case AggFunc::kAvg:
      acc.sum_d[group] += arg_col.DoubleAt(row);
      ++acc.count[group];
      break;
    case AggFunc::kCount:
      ++acc.count[group];
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      Value v = arg_col.GetValue(row);
      if (acc.has_value[group] == 0) {
        acc.extreme[group] = std::move(v);
        acc.has_value[group] = 1;
      } else {
        int cmp = v.Compare(acc.extreme[group], arg_col.type.collation);
        if ((spec.func == AggFunc::kMin && cmp < 0) ||
            (spec.func == AggFunc::kMax && cmp > 0)) {
          acc.extreme[group] = std::move(v);
        }
      }
      break;
    }
    case AggFunc::kCountDistinct:
      acc.distinct[group].insert(arg_col.GetValue(row));
      break;
    case AggFunc::kCountStar:
      break;  // handled above
  }
}

void HashAggregateOperator::UpdateFinalAccumulator(GroupTable& gt,
                                                   int spec_idx, int64_t group,
                                                   const Batch& in,
                                                   int first_col,
                                                   int64_t row) {
  const AggSpec& spec = specs_[spec_idx];
  Accumulator& acc = gt.accums[spec_idx];
  const ColumnVector& c0 = in.columns[first_col];
  switch (spec.func) {
    case AggFunc::kSum:
      if (c0.IsNull(row)) break;
      if (SumIsIntegral(spec)) {
        acc.sum_i[group] += c0.ints[row];
      } else {
        acc.sum_d[group] += c0.doubles[row];
      }
      acc.has_value[group] = 1;
      break;
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      if (!c0.IsNull(row)) acc.count[group] += c0.ints[row];
      break;
    case AggFunc::kAvg: {
      const ColumnVector& c1 = in.columns[first_col + 1];
      if (!c0.IsNull(row)) acc.sum_d[group] += c0.doubles[row];
      if (!c1.IsNull(row)) acc.count[group] += c1.ints[row];
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (c0.IsNull(row)) break;
      Value v = c0.GetValue(row);
      if (acc.has_value[group] == 0) {
        acc.extreme[group] = std::move(v);
        acc.has_value[group] = 1;
      } else {
        int cmp = v.Compare(acc.extreme[group], c0.type.collation);
        if ((spec.func == AggFunc::kMin && cmp < 0) ||
            (spec.func == AggFunc::kMax && cmp > 0)) {
          acc.extreme[group] = std::move(v);
        }
      }
      break;
    }
    case AggFunc::kCountDistinct:
      // Partial COUNTD is not combinable; the planner never builds this.
      break;
  }
}

Status HashAggregateOperator::Consume(const Batch& in) {
  // Evaluate group keys.
  std::vector<ColumnVector> key_cols;
  key_cols.reserve(group_exprs_.size());
  for (const GroupExpr& g : group_exprs_) {
    VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*g.expr, in));
    key_cols.push_back(std::move(v));
  }

  if (phase_ == AggPhase::kFinal) {
    int first_col = static_cast<int>(group_exprs_.size());
    for (int64_t r = 0; r < in.num_rows; ++r) {
      int64_t g = FindOrCreateGroup(main_, key_cols, r);
      int col = first_col;
      for (size_t s = 0; s < specs_.size(); ++s) {
        UpdateFinalAccumulator(main_, static_cast<int>(s), g, in, col, r);
        col += static_cast<int>(PartialStateColumns(specs_[s]).size());
      }
    }
    return OkStatus();
  }

  // Evaluate agg args once per batch.
  std::vector<ColumnVector> arg_cols(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s].arg != nullptr) {
      VIZQ_ASSIGN_OR_RETURN(arg_cols[s], EvalExpr(*specs_[s].arg, in));
    }
  }
  for (int64_t r = 0; r < in.num_rows; ++r) {
    int64_t g = FindOrCreateGroup(main_, key_cols, r);
    for (size_t s = 0; s < specs_.size(); ++s) {
      UpdateAccumulator(main_, static_cast<int>(s), g, arg_cols[s], r);
    }
  }
  return OkStatus();
}

Status HashAggregateOperator::ConsumeFinalParallel() {
  // Buffer the partial states first. They are bounded by groups ×
  // fractions — far smaller than the input the kPartial lanes consumed —
  // so materializing them is cheap relative to the merge itself.
  std::vector<Batch> buffered;
  int64_t total_rows = 0;
  Batch in;
  while (true) {
    if (batches_consumed_ % kCtxPollBatches == 0) {
      VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("hash aggregate"));
    }
    ++batches_consumed_;
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    if (in.num_rows == 0) continue;
    total_rows += in.num_rows;
    buffered.push_back(std::move(in));
    in = Batch{};
  }
  if (total_rows < merge_.min_parallel_rows) {
    for (const Batch& b : buffered) {
      VIZQ_RETURN_IF_ERROR(Consume(b));
    }
    return OkStatus();
  }

  const int dop = std::min(merge_.merge_dop, kMaxMergePartitions);
  int parts = 1;
  while (parts < dop) parts <<= 1;
  const uint64_t mask = static_cast<uint64_t>(parts - 1);

  // Per-batch group keys and combined key hashes (the hash both routes a
  // row to its partition and seeds the partition's bucket lookup).
  // Batches are independent, so the precompute fans out too — over the
  // inner aggregate of a large local/global plan this pass touches every
  // partial row and would otherwise be the merge's serial Amdahl term.
  struct Prepared {
    const Batch* batch = nullptr;
    std::vector<ColumnVector> keys;
    std::vector<uint64_t> hashes;
  };
  std::vector<Prepared> prepared(buffered.size());
  const int prep_tasks =
      static_cast<int>(std::min<size_t>(dop, buffered.size()));
  std::vector<Status> prep_status(std::max(prep_tasks, 1));
  RunTasks(prep_tasks, merge_.priority, ctx_, "final-merge-prep", [&](int t) {
    Status s;
    for (size_t b = t; b < buffered.size();
         b += static_cast<size_t>(prep_tasks)) {
      s = ctx_.CheckContinue("final merge prepare");
      if (!s.ok()) break;
      Prepared& p = prepared[b];
      p.batch = &buffered[b];
      p.keys.reserve(group_exprs_.size());
      for (const GroupExpr& g : group_exprs_) {
        StatusOr<ColumnVector> v = EvalExpr(*g.expr, buffered[b]);
        if (!v.ok()) {
          s = v.status();
          break;
        }
        p.keys.push_back(std::move(*v));
      }
      if (!s.ok()) break;
      p.hashes.resize(buffered[b].num_rows);
      for (int64_t r = 0; r < buffered[b].num_rows; ++r) {
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const ColumnVector& kc : p.keys) {
          h = HashCombine(h, kc.HashAt(r));
        }
        p.hashes[r] = h;
      }
    }
    prep_status[t] = s;
  });
  for (const Status& s : prep_status) {
    VIZQ_RETURN_IF_ERROR(s);
  }
  merge_tables_.clear();
  merge_tables_.resize(parts);

  const int first_col = static_cast<int>(group_exprs_.size());
  std::vector<int> widths(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    widths[s] = static_cast<int>(PartialStateColumns(specs_[s]).size());
  }

  // One task per partition; each merges only the rows whose key hash
  // falls in its partition, into its own GroupTable — no shared mutable
  // state, no locking.
  std::vector<Status> task_status(parts);
  RunTasks(parts, merge_.priority, ctx_, "final-merge", [&](int p) {
    // Constructing (and, in the emit task, freeing) the partition table is
    // real per-partition work; doing it here spreads it across the tasks.
    merge_tables_[p] = NewGroupTable();
    GroupTable& gt = merge_tables_[p];
    const uint64_t want = static_cast<uint64_t>(p);
    Status s;
    for (const Prepared& pb : prepared) {
      s = ctx_.CheckContinue("final merge");
      if (!s.ok()) break;
      for (int64_t r = 0; r < pb.batch->num_rows; ++r) {
        if ((pb.hashes[r] & mask) != want) continue;
        int64_t g = FindOrCreateGroup(gt, pb.keys, r, pb.hashes[r]);
        int col = first_col;
        for (size_t sp = 0; sp < specs_.size(); ++sp) {
          UpdateFinalAccumulator(gt, static_cast<int>(sp), g, *pb.batch, col,
                                 r);
          col += widths[sp];
        }
      }
    }
    task_status[p] = s;
  });
  for (const Status& s : task_status) {
    VIZQ_RETURN_IF_ERROR(s);
  }
  // Stage 3 — per-partition emission: building the output batches walks
  // every merged group and appends into column vectors, which for a large
  // group count (the inner aggregate of a local/global plan) costs as
  // much as the merge itself. Partitions materialize their own batches.
  std::vector<std::vector<Batch>> emitted(parts);
  std::vector<Status> emit_status(parts);
  RunTasks(parts, merge_.priority, ctx_, "final-merge-emit", [&](int p) {
    const GroupTable& gt = merge_tables_[p];
    Status s;
    int64_t g = 0;
    while (g < gt.num_groups) {
      s = ctx_.CheckContinue("final merge emit");
      if (!s.ok()) break;
      const int64_t end = std::min(gt.num_groups, g + kBatchRows);
      Batch out = schema_.NewBatch();
      for (int64_t i = g; i < end; ++i) EmitGroup(gt, i, &out);
      out.num_rows = end - g;
      emitted[p].push_back(std::move(out));
      g = end;
    }
    emit_status[p] = s;
    // Free this partition's table here: a couple hundred thousand bucket
    // vectors take real time to release, and each partition's are
    // independent — parallel teardown.
    merge_tables_[p] = GroupTable{};
  });
  for (const Status& s : emit_status) {
    VIZQ_RETURN_IF_ERROR(s);
  }
  for (std::vector<Batch>& part : emitted) {
    for (Batch& b : part) prebuilt_.push_back(std::move(b));
  }
  merge_tables_.clear();  // group state is spent; output lives in prebuilt_
  prebuilt_ready_ = true;

  if (stats_ != nullptr) {
    std::lock_guard<std::mutex> lock(stats_->mu);
    stats_->used_parallel_merge = true;
    stats_->merge_partitions += parts;
  }
  return OkStatus();
}

Status HashAggregateOperator::ConsumeDense(Batch& in) {
  if (in.num_rows == 0) return OkStatus();
  const int64_t n = in.num_rows;
  if (cell_to_group_.empty() && dense_.total_cells > 0) {
    cell_to_group_.assign(dense_.total_cells, -1);
  }

  std::vector<const ColumnVector*> keys;
  keys.reserve(dense_.key_columns.size());
  for (int c : dense_.key_columns) keys.push_back(&in.columns[c]);
  std::vector<size_t> key_run(keys.size(), 0);

  // Resolve agg args. Bare column refs stay as-is (possibly run-encoded,
  // folded below); computed args evaluate through the normal vectorized
  // path over flat columns. `owned` also provides the COUNT(*) dummy.
  std::vector<const ColumnVector*> args(specs_.size(), nullptr);
  std::vector<ColumnVector> owned(specs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    if (spec.arg == nullptr) {
      args[s] = &owned[s];
      continue;
    }
    if (spec.arg->kind == ExprKind::kColumnRef && spec.arg->column_index >= 0) {
      args[s] = &in.columns[spec.arg->column_index];
      continue;
    }
    // The planner only admits computed args over flat columns; flatten
    // defensively in case a run-encoded one reached us anyway.
    std::vector<int> refs;
    spec.arg->CollectColumnIndices(&refs);
    for (int c : refs) in.columns[c].DecodeRuns();
    VIZQ_ASSIGN_OR_RETURN(owned[s], EvalExpr(*spec.arg, in));
    args[s] = &owned[s];
  }
  std::vector<size_t> arg_run(specs_.size(), 0);

  const int32_t* sel = in.has_selection ? in.selection.data() : nullptr;
  const size_t sel_n = in.selection.size();
  size_t sel_idx = 0;

  int64_t pos = 0;
  while (pos < n) {
    // Maximal segment [pos, seg_end) on which every key column is constant:
    // bounded by the enclosing run of each run-encoded key, one row for
    // flat keys. Cell digit 0 encodes NULL (runs never straddle null
    // boundaries, so the run's first row carries its null status); a value
    // v has digit v - min + 1, checked against the domain once per segment
    // because the domain comes from stored stats.
    int64_t seg_end = n;
    int64_t cell = 0;
    for (size_t k = 0; k < keys.size(); ++k) {
      const ColumnVector& kc = *keys[k];
      int64_t value;
      if (kc.is_run_encoded()) {
        while (kc.runs[key_run[k]].start + kc.runs[key_run[k]].count <= pos) {
          ++key_run[k];
        }
        const RleRun& r = kc.runs[key_run[k]];
        value = r.value;
        seg_end = std::min(seg_end, r.start + r.count);
      } else {
        value = kc.ints[pos];
        seg_end = std::min(seg_end, pos + 1);
      }
      uint64_t digit = 0;
      if (!kc.IsNull(pos)) {
        digit = static_cast<uint64_t>(value) -
                static_cast<uint64_t>(dense_.key_mins[k]) + 1;
        if (digit == 0 ||
            digit > static_cast<uint64_t>(dense_.key_cards[k])) {
          return DataLoss("group key '" + group_exprs_[k].name + "' value " +
                          std::to_string(value) +
                          " lies outside its column's stored domain");
        }
      }
      cell = cell * (dense_.key_cards[k] + 1) + static_cast<int64_t>(digit);
    }

    if (sel != nullptr) {
      // Selection path: update per live row (accessors are run-aware).
      // Segments with no survivors must not create their group.
      size_t first = sel_idx;
      while (sel_idx < sel_n && sel[sel_idx] < seg_end) ++sel_idx;
      if (sel_idx == first) {
        pos = seg_end;
        continue;
      }
      int64_t g = cell_to_group_[cell];
      if (g < 0) {
        g = main_.num_groups++;
        for (size_t k = 0; k < keys.size(); ++k) {
          main_.group_store[k].AppendFrom(*keys[k], pos);
        }
        AppendGroupSlots(main_);
        cell_to_group_[cell] = static_cast<int32_t>(g);
      }
      for (size_t i = first; i < sel_idx; ++i) {
        int64_t r = sel[i];
        for (size_t s = 0; s < specs_.size(); ++s) {
          UpdateAccumulator(main_, static_cast<int>(s), g, *args[s], r);
        }
      }
      pos = seg_end;
      continue;
    }

    int64_t g = cell_to_group_[cell];
    if (g < 0) {
      g = main_.num_groups++;
      for (size_t k = 0; k < keys.size(); ++k) {
        main_.group_store[k].AppendFrom(*keys[k], pos);
      }
      AppendGroupSlots(main_);
      cell_to_group_[cell] = static_cast<int32_t>(g);
    }
    int64_t seg_len = seg_end - pos;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggSpec& spec = specs_[s];
      Accumulator& acc = main_.accums[s];
      if (spec.arg == nullptr) {  // COUNT(*)
        acc.count[g] += seg_len;
        continue;
      }
      const ColumnVector& a = *args[s];
      if (a.is_run_encoded()) {
        // Fold whole runs: one multiply-add per run instead of per row.
        while (a.runs[arg_run[s]].start + a.runs[arg_run[s]].count <= pos) {
          ++arg_run[s];
        }
        for (size_t ri = arg_run[s]; ri < a.runs.size(); ++ri) {
          const RleRun& r = a.runs[ri];
          int64_t f = std::max(pos, r.start);
          int64_t t = std::min(seg_end, r.start + r.count);
          if (f >= t) break;
          if (a.IsNull(f)) continue;  // null run: aggregates skip nulls
          int64_t len = t - f;
          switch (spec.func) {
            case AggFunc::kSum:
              if (SumIsIntegral(spec)) {
                acc.sum_i[g] += r.value * len;
              } else {
                acc.sum_d[g] += a.DoubleAt(f) * len;
              }
              acc.has_value[g] = 1;
              break;
            case AggFunc::kAvg:
              acc.sum_d[g] += a.DoubleAt(f) * len;
              acc.count[g] += len;
              break;
            case AggFunc::kCount:
              acc.count[g] += len;
              break;
            case AggFunc::kMin:
            case AggFunc::kMax:
            case AggFunc::kCountDistinct:
              // Constant within the run: one per-row update suffices.
              UpdateAccumulator(main_, static_cast<int>(s), g, a, f);
              break;
            case AggFunc::kCountStar:
              break;  // handled above
          }
        }
      } else {
        for (int64_t r = pos; r < seg_end; ++r) {
          UpdateAccumulator(main_, static_cast<int>(s), g, a, r);
        }
      }
    }
    pos = seg_end;
  }
  return OkStatus();
}

void HashAggregateOperator::EmitGroup(const GroupTable& gt, int64_t group,
                                      Batch* batch) const {
  for (size_t k = 0; k < group_exprs_.size(); ++k) {
    batch->columns[k].AppendFrom(gt.group_store[k], group);
  }
  int col = static_cast<int>(group_exprs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    const Accumulator& acc = gt.accums[s];
    if (phase_ == AggPhase::kPartial && spec.func == AggFunc::kAvg) {
      batch->columns[col].AppendDouble(acc.sum_d[group]);
      batch->columns[col + 1].AppendInt(acc.count[group]);
      col += 2;
      continue;
    }
    ColumnVector& out = batch->columns[col++];
    switch (spec.func) {
      case AggFunc::kSum:
        if (acc.has_value[group] == 0) {
          out.AppendNull();
        } else if (SumIsIntegral(spec)) {
          out.AppendInt(acc.sum_i[group]);
        } else {
          out.AppendDouble(acc.sum_d[group]);
        }
        break;
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        out.AppendInt(acc.count[group]);
        break;
      case AggFunc::kAvg:
        if (acc.count[group] == 0) {
          out.AppendNull();
        } else {
          out.AppendDouble(acc.sum_d[group] /
                           static_cast<double>(acc.count[group]));
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (acc.has_value[group] == 0) {
          out.AppendNull();
        } else {
          out.AppendValue(acc.extreme[group]);
        }
        break;
      case AggFunc::kCountDistinct:
        out.AppendInt(static_cast<int64_t>(acc.distinct[group].size()));
        break;
    }
  }
}

StatusOr<bool> HashAggregateOperator::Next(Batch* batch) {
  if (!consumed_) {
    if (phase_ == AggPhase::kFinal && merge_.merge_dop > 1 &&
        !group_exprs_.empty()) {
      VIZQ_RETURN_IF_ERROR(ConsumeFinalParallel());
    } else {
      Batch in;
      while (true) {
        if (batches_consumed_ % kCtxPollBatches == 0) {
          VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("hash aggregate"));
        }
        ++batches_consumed_;
        VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
        if (!more) break;
        if (dense_.enabled && phase_ != AggPhase::kFinal) {
          VIZQ_RETURN_IF_ERROR(ConsumeDense(in));
        } else {
          VIZQ_RETURN_IF_ERROR(Consume(in));
        }
      }
    }
    consumed_ = true;
    // Scalar aggregation over an empty input still yields one row
    // (complete/final phases only; empty partials are correct as empty).
    // Scalar finals never take the parallel path, so main_ is the table.
    if (group_exprs_.empty() && main_.num_groups == 0 &&
        phase_ != AggPhase::kPartial) {
      std::vector<ColumnVector> no_keys;
      FindOrCreateGroup(main_, no_keys, 0);
    }
    if (prebuilt_ready_) {
      emit_tables_.clear();
    } else if (merge_tables_.empty()) {
      emit_tables_ = {&main_};
    } else {
      emit_tables_.clear();
      for (const GroupTable& gt : merge_tables_) emit_tables_.push_back(&gt);
    }
  }
  if (prebuilt_ready_) {
    if (prebuilt_idx_ >= prebuilt_.size()) return false;
    *batch = std::move(prebuilt_[prebuilt_idx_++]);
    return true;
  }
  // Emit from one table per batch; partitions follow each other in order
  // (output order across partitions is unspecified, like any hash agg).
  while (emit_table_idx_ < emit_tables_.size() &&
         emit_cursor_ >= emit_tables_[emit_table_idx_]->num_groups) {
    ++emit_table_idx_;
    emit_cursor_ = 0;
  }
  if (emit_table_idx_ >= emit_tables_.size()) return false;
  const GroupTable& gt = *emit_tables_[emit_table_idx_];
  *batch = schema_.NewBatch();
  int64_t end = std::min(gt.num_groups, emit_cursor_ + kBatchRows);
  for (int64_t g = emit_cursor_; g < end; ++g) EmitGroup(gt, g, batch);
  batch->num_rows = end - emit_cursor_;
  emit_cursor_ = end;
  return true;
}

// --- streaming aggregate ---

StreamingAggregateOperator::StreamingAggregateOperator(
    OperatorPtr child, std::vector<GroupExpr> group_exprs,
    std::vector<AggSpec> specs, const ExecContext& ctx)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      specs_(std::move(specs)),
      ctx_(ctx) {
  schema_ = MakeAggSchema(group_exprs_, specs_, AggPhase::kComplete,
                          child_->schema());
}

Status StreamingAggregateOperator::Open() {
  in_group_ = false;
  done_ = false;
  saw_any_row_ = false;
  batches_consumed_ = 0;
  span_ = ctx_.StartSpan("op:streaming-aggregate");
  return child_->Open();
}

Status StreamingAggregateOperator::Close() {
  if (span_ != nullptr) {
    span_->End();
    span_ = nullptr;
  }
  return child_->Close();
}

void StreamingAggregateOperator::StartGroup(
    const std::vector<ColumnVector>& keys, int64_t row) {
  current_key_.clear();
  for (const ColumnVector& k : keys) current_key_.push_back(k.GetValue(row));
  sum_d_.assign(specs_.size(), 0);
  sum_i_.assign(specs_.size(), 0);
  count_.assign(specs_.size(), 0);
  extreme_.assign(specs_.size(), Value());
  has_value_.assign(specs_.size(), 0);
  distinct_.assign(specs_.size(), {});
  in_group_ = true;
}

void StreamingAggregateOperator::UpdateGroup(int spec_idx,
                                             const ColumnVector& arg_col,
                                             int64_t row) {
  const AggSpec& spec = specs_[spec_idx];
  if (spec.func == AggFunc::kCountStar) {
    ++count_[spec_idx];
    return;
  }
  if (arg_col.IsNull(row)) return;
  switch (spec.func) {
    case AggFunc::kSum:
      if (SumIsIntegral(spec)) {
        sum_i_[spec_idx] += arg_col.ints[row];
      } else {
        sum_d_[spec_idx] += arg_col.doubles[row];
      }
      has_value_[spec_idx] = 1;
      break;
    case AggFunc::kAvg:
      sum_d_[spec_idx] += arg_col.type.kind == TypeKind::kFloat64
                              ? arg_col.doubles[row]
                              : static_cast<double>(arg_col.ints[row]);
      ++count_[spec_idx];
      break;
    case AggFunc::kCount:
      ++count_[spec_idx];
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      Value v = arg_col.GetValue(row);
      if (has_value_[spec_idx] == 0) {
        extreme_[spec_idx] = std::move(v);
        has_value_[spec_idx] = 1;
      } else {
        int cmp = v.Compare(extreme_[spec_idx], arg_col.type.collation);
        if ((spec.func == AggFunc::kMin && cmp < 0) ||
            (spec.func == AggFunc::kMax && cmp > 0)) {
          extreme_[spec_idx] = std::move(v);
        }
      }
      break;
    }
    case AggFunc::kCountDistinct:
      distinct_[spec_idx].insert(arg_col.GetValue(row));
      break;
    case AggFunc::kCountStar:
      break;
  }
}

void StreamingAggregateOperator::FlushGroup(Batch* out) {
  for (size_t k = 0; k < group_exprs_.size(); ++k) {
    out->columns[k].AppendValue(current_key_[k]);
  }
  int col = static_cast<int>(group_exprs_.size());
  for (size_t s = 0; s < specs_.size(); ++s) {
    ColumnVector& o = out->columns[col++];
    switch (specs_[s].func) {
      case AggFunc::kSum:
        if (has_value_[s] == 0) {
          o.AppendNull();
        } else if (SumIsIntegral(specs_[s])) {
          o.AppendInt(sum_i_[s]);
        } else {
          o.AppendDouble(sum_d_[s]);
        }
        break;
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        o.AppendInt(count_[s]);
        break;
      case AggFunc::kAvg:
        if (count_[s] == 0) {
          o.AppendNull();
        } else {
          o.AppendDouble(sum_d_[s] / static_cast<double>(count_[s]));
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (has_value_[s] == 0) {
          o.AppendNull();
        } else {
          o.AppendValue(extreme_[s]);
        }
        break;
      case AggFunc::kCountDistinct:
        o.AppendInt(static_cast<int64_t>(distinct_[s].size()));
        break;
    }
  }
  ++out->num_rows;
}

StatusOr<bool> StreamingAggregateOperator::Next(Batch* batch) {
  if (done_) return false;
  *batch = schema_.NewBatch();
  Batch in;
  while (batch->num_rows < kBatchRows) {
    if (batches_consumed_ % kCtxPollBatches == 0) {
      VIZQ_RETURN_IF_ERROR(ctx_.CheckContinue("streaming aggregate"));
    }
    ++batches_consumed_;
    VIZQ_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) {
      if (in_group_) {
        FlushGroup(batch);
        in_group_ = false;
      } else if (!saw_any_row_ && group_exprs_.empty()) {
        // Scalar aggregate over empty input: one default row.
        std::vector<ColumnVector> no_keys;
        StartGroup(no_keys, 0);
        FlushGroup(batch);
        in_group_ = false;
      }
      done_ = true;
      return batch->num_rows > 0;
    }
    if (in.num_rows == 0) continue;
    saw_any_row_ = true;

    std::vector<ColumnVector> key_cols;
    key_cols.reserve(group_exprs_.size());
    for (const GroupExpr& g : group_exprs_) {
      VIZQ_ASSIGN_OR_RETURN(ColumnVector v, EvalExpr(*g.expr, in));
      key_cols.push_back(std::move(v));
    }
    std::vector<ColumnVector> arg_cols(specs_.size());
    for (size_t s = 0; s < specs_.size(); ++s) {
      if (specs_[s].arg != nullptr) {
        VIZQ_ASSIGN_OR_RETURN(arg_cols[s], EvalExpr(*specs_[s].arg, in));
      }
    }
    for (int64_t r = 0; r < in.num_rows; ++r) {
      bool same_group = in_group_;
      if (in_group_) {
        for (size_t k = 0; k < key_cols.size(); ++k) {
          Value v = key_cols[k].GetValue(r);
          if (v.Compare(current_key_[k], key_cols[k].type.collation) != 0) {
            same_group = false;
            break;
          }
        }
      }
      if (!same_group) {
        if (in_group_) FlushGroup(batch);
        StartGroup(key_cols, r);
      }
      for (size_t s = 0; s < specs_.size(); ++s) {
        UpdateGroup(static_cast<int>(s), arg_cols[s], r);
      }
    }
  }
  return true;
}

}  // namespace vizq::tde
