#include "src/tde/plan/translator.h"

#include <algorithm>
#include <unordered_set>

#include "src/tde/exec/exchange.h"
#include "src/tde/exec/scan.h"
#include "src/tde/exec/sort.h"

namespace vizq::tde {

StatusOr<OperatorPtr> Translator::Translate(const LogicalOpPtr& plan) {
  StatusOr<OperatorPtr> root = TranslateNode(*plan, /*fraction=*/-1);
  // Drop the translation-time registries. The operators hold their own
  // references (SharedBuildState, morsel queues), so every per-query
  // structure is owned by the returned tree and freed with it — not by
  // this translator's destructor on the query's response path.
  builds_.clear();
  fraction_ranges_.clear();
  morsel_queues_.clear();
  return root;
}

StatusOr<std::vector<RowRange>> Translator::ScanRanges(const LogicalOp& scan) {
  if (scan.run_predicate == nullptr) {
    return std::vector<RowRange>{RowRange{0, scan.table->num_rows()}};
  }
  if (stats_ != nullptr) stats_->used_rle_index = true;
  return ComputeMatchingRuns(*scan.table, scan.rle_column, scan.run_predicate);
}

StatusOr<const std::vector<std::vector<RowRange>>*>
Translator::FractionRanges(const LogicalOp& scan) {
  auto it = fraction_ranges_.find(&scan);
  if (it != fraction_ranges_.end()) return &it->second;
  std::vector<std::vector<RowRange>> lists;
  if (scan.run_predicate != nullptr) {
    VIZQ_ASSIGN_OR_RETURN(std::vector<RowRange> runs, ScanRanges(scan));
    lists = SplitRanges(runs, scan.scan_dop);
  } else {
    std::vector<int64_t> offsets;
    if (scan.partition == PartitionKind::kRangeOnSortPrefix) {
      offsets = SplitRowsOnSortedPrefix(*scan.table, scan.range_prefix_len,
                                        scan.scan_dop);
      if (stats_ != nullptr) stats_->used_range_partition = true;
    } else {
      offsets = SplitRows(scan.table->num_rows(), scan.scan_dop);
    }
    for (size_t f = 0; f + 1 < offsets.size(); ++f) {
      lists.push_back({RowRange{offsets[f], offsets[f + 1] - offsets[f]}});
    }
  }
  return &fraction_ranges_.emplace(&scan, std::move(lists)).first->second;
}

StatusOr<OperatorPtr> Translator::TranslateScan(const LogicalOp& op,
                                                int fraction) {
  std::vector<RowRange> ranges;
  MorselQueuePtr morsels;
  if (op.scan_dop <= 1 || fraction < 0) {
    VIZQ_ASSIGN_OR_RETURN(ranges, ScanRanges(op));
  } else if (op.partition == PartitionKind::kMorsel) {
    // Every fraction claims the row ranges it scans from the scan node's
    // shared queue.
    auto it = morsel_queues_.find(&op);
    if (it == morsel_queues_.end()) {
      int64_t rows = op.morsel_rows > 0 ? op.morsel_rows : kDefaultMorselRows;
      it = morsel_queues_
               .emplace(&op, std::make_shared<MorselQueue>(
                                 op.table->num_rows(), rows))
               .first;
    }
    morsels = it->second;
    if (stats_ != nullptr) {
      std::lock_guard<std::mutex> lock(stats_->mu);
      stats_->used_morsel_scan = true;
    }
  } else {
    VIZQ_ASSIGN_OR_RETURN(const std::vector<std::vector<RowRange>>* lists,
                          FractionRanges(op));
    // Range partitioning can produce fewer fractions than requested;
    // surplus fractions scan nothing.
    if (fraction < static_cast<int>(lists->size())) ranges = (*lists)[fraction];
  }
  auto scan = std::make_unique<TableScanOperator>(
      op.table, op.scan_columns, std::move(ranges), stats_, ctx_);
  if (morsels != nullptr) scan->SetMorselQueue(std::move(morsels));
  scan->SetEmitEncoded(op.emit_encoded);
  return OperatorPtr(std::move(scan));
}

StatusOr<OperatorPtr> Translator::TranslateExchange(const LogicalOp& op) {
  // The child subtree is translated once per fraction; each translation
  // restricts the partitioned scan(s) to that fraction. The effective
  // input count can shrink when range partitioning found fewer group
  // boundaries than the requested DOP.
  int dop = op.dop;
  std::vector<OperatorPtr> inputs;
  inputs.reserve(dop);
  // Morsel queues created while translating this Exchange's fractions
  // belong to it: the Exchange rewinds them on (re-)Open.
  std::unordered_set<const LogicalOp*> queues_before;
  queues_before.reserve(morsel_queues_.size());
  for (const auto& [node, queue] : morsel_queues_) queues_before.insert(node);
  for (int f = 0; f < dop; ++f) {
    VIZQ_ASSIGN_OR_RETURN(OperatorPtr input,
                          TranslateNode(*op.children[0], f));
    inputs.push_back(std::move(input));
  }
  if (stats_ != nullptr) {
    std::lock_guard<std::mutex> lock(stats_->mu);
    stats_->used_parallel_plan = true;
    stats_->dop = std::max(stats_->dop, dop);
  }
  auto exchange = std::make_unique<ExchangeOperator>(
      std::move(inputs), ctx_, /*scheduler=*/nullptr, options_.priority);
  for (const auto& [node, queue] : morsel_queues_) {
    if (queues_before.count(node) == 0) exchange->AddMorselQueue(queue);
  }
  return OperatorPtr(std::move(exchange));
}

StatusOr<OperatorPtr> Translator::TranslateNode(const LogicalOp& op,
                                                int fraction) {
  if (analysis_ == nullptr) return TranslateNodeImpl(op, fraction);
  PlanNodeStats* saved_parent = analyze_parent_;
  PlanNodeStats* node = analysis_->NodeFor(op, saved_parent);
  analyze_parent_ = node;
  StatusOr<OperatorPtr> result = TranslateNodeImpl(op, fraction);
  analyze_parent_ = saved_parent;
  if (!result.ok()) return result;
  return OperatorPtr(
      std::make_unique<AnalyzeOperator>(std::move(*result), node));
}

StatusOr<OperatorPtr> Translator::TranslateNodeImpl(const LogicalOp& op,
                                                    int fraction) {
  switch (op.kind) {
    case LogicalKind::kScan:
      return TranslateScan(op, fraction);
    case LogicalKind::kSelect: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr child,
                            TranslateNode(*op.children[0], fraction));
      auto filter =
          std::make_unique<FilterOperator>(std::move(child), op.predicate);
      if (op.encoded_filter) {
        filter->EnableEncodedFilter(op.encoded_conjuncts, stats_);
        if (stats_ != nullptr) stats_->used_encoded_path = true;
      }
      return OperatorPtr(std::move(filter));
    }
    case LogicalKind::kProject: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr child,
                            TranslateNode(*op.children[0], fraction));
      std::vector<ProjectOperator::NamedExpr> exprs;
      exprs.reserve(op.projections.size());
      for (const NamedExpr& p : op.projections) {
        exprs.push_back(ProjectOperator::NamedExpr{p.name, p.expr});
      }
      return OperatorPtr(std::make_unique<ProjectOperator>(std::move(child),
                                                           std::move(exprs)));
    }
    case LogicalKind::kJoin: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr left,
                            TranslateNode(*op.children[0], fraction));
      auto it = builds_.find(&op);
      std::shared_ptr<SharedBuildState> build;
      if (it != builds_.end()) {
        build = it->second;
      } else {
        // The build side is its own unit (fraction -1): built once, shared
        // by every probing fraction.
        VIZQ_ASSIGN_OR_RETURN(OperatorPtr right,
                              TranslateNode(*op.children[1], -1));
        std::vector<ExprPtr> right_keys;
        for (const auto& [lk, rk] : op.join_keys) right_keys.push_back(rk);
        JoinBuildOptions build_options;
        build_options.build_dop = op.build_dop;
        build_options.min_parallel_rows = options_.parallel_build_min_rows;
        build_options.priority = options_.priority;
        build_options.stats = stats_;
        build = std::make_shared<SharedBuildState>(std::move(right),
                                                   std::move(right_keys),
                                                   build_options);
        builds_.emplace(&op, build);
      }
      std::vector<ExprPtr> left_keys;
      for (const auto& [lk, rk] : op.join_keys) left_keys.push_back(lk);
      if (stats_ != nullptr &&
          op.children[0]->kind == LogicalKind::kAggregate &&
          op.children[0]->agg_phase == AggPhase::kPartial) {
        stats_->used_agg_below_join = true;
      }
      return OperatorPtr(std::make_unique<HashJoinOperator>(
          std::move(left), std::move(build), std::move(left_keys),
          op.join_type, ctx_));
    }
    case LogicalKind::kAggregate: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr child,
                            TranslateNode(*op.children[0], fraction));
      std::vector<GroupExpr> groups;
      groups.reserve(op.group_by.size());
      for (const NamedExpr& g : op.group_by) {
        groups.push_back(GroupExpr{g.name, g.expr});
      }
      std::vector<AggSpec> specs;
      specs.reserve(op.aggregates.size());
      for (const LogicalAgg& a : op.aggregates) {
        specs.push_back(AggSpec{a.func, a.arg, a.name});
      }
      if (op.agg_phase == AggPhase::kComplete && op.prefer_streaming) {
        if (stats_ != nullptr) stats_->used_streaming_agg = true;
        return OperatorPtr(std::make_unique<StreamingAggregateOperator>(
            std::move(child), std::move(groups), std::move(specs), ctx_));
      }
      AggPhase phase = op.agg_phase;
      if (stats_ != nullptr && phase == AggPhase::kFinal &&
          op.children[0]->kind == LogicalKind::kExchange) {
        stats_->used_local_global_agg = true;
      }
      auto agg = std::make_unique<HashAggregateOperator>(
          std::move(child), std::move(groups), std::move(specs), phase, ctx_);
      if (phase == AggPhase::kFinal && op.merge_dop > 1) {
        AggMergeOptions merge_options;
        merge_options.merge_dop = op.merge_dop;
        merge_options.min_parallel_rows = options_.parallel_merge_min_rows;
        merge_options.priority = options_.priority;
        agg->EnableParallelMerge(merge_options, stats_);
      }
      if (op.use_encoded_agg && phase != AggPhase::kFinal) {
        DenseAggConfig config;
        config.enabled = true;
        config.key_columns = op.encoded_key_columns;
        config.key_cards = op.encoded_key_cards;
        config.key_mins = op.encoded_key_mins;
        config.total_cells = op.encoded_cells;
        agg->EnableDenseGroups(std::move(config), stats_);
        if (stats_ != nullptr) stats_->used_encoded_path = true;
      }
      return OperatorPtr(std::move(agg));
    }
    case LogicalKind::kOrder: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr child,
                            TranslateNode(*op.children[0], fraction));
      std::vector<SortKey> keys;
      for (const LogicalSortKey& k : op.order_keys) {
        keys.push_back(SortKey{k.expr, k.ascending});
      }
      return OperatorPtr(
          std::make_unique<SortOperator>(std::move(child), std::move(keys)));
    }
    case LogicalKind::kTopN: {
      VIZQ_ASSIGN_OR_RETURN(OperatorPtr child,
                            TranslateNode(*op.children[0], fraction));
      std::vector<SortKey> keys;
      for (const LogicalSortKey& k : op.order_keys) {
        keys.push_back(SortKey{k.expr, k.ascending});
      }
      return OperatorPtr(std::make_unique<TopNOperator>(
          std::move(child), std::move(keys), op.limit));
    }
    case LogicalKind::kDistinct:
      return Internal("Distinct must be rewritten before translation");
    case LogicalKind::kExchange:
      return TranslateExchange(op);
  }
  return Internal("unhandled logical operator");
}

}  // namespace vizq::tde
