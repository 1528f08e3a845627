#include "servebench/checks.h"

#include <chrono>
#include <map>
#include <thread>

#include "src/common/scheduler.h"
#include "src/testing/table_diff.h"

namespace servebench {

namespace {

// Reference answers, memoized by query key: traces repeat queries.
class Reference {
 public:
  Reference(std::shared_ptr<vizq::tde::Database> data,
            const std::vector<vizq::query::ViewDefinition>& views)
      : service_(std::make_shared<vizq::federation::TdeDataSource>(
                     "reference", std::move(data)),
                 nullptr) {
    for (const vizq::query::ViewDefinition& view : views) {
      if (status_.ok()) status_ = service_.RegisterView(view);
    }
    options_.use_intelligent_cache = false;
    options_.use_literal_cache = false;
    options_.analyze_batch = false;
    options_.fuse_queries = false;
    options_.concurrent = false;
  }

  const vizq::Status& status() const { return status_; }

  vizq::StatusOr<vizq::ResultTable> Answer(const vizq::query::AbstractQuery& q) {
    std::string key = q.ToKeyString();
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    VIZQ_ASSIGN_OR_RETURN(vizq::ResultTable table,
                          service_.ExecuteQuery(q, options_));
    memo_.emplace(std::move(key), table);
    return table;
  }

 private:
  vizq::dashboard::QueryService service_;
  vizq::dashboard::BatchOptions options_;
  vizq::Status status_;
  std::map<std::string, vizq::ResultTable> memo_;
};

}  // namespace

std::vector<std::string> CheckOutputs(const Deployment& deployment,
                                      const Inputs& inputs,
                                      const std::vector<Sample>& samples,
                                      int* checked) {
  std::vector<std::string> problems;
  *checked = 0;
  Reference reference(deployment.data(), inputs.views);
  if (!reference.status().ok()) {
    problems.push_back("reference: " + reference.status().ToString());
    return problems;
  }
  for (const Sample& sample : samples) {
    const std::vector<vizq::query::AbstractQuery>& batch =
        sample.interaction->batch;
    if (sample.results.size() != batch.size()) {
      problems.push_back("interaction answered " +
                         std::to_string(sample.results.size()) + " of " +
                         std::to_string(batch.size()) + " queries");
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const vizq::query::AbstractQuery& q = batch[i];
      auto limited = reference.Answer(q);
      vizq::query::AbstractQuery unlimited_q = q;
      unlimited_q.order_by.clear();
      unlimited_q.limit = 0;
      auto unlimited = reference.Answer(unlimited_q);
      if (!limited.ok() || !unlimited.ok()) {
        problems.push_back("reference failed on " + q.ToKeyString() + ": " +
                           (limited.ok() ? unlimited.status() : limited.status())
                               .ToString());
        continue;
      }
      vizq::testing::DiffResult diff = vizq::testing::DiffForQuery(
          *limited, *unlimited, sample.results[i], q);
      ++*checked;
      if (!diff.equivalent) {
        problems.push_back("mismatch on " + q.ToKeyString() + ": " +
                           diff.message);
      }
    }
  }
  return problems;
}

std::vector<std::string> CheckSchedulerDrained() {
  vizq::Scheduler& sched = vizq::Scheduler::Global();
  auto depth = [&] {
    int64_t total = 0;
    for (int c = 0; c < vizq::kNumTaskClasses; ++c) {
      total += sched.queue_depth(static_cast<vizq::TaskClass>(c));
    }
    return total;
  };
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (depth() != 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<std::string> problems;
  for (int c = 0; c < vizq::kNumTaskClasses; ++c) {
    auto cls = static_cast<vizq::TaskClass>(c);
    if (sched.queue_depth(cls) != 0) {
      problems.push_back(std::string("scheduler queue ") +
                         vizq::TaskClassName(cls) + " holds " +
                         std::to_string(sched.queue_depth(cls)) + " tasks");
    }
  }
  return problems;
}

double MissProbeMicros(vizq::cache::IntelligentCache* cache,
                       const std::vector<vizq::query::AbstractQuery>& probes) {
  if (cache == nullptr) return 0;
  std::vector<double> micros;
  // Several passes over the probe set; each probe that misses is timed.
  for (int pass = 0; pass < 5; ++pass) {
    for (const vizq::query::AbstractQuery& q : probes) {
      auto t0 = std::chrono::steady_clock::now();
      auto hit = cache->LookupHit(q);
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      if (!hit.has_value()) micros.push_back(us);
    }
  }
  return Quantile(std::move(micros), 0.5);
}

}  // namespace servebench
