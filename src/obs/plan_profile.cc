#include "src/obs/plan_profile.h"

#include <algorithm>
#include <cstdio>

#include "src/common/str_util.h"

namespace vizq::obs {

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

void PlanProfileRegistry::Record(const std::string& signature,
                                 double latency_ms) {
  if (signature.empty()) return;
  Histogram* h = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Histogram>& slot = profiles_[signature];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    h = slot.get();
  }
  h->Observe(latency_ms);
}

std::vector<PlanProfileRegistry::Profile> PlanProfileRegistry::Snapshot()
    const {
  std::vector<Profile> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(profiles_.size());
    for (const auto& [sig, hist] : profiles_) {
      Profile p;
      p.signature = sig;
      p.count = hist->count();
      p.mean_ms = hist->mean();
      std::vector<double> qs = hist->Quantiles({50, 95, 99});
      p.p50_ms = qs[0];
      p.p95_ms = qs[1];
      p.p99_ms = qs[2];
      p.min_ms = p.count > 0 ? hist->min() : 0;
      p.max_ms = p.count > 0 ? hist->max() : 0;
      out.push_back(std::move(p));
    }
  }
  std::sort(out.begin(), out.end(), [](const Profile& a, const Profile& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.signature < b.signature;
  });
  return out;
}

std::string PlanProfileRegistry::ToJson() const {
  std::vector<Profile> profiles = Snapshot();
  std::string out = "{\"plans\":[";
  bool first = true;
  for (const Profile& p : profiles) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"signature\":\"");
    AppendJsonEscaped(p.signature, &out);
    out.append("\",\"count\":");
    out.append(std::to_string(p.count));
    out.append(",\"mean_ms\":");
    out.append(FormatMs(p.mean_ms));
    out.append(",\"p50_ms\":");
    out.append(FormatMs(p.p50_ms));
    out.append(",\"p95_ms\":");
    out.append(FormatMs(p.p95_ms));
    out.append(",\"p99_ms\":");
    out.append(FormatMs(p.p99_ms));
    out.append(",\"min_ms\":");
    out.append(FormatMs(p.min_ms));
    out.append(",\"max_ms\":");
    out.append(FormatMs(p.max_ms));
    out.append("}");
  }
  out.append("]}");
  return out;
}

void PlanProfileRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
}

PlanProfileRegistry& GlobalPlanProfiles() {
  static PlanProfileRegistry* registry = new PlanProfileRegistry();
  return *registry;
}

}  // namespace vizq::obs
