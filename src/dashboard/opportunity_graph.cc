#include "src/dashboard/opportunity_graph.h"

#include <string>

#include "src/cache/intelligent_cache.h"

namespace vizq::dashboard {

OpportunityGraph BuildOpportunityGraph(
    const std::vector<query::AbstractQuery>& batch) {
  int n = static_cast<int>(batch.size());
  OpportunityGraph g;
  g.covers.assign(n, {});
  g.remote.assign(n, false);
  g.predecessor.assign(n, -1);

  std::vector<std::string> keys;
  keys.reserve(n);
  for (const query::AbstractQuery& q : batch) keys.push_back(q.ToKeyString());
  // answers[i * n + j]: node i's result can be post-processed into j's.
  std::vector<char> answers(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      answers[i * n + j] =
          i != j &&
          cache::MatchQueries(batch[i], keys[i], batch[j], keys[j]).has_value();
    }
  }

  // covered_by[j]: candidate predecessors of j, in index order.
  std::vector<std::vector<int>> covered_by(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!answers[i * n + j]) continue;
      // Equivalent (mutually covering) queries, such as one query twice
      // or with its dimensions reordered: keep only the lower-index ->
      // higher-index edge.
      if (answers[j * n + i] && i > j) continue;
      g.covers[i].push_back(j);
      covered_by[j].push_back(i);
    }
  }

  // Source nodes have no incoming edges; every other node picks its first
  // *remote* predecessor (a covered-by chain always bottoms out in a
  // source because "covers" is transitive over the subsumption relation).
  for (int j = 0; j < n; ++j) {
    g.remote[j] = covered_by[j].empty();
  }
  for (int j = 0; j < n; ++j) {
    if (g.remote[j]) continue;
    for (int i : covered_by[j]) {
      if (g.remote[i]) {
        g.predecessor[j] = i;
        break;
      }
    }
    if (g.predecessor[j] < 0) {
      // All predecessors are themselves local; follow the first one's
      // chain (finite: indices strictly decrease along equivalences and
      // the relation is acyclic otherwise).
      int cur = covered_by[j][0];
      while (!g.remote[cur] && g.predecessor[cur] >= 0) {
        cur = g.predecessor[cur];
      }
      g.predecessor[j] = cur;
    }
  }
  return g;
}

}  // namespace vizq::dashboard
