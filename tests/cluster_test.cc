// Tests of the sharded Data Server: consistent-hash placement properties
// (determinism, minimal movement), the RPC wire codecs, scatter/gather
// correctness against a single-node oracle, failover and administrative
// rebalance semantics (no stale owner serving), node-scoped temp-table
// definitions, and concurrent kill/revive vs scatter (TSan suite).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/cluster/node.h"
#include "src/cluster/placement.h"
#include "src/common/scheduler.h"
#include "src/federation/data_source.h"
#include "src/rpc/channel.h"
#include "src/rpc/envelope.h"
#include "src/server/temp_table_registry.h"
#include "tests/test_util.h"

namespace vizq::cluster {
namespace {

using query::AbstractQuery;
using query::QueryBuilder;

// --- consistent-hash placement ---

std::vector<std::string> Keys(int k) {
  std::vector<std::string> keys;
  keys.reserve(k);
  for (int i = 0; i < k; ++i) keys.push_back("source-" + std::to_string(i));
  return keys;
}

TEST(PlacementTest, DeterministicPerSeed) {
  PlacementOptions opts;
  opts.seed = 42;
  ConsistentHashRing a(opts), b(opts);
  for (int i = 0; i < 6; ++i) {
    a.AddNode("n" + std::to_string(i));
    b.AddNode("n" + std::to_string(i));
  }
  int differs_across_seeds = 0;
  PlacementOptions other;
  other.seed = 43;
  ConsistentHashRing c(other);
  for (int i = 0; i < 6; ++i) c.AddNode("n" + std::to_string(i));
  for (const auto& key : Keys(500)) {
    EXPECT_EQ(a.OwnerOf(key), b.OwnerOf(key));
    if (a.OwnerOf(key) != c.OwnerOf(key)) ++differs_across_seeds;
  }
  // A different seed is a genuinely different placement.
  EXPECT_GT(differs_across_seeds, 0);
}

TEST(PlacementTest, RemovalMovesOnlyTheRemovedNodesKeys) {
  ConsistentHashRing ring;
  for (int i = 0; i < 8; ++i) ring.AddNode("n" + std::to_string(i));
  const auto keys = Keys(1000);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.OwnerOf(key);
  ring.RemoveNode("n3");
  for (const auto& key : keys) {
    if (before[key] == "n3") {
      EXPECT_NE(ring.OwnerOf(key), "n3");
    } else {
      // The defining consistent-hashing property: keys not owned by the
      // removed member do not move at all.
      EXPECT_EQ(ring.OwnerOf(key), before[key]) << key;
    }
  }
}

TEST(PlacementTest, JoinMovesBoundedShare) {
  ConsistentHashRing ring;
  for (int i = 0; i < 8; ++i) ring.AddNode("n" + std::to_string(i));
  const auto keys = Keys(1000);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.OwnerOf(key);
  ring.AddNode("n8");
  int moved = 0;
  for (const auto& key : keys) {
    const std::string after = ring.OwnerOf(key);
    if (after != before[key]) {
      // Every move is TO the joining node, never a reshuffle among the
      // existing members.
      EXPECT_EQ(after, "n8") << key;
      ++moved;
    }
  }
  // Expected share is K/(N+1) ~= 111; virtual-node variance allows some
  // slack but nothing like the ~K*(N-1)/N a modulo scheme would move.
  EXPECT_GT(moved, 0);
  EXPECT_LE(moved, 1000 * 2 / (8 + 1));
}

TEST(PlacementTest, SpreadsLoadAcrossMembers) {
  ConsistentHashRing ring;
  for (int i = 0; i < 8; ++i) ring.AddNode("n" + std::to_string(i));
  std::map<std::string, int> load;
  for (const auto& key : Keys(1000)) load[ring.OwnerOf(key)]++;
  EXPECT_EQ(load.size(), 8u);  // every member owns something
  for (const auto& [node, count] : load) {
    EXPECT_GT(count, 1000 / 8 / 4) << node;  // no member starves
  }
}

// --- wire codecs ---

TEST(ClusterWireTest, BatchRequestRoundTrip) {
  std::vector<AbstractQuery> batch;
  batch.push_back(QueryBuilder("tde", "sales")
                      .Dim("region")
                      .Agg(AggFunc::kSum, "units", "total")
                      .Build());
  batch.push_back(QueryBuilder("tde", "sales").Dim("product").Build());
  WireBatchOptions options;
  options.cache_only = true;
  options.max_result_age_ms = 1234.5;
  options.session_id = 99;
  options.priority = TaskClass::kBackground;

  auto decoded = DecodeBatchRequest(EncodeBatchRequest(batch, options));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->first.size(), 2u);
  EXPECT_EQ(decoded->first[0].ToKeyString(), batch[0].ToKeyString());
  EXPECT_EQ(decoded->first[1].ToKeyString(), batch[1].ToKeyString());
  EXPECT_TRUE(decoded->second.cache_only);
  EXPECT_FALSE(decoded->second.cache_exact_only);
  EXPECT_DOUBLE_EQ(decoded->second.max_result_age_ms, 1234.5);
  EXPECT_EQ(decoded->second.session_id, 99u);
  EXPECT_EQ(decoded->second.priority, TaskClass::kBackground);
}

TEST(ClusterWireTest, CorruptPayloadIsTypedDataLoss) {
  std::vector<AbstractQuery> batch = {
      QueryBuilder("tde", "sales").Dim("region").Build()};
  std::string bytes = EncodeBatchRequest(batch, WireBatchOptions{});
  bytes.resize(bytes.size() / 2);  // truncate
  auto decoded = DecodeBatchRequest(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  auto resp = DecodeBatchResponse("garbage");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDataLoss);

  // Out-of-range enum tags inside a query: the aggregate function byte
  // precedes the measure's length-prefixed column name, and the predicate
  // kind byte follows the predicate's column name.
  AbstractQuery tagged = QueryBuilder("tde", "sales")
                             .Dim("region")
                             .Agg(AggFunc::kSum, "units_col", "total")
                             .FilterIn("product_col", {Value("p1")})
                             .Build();
  const std::string clean = EncodeBatchRequest({tagged}, WireBatchOptions{});
  ASSERT_TRUE(DecodeBatchRequest(clean).ok());
  const size_t func_at = clean.find("units_col") - 4 - 1;
  const size_t kind_at = clean.find("product_col") + 11;
  for (auto [at, tag] : {std::pair<size_t, char>{func_at, '\xEE'},
                         std::pair<size_t, char>{kind_at, '\x77'}}) {
    ASSERT_EQ(clean[at], '\0');  // kSum / kInSet
    std::string flipped = clean;
    flipped[at] = tag;
    auto bad = DecodeBatchRequest(flipped);
    ASSERT_FALSE(bad.ok()) << "tag at byte " << at;
    EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ClusterWireTest, EnvelopeRejectsBadMagic) {
  rpc::RpcRequest req;
  req.request_id = 7;
  req.method = "execute_batch";
  req.target = "n1";
  std::string bytes = req.Serialize();
  bytes[0] ^= 0x5a;
  auto parsed = rpc::RpcRequest::Deserialize(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

// --- cluster fixture: a coordinator plus a single-node oracle ---

struct ClusterEnv {
  explicit ClusterEnv(int num_nodes, int num_sources = 6) {
    auto db = vizq::testing::MakeTestDatabase(2048);
    backend = std::make_shared<federation::TdeDataSource>("tde", db);

    ClusterOptions copts;
    copts.num_nodes = num_nodes;
    copts.transport.net.simulate_latency = false;
    copts.shared_tier.net.simulate_latency = false;
    copts.retry.initial_backoff_ms = 0.0;  // tests need no real sleeps
    cluster = std::make_unique<ClusterCoordinator>(copts);

    oracle_caches = std::make_shared<dashboard::CacheStack>();
    oracle = std::make_unique<dashboard::QueryService>(backend, nullptr);
    for (int s = 0; s < num_sources; ++s) {
      SourceSpec spec;
      spec.view.name = "src" + std::to_string(s);
      spec.view.fact_table = "sales";
      spec.backend = backend;
      EXPECT_TRUE(cluster->Publish(spec).ok());
      EXPECT_TRUE(oracle->RegisterView(spec.view).ok());
      views.push_back(spec.view.name);
    }
  }

  // One query per source: the widest scatter a batch can have here.
  std::vector<AbstractQuery> WideBatch() const {
    std::vector<AbstractQuery> batch;
    for (const auto& view : views) {
      batch.push_back(QueryBuilder("tde", view)
                          .Dim("region")
                          .Agg(AggFunc::kSum, "units", "total")
                          .Build());
    }
    return batch;
  }

  void ExpectMatchesOracle(const std::vector<AbstractQuery>& batch,
                           const std::vector<ResultTable>& results) {
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      auto truth = oracle->ExecuteQuery(batch[i]);
      ASSERT_TRUE(truth.ok()) << truth.status();
      EXPECT_TABLES_EQUIVALENT(*truth, results[i]);
    }
  }

  std::shared_ptr<federation::DataSource> backend;
  std::unique_ptr<ClusterCoordinator> cluster;
  std::shared_ptr<dashboard::CacheStack> oracle_caches;
  std::unique_ptr<dashboard::QueryService> oracle;
  std::vector<std::string> views;
};

TEST(ClusterTest, ScatterGatherMatchesSingleNode) {
  ClusterEnv env(4);
  const auto batch = env.WideBatch();
  dashboard::BatchReport report;
  auto results = env.cluster->ExecuteBatch(batch, {}, &report);
  ASSERT_TRUE(results.ok()) << results.status();
  env.ExpectMatchesOracle(batch, *results);
  EXPECT_EQ(report.queries.size(), batch.size());
  EXPECT_GE(env.cluster->stats().scattered_groups,
            static_cast<int64_t>(env.views.size()));
}

TEST(ClusterTest, UnknownViewIsVerbatimNotFound) {
  ClusterEnv env(2);
  std::vector<AbstractQuery> batch = {
      QueryBuilder("tde", "no-such-view").Dim("region").Build()};
  auto results = env.cluster->ExecuteBatch(batch);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
}

TEST(ClusterTest, SharedTierKeepsSuccessorWarmAfterNodeDeath) {
  ClusterEnv env(4);
  const auto batch = env.WideBatch();
  auto first = env.cluster->ExecuteBatch(batch);
  ASSERT_TRUE(first.ok()) << first.status();

  // Kill an owner; the next scatter fails over via the retry hook and
  // still answers correctly (or with a typed error — never partials).
  const std::string victim = env.cluster->OwnerOf(env.views[0]);
  ASSERT_FALSE(victim.empty());
  env.cluster->KillNode(victim);

  dashboard::BatchReport report;
  auto second = env.cluster->ExecuteBatch(batch, {}, &report);
  ASSERT_TRUE(second.ok()) << second.status();
  env.ExpectMatchesOracle(batch, *second);
  EXPECT_GE(env.cluster->stats().failovers, 1);
  // Death is not an administrative move: the dead node's shared-tier
  // entries survive, so the successor can serve them warm.
  EXPECT_GT(env.cluster->shared_tier()->hits(), 0);
  // And ownership left the dead node.
  EXPECT_NE(env.cluster->OwnerOf(env.views[0]), victim);
}

TEST(ClusterTest, RebalanceLeavesNoStaleOwnerServing) {
  ClusterEnv env(4);
  const auto batch = env.WideBatch();
  ASSERT_TRUE(env.cluster->ExecuteBatch(batch).ok());

  const std::string victim = env.cluster->OwnerOf(env.views[0]);
  env.cluster->KillNode(victim);
  ASSERT_TRUE(env.cluster->ExecuteBatch(batch).ok());  // triggers failover
  const std::string successor = env.cluster->OwnerOf(env.views[0]);
  ASSERT_NE(successor, victim);

  // Revive: the node rejoins the ring and an administrative rebalance
  // returns its consistent-hash share. Every moved view must leave its
  // old owner entirely: not hosted there any more, and its shared-tier
  // namespace invalidated.
  env.cluster->ReviveNode(victim);
  EXPECT_GE(env.cluster->stats().rebalances, 1);

  for (const auto& view : env.views) {
    const std::string owner = env.cluster->OwnerOf(view);
    ASSERT_FALSE(owner.empty());
    EXPECT_TRUE(env.cluster->node(owner)->Serves(view));
    for (const auto& node_id : {std::string("n0"), std::string("n1"),
                                std::string("n2"), std::string("n3")}) {
      if (node_id == owner) continue;
      EXPECT_FALSE(env.cluster->node(node_id)->Serves(view))
          << node_id << " still serves " << view << " owned by " << owner;
    }
  }
  // The ring is deterministic, so the revived node owns its original
  // share again.
  EXPECT_EQ(env.cluster->OwnerOf(env.views[0]), victim);

  // And the cluster still answers correctly after all that churn.
  auto after = env.cluster->ExecuteBatch(batch);
  ASSERT_TRUE(after.ok()) << after.status();
  env.ExpectMatchesOracle(batch, *after);
}

TEST(ClusterTest, StalePlacementAnswersFailedPreconditionAndRoams) {
  ClusterEnv env(3);
  // Point a view's routing at a node that does not host it: the node
  // answers the stale-placement code and the channel roams back to a
  // real owner only if the resolver changes — with a fixed wrong
  // resolver the caller sees the typed failure, not a silent wrong
  // answer.
  const std::string owner = env.cluster->OwnerOf(env.views[0]);
  std::string wrong;
  for (const auto& node_id :
       {std::string("n0"), std::string("n1"), std::string("n2")}) {
    if (node_id != owner) wrong = node_id;
  }
  rpc::RetryOptions ropts;
  ropts.max_attempts = 2;
  ropts.initial_backoff_ms = 0.0;
  rpc::RetryingChannel channel(&env.cluster->transport(), ropts);
  std::vector<AbstractQuery> sub = {QueryBuilder("tde", env.views[0])
                                        .Dim("region")
                                        .Agg(AggFunc::kSum, "units", "t")
                                        .Build()};
  auto resp = channel.Call(ExecContext::Background(), "execute_batch",
                           EncodeBatchRequest(sub, WireBatchOptions{}),
                           [&wrong]() { return wrong; });
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(channel.retries(), 1);
}

// --- node-scoped temp-table definitions (PR satellite regression) ---

TEST(ClusterTest, TempTableDefinitionsAreNodeScoped) {
  server::TempTableRegistry registry;
  query::TempTableSpec spec;
  spec.name = "#in_market_1";
  spec.column = "v";
  spec.source_column = "product";
  spec.type = DataType::String();
  spec.values = {Value("apple"), Value("banana")};

  auto a = registry.Acquire(spec, "n0");
  auto b = registry.Acquire(spec, "n1");
  // Same content, different node scope: two distinct definitions, no
  // cross-node sharing.
  EXPECT_EQ(registry.num_definitions(), 2);
  EXPECT_EQ(registry.shared_acquisitions(), 0);
  // Same scope shares as before.
  auto c = registry.Acquire(spec, "n0");
  EXPECT_EQ(registry.num_definitions(), 2);
  EXPECT_EQ(registry.shared_acquisitions(), 1);
  registry.Release(a);
  registry.Release(b);
  registry.Release(c);
  EXPECT_EQ(registry.num_definitions(), 0);
}

// --- concurrency: scatter vs kill/revive (runs under TSan in CI) ---

TEST(ClusterConcurrencyTest, ScatterSurvivesKillReviveChurn) {
  ClusterEnv env(4);
  const auto batch = env.WideBatch();
  ASSERT_TRUE(env.cluster->ExecuteBatch(batch).ok());

  std::atomic<int> ok_count{0}, typed_errors{0};
  std::atomic<bool> bad_outcome{false};
  TaskGroup group(&Scheduler::Global(), TaskClass::kInteractive);
  for (int t = 0; t < 6; ++t) {
    group.Spawn([&env, &batch, &ok_count, &typed_errors, &bad_outcome]() {
      for (int i = 0; i < 15; ++i) {
        auto results = env.cluster->ExecuteBatch(batch);
        if (results.ok()) {
          if (results->size() != batch.size()) bad_outcome = true;
          ok_count++;
        } else {
          switch (results.status().code()) {
            case StatusCode::kResourceExhausted:
            case StatusCode::kDeadlineExceeded:
            case StatusCode::kAborted:
              typed_errors++;
              break;
            default:
              bad_outcome = true;  // silent partials or untyped failure
          }
        }
      }
    });
  }
  // Churn membership while the scatters run.
  for (int round = 0; round < 8; ++round) {
    const std::string victim = "n" + std::to_string(round % 4);
    env.cluster->KillNode(victim);
    env.cluster->ReviveNode(victim);
  }
  group.Wait();
  EXPECT_FALSE(bad_outcome.load());
  EXPECT_GT(ok_count.load(), 0);
  // After the churn settles, answers are exact again.
  auto final_results = env.cluster->ExecuteBatch(batch);
  ASSERT_TRUE(final_results.ok()) << final_results.status();
  env.ExpectMatchesOracle(batch, *final_results);
}

}  // namespace
}  // namespace vizq::cluster
