// Shard-determinism suite: the sharded network layer must be a pure
// execution-strategy change. For ANY shard count the superstep drain (and
// its parallel worker schedule) has to reproduce, bit for bit, the classic
// single-FIFO router: per-view NetworkStats counters (everything except
// delivery `batches`), converged view contents, and Scan results — across
// all ProvModes and maintenance strategies, on randomized topologies and
// update streams.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/reachable_runtime.h"
#include "engine/session.h"
#include "engine/shortest_path_runtime.h"
#include "engine/region_runtime.h"
#include "topology/sensor_grid.h"

namespace recnet {
namespace {

// Force the genuinely multi-threaded drain regardless of the CI machine's
// core count: parity against the sequential baseline is exactly the
// property the parallel worker schedule must uphold, and the TSan job
// needs real concurrent workers to have anything to check.
class ForceParallelDrain : public ::testing::Environment {
 public:
  void SetUp() override { Router::OverrideParallelWidth(4); }
  void TearDown() override { Router::OverrideParallelWidth(0); }
};
const auto* const kForceParallelDrain =
    ::testing::AddGlobalTestEnvironment(new ForceParallelDrain);

// Shard counts exercised against the shards=1 baseline (include one count
// larger than some test topologies so empty shards are covered too).
const int kShardCounts[] = {2, 3, 7};

void ExpectStatsEqual(const NetworkStats& got, const NetworkStats& want,
                      const char* label) {
  EXPECT_EQ(got.messages, want.messages) << label;
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.local_messages, want.local_messages) << label;
  EXPECT_EQ(got.insert_messages, want.insert_messages) << label;
  EXPECT_EQ(got.delete_messages, want.delete_messages) << label;
  EXPECT_EQ(got.kill_messages, want.kill_messages) << label;
  EXPECT_EQ(got.prov_bytes, want.prov_bytes) << label;
  EXPECT_EQ(got.prov_samples, want.prov_samples) << label;
  EXPECT_EQ(got.aborted_runs, want.aborted_runs) << label;
  EXPECT_EQ(got.dropped_messages, want.dropped_messages) << label;
  EXPECT_EQ(got.link_dropped, want.link_dropped) << label;
  EXPECT_EQ(got.link_duplicated, want.link_duplicated) << label;
  EXPECT_EQ(got.link_retried, want.link_retried) << label;
  EXPECT_EQ(got.per_peer_bytes, want.per_peer_bytes) << label;
  // `batches` is the one permitted difference: shard-local queues can
  // coalesce runs differently than the global FIFO.
}

struct GraphWorkload {
  std::vector<std::pair<int, int>> inserts;
  std::vector<std::pair<int, int>> deletes;
};

// A random directed graph plus a random deletion subset, seed-deterministic.
GraphWorkload MakeGraphWorkload(int num_nodes, int num_links, uint64_t seed) {
  Rng rng(seed);
  GraphWorkload w;
  std::set<std::pair<int, int>> used;
  while (static_cast<int>(w.inserts.size()) < num_links) {
    int src = static_cast<int>(rng.NextBounded(num_nodes));
    int dst = static_cast<int>(rng.NextBounded(num_nodes));
    if (src == dst) continue;
    if (!used.insert({src, dst}).second) continue;
    w.inserts.emplace_back(src, dst);
  }
  for (const auto& link : w.inserts) {
    if (rng.NextBool(0.25)) w.deletes.push_back(link);
  }
  return w;
}

struct Strategy {
  const char* name;
  ProvMode prov;
  ShipMode ship;
};

const Strategy kStrategies[] = {
    {"DRed", ProvMode::kSet, ShipMode::kDirect},
    {"AbsorptionLazy", ProvMode::kAbsorption, ShipMode::kLazy},
    {"AbsorptionEager", ProvMode::kAbsorption, ShipMode::kEager},
    {"RelativeLazy", ProvMode::kRelative, ShipMode::kLazy},
    {"RelativeEager", ProvMode::kRelative, ShipMode::kEager},
};

RuntimeOptions ShardedOptions(const Strategy& strategy) {
  RuntimeOptions opts;
  opts.prov = strategy.prov;
  opts.ship = strategy.ship;
  // Small eager window so eager flushes actually fire inside the drain.
  opts.batch_window = 16;
  return opts;
}

// A private substrate of `num_nodes` nodes on 5 physical peers, drained
// across `shards` router shards.
std::shared_ptr<Substrate> ShardedNet(int num_nodes, int shards) {
  SubstrateOptions deployment;
  deployment.num_physical = 5;
  deployment.shards = shards;
  return std::make_shared<Substrate>(num_nodes, deployment);
}

struct ReachableOutcome {
  NetworkStats insert_stats;
  NetworkStats delete_stats;
  std::vector<std::set<LogicalNode>> view;
};

ReachableOutcome RunReachable(const Strategy& strategy, int shards,
                              int num_nodes, const GraphWorkload& w) {
  ReachableRuntime rt(ShardedNet(num_nodes, shards), num_nodes,
                      ShardedOptions(strategy));
  for (const auto& [src, dst] : w.inserts) rt.InsertLink(src, dst);
  EXPECT_TRUE(rt.Run());
  ReachableOutcome out;
  out.insert_stats = rt.router().stats();
  rt.ResetMetrics();
  for (const auto& [src, dst] : w.deletes) rt.DeleteLink(src, dst);
  EXPECT_TRUE(rt.Run());
  out.delete_stats = rt.router().stats();
  for (int n = 0; n < num_nodes; ++n) out.view.push_back(rt.ReachableFrom(n));
  return out;
}

class ShardParityTest : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(AllStrategies, ShardParityTest,
                         ::testing::ValuesIn(kStrategies),
                         [](const ::testing::TestParamInfo<Strategy>& info) {
                           return std::string(info.param.name);
                         });

TEST_P(ShardParityTest, ReachableRandomTopologies) {
  const Strategy& strategy = GetParam();
  for (uint64_t seed : {1u, 7u}) {
    int num_nodes = seed == 1 ? 20 : 4;  // Second round: fewer nodes than
                                         // shards, so some shards are empty.
    int num_links = seed == 1 ? 44 : 8;
    GraphWorkload w = MakeGraphWorkload(num_nodes, num_links, seed);
    ReachableOutcome base = RunReachable(strategy, 1, num_nodes, w);
    for (int shards : kShardCounts) {
      SCOPED_TRACE(testing::Message() << strategy.name << " shards=" << shards
                                      << " seed=" << seed);
      ReachableOutcome got = RunReachable(strategy, shards, num_nodes, w);
      ExpectStatsEqual(got.insert_stats, base.insert_stats, "insert-phase");
      ExpectStatsEqual(got.delete_stats, base.delete_stats, "delete-phase");
      EXPECT_EQ(got.view, base.view);
    }
  }
}

TEST(ShardParityTest, ShortestPathWithAggregateSelection) {
  Rng rng(11);
  int num_nodes = 12;
  std::vector<std::tuple<int, int, double>> links;
  std::set<std::pair<int, int>> used;
  while (links.size() < 26) {
    int src = static_cast<int>(rng.NextBounded(num_nodes));
    int dst = static_cast<int>(rng.NextBounded(num_nodes));
    if (src == dst || !used.insert({src, dst}).second) continue;
    links.emplace_back(src, dst, 1.0 + static_cast<double>(rng.NextBounded(9)));
  }
  auto run = [&](int shards) {
    Strategy absorption{"AbsorptionLazy", ProvMode::kAbsorption,
                        ShipMode::kLazy};
    ShortestPathRuntime rt(ShardedNet(num_nodes, shards), num_nodes,
                           ShardedOptions(absorption), AggSelPolicy::kMulti);
    for (const auto& [src, dst, cost] : links) rt.InsertLink(src, dst, cost);
    EXPECT_TRUE(rt.Run());
    rt.DeleteLink(std::get<0>(links[3]), std::get<1>(links[3]));
    rt.DeleteLink(std::get<0>(links[9]), std::get<1>(links[9]));
    EXPECT_TRUE(rt.Run());
    std::vector<std::pair<NetworkStats, std::vector<double>>> out;
    std::vector<double> costs;
    for (int s = 0; s < num_nodes; ++s) {
      for (int d = 0; d < num_nodes; ++d) {
        auto c = rt.MinCost(s, d);
        costs.push_back(c.has_value() ? *c : -1.0);
      }
    }
    return std::make_pair(rt.router().stats(), costs);
  };
  auto base = run(1);
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto got = run(shards);
    ExpectStatsEqual(got.first, base.first, "shortest-path");
    EXPECT_EQ(got.second, base.second);
  }
}

TEST(ShardParityTest, RegionTriggerWaves) {
  SensorGridOptions grid;
  grid.grid_dim = 5;
  grid.num_seeds = 3;
  grid.seed = 13;
  SensorField field = MakeSensorGrid(grid);
  for (const Strategy& strategy : kStrategies) {
    if (strategy.ship == ShipMode::kEager) continue;  // Keep runtime modest.
    auto run = [&](int shards) {
      RegionRuntime rt(ShardedNet(field.num_sensors, shards), field,
                       ShardedOptions(strategy));
      Rng rng(3);
      std::vector<int> triggered;
      for (int s = 0; s < field.num_sensors; ++s) {
        if (rng.NextBool(0.6)) {
          rt.Trigger(s);
          triggered.push_back(s);
        }
      }
      EXPECT_TRUE(rt.Run());
      NetworkStats insert_stats = rt.router().stats();
      rt.ResetMetrics();
      for (size_t i = 0; i < triggered.size(); i += 3) {
        rt.Untrigger(triggered[i]);
      }
      EXPECT_TRUE(rt.Run());
      std::vector<std::set<int>> members;
      for (int r = 0; r < rt.num_regions(); ++r) {
        members.push_back(rt.RegionMembers(r));
      }
      return std::make_tuple(insert_stats, rt.router().stats(), members,
                             rt.LargestRegions());
    };
    auto base = run(1);
    for (int shards : kShardCounts) {
      SCOPED_TRACE(testing::Message() << strategy.name << " shards=" << shards);
      auto got = run(shards);
      ExpectStatsEqual(std::get<0>(got), std::get<0>(base), "insert-phase");
      ExpectStatsEqual(std::get<1>(got), std::get<1>(base), "delete-phase");
      EXPECT_EQ(std::get<2>(got), std::get<2>(base));
      EXPECT_EQ(std::get<3>(got), std::get<3>(base));
    }
  }
}

// Facade-level parity: compiled programs, materialized scan caches (the
// incremental per-shard delta-log path), and soft-state expiry all behave
// identically on a sharded substrate.
TEST(ShardParityTest, EngineScanCachesAcrossShards) {
  constexpr char kProgram[] = R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
    fanout(x,count<y>) :- reachable(x,y).
  )";
  GraphWorkload w = MakeGraphWorkload(14, 30, 21);
  auto run = [&](int shards, ProvMode prov) {
    EngineOptions options;
    options.num_nodes = 14;
    options.runtime.prov = prov;
    SessionOptions deployment;
    deployment.num_physical = 5;
    deployment.shards = shards;
    auto engine = Engine::Compile(kProgram, options, deployment);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    for (size_t i = 0; i + 4 < w.inserts.size(); ++i) {
      auto [src, dst] = w.inserts[i];
      EXPECT_TRUE(
          (*engine)->Insert("link", {double(src), double(dst)}).ok());
    }
    EXPECT_TRUE((*engine)->Apply().ok());
    // Materialize the caches, then mutate so Apply patches them from the
    // (per-shard) delta logs. Inserts and deletes go in separate Applies:
    // deleting a link whose insert is still queued trips a (pre-existing)
    // DRed over-deletion storm that exhausts the budget at every shard
    // count alike.
    std::vector<Tuple> first_scan = *(*engine)->Scan("reachable");
    for (size_t i = w.inserts.size() - 4; i < w.inserts.size(); ++i) {
      auto [src, dst] = w.inserts[i];
      EXPECT_TRUE(
          (*engine)->Insert("link", {double(src), double(dst)}).ok());
    }
    EXPECT_TRUE((*engine)->Apply().ok());
    for (size_t i = 0; i < w.deletes.size() && i < 5; ++i) {
      auto [src, dst] = w.deletes[i];
      EXPECT_TRUE(
          (*engine)->Delete("link", {double(src), double(dst)}).ok());
    }
    EXPECT_TRUE((*engine)->Apply().ok());
    RunMetrics m = (*engine)->Metrics();
    return std::make_tuple(first_scan, *(*engine)->Scan("reachable"),
                           *(*engine)->Scan("fanout"), m.messages,
                           m.kill_messages);
  };
  for (ProvMode prov :
       {ProvMode::kAbsorption, ProvMode::kRelative, ProvMode::kSet}) {
    auto base = run(1, prov);
    for (int shards : kShardCounts) {
      SCOPED_TRACE(testing::Message()
                   << ProvModeName(prov) << " shards=" << shards);
      auto got = run(shards, prov);
      EXPECT_EQ(std::get<0>(got), std::get<0>(base));
      EXPECT_EQ(std::get<1>(got), std::get<1>(base));
      EXPECT_EQ(std::get<2>(got), std::get<2>(base));
      EXPECT_EQ(std::get<3>(got), std::get<3>(base));
      EXPECT_EQ(std::get<4>(got), std::get<4>(base));
    }
  }
}

// Multi-view sessions on a sharded substrate: per-view counters and scans
// match the single-shard session exactly.
TEST(ShardParityTest, SessionViewsAcrossShards) {
  constexpr char kReach[] = R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )";
  constexpr char kSpan[] = R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
  )";
  GraphWorkload w = MakeGraphWorkload(10, 20, 5);
  auto run = [&](int shards) {
    SessionOptions so;
    so.num_nodes = 10;
    so.num_physical = 4;
    so.shards = shards;
    Session session(so);
    auto reach = session.AddProgram(kReach, {});
    auto span = session.AddProgram(kSpan, {});
    EXPECT_TRUE(reach.ok() && span.ok());
    for (const auto& [src, dst] : w.inserts) {
      EXPECT_TRUE(session.Insert("link", {double(src), double(dst)}).ok());
    }
    EXPECT_TRUE(session.Apply().ok());
    for (const auto& [src, dst] : w.deletes) {
      EXPECT_TRUE(session.Delete("link", {double(src), double(dst)}).ok());
    }
    EXPECT_TRUE(session.Apply().ok());
    RunMetrics rm = (*reach)->Metrics();
    RunMetrics sm = (*span)->Metrics();
    return std::make_tuple(rm.messages, rm.kill_messages, sm.messages,
                           sm.kill_messages, *(*reach)->Scan("reachable"),
                           *(*span)->Scan("span"));
  };
  auto base = run(1);
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    EXPECT_EQ(run(shards), base);
  }
}

// Budget aborts cut the sharded drain at the exact same global delivery as
// the sequential router, so even ">budget" cells are reproducible across
// shard counts (message budgets only — wall-clock cutoffs are inherently
// machine-dependent).
TEST(ShardParityTest, BudgetAbortCutsAtSameDelivery) {
  GraphWorkload w = MakeGraphWorkload(16, 40, 9);
  auto run = [&](int shards) {
    Strategy absorption{"AbsorptionLazy", ProvMode::kAbsorption,
                        ShipMode::kLazy};
    RuntimeOptions opts = ShardedOptions(absorption);
    opts.message_budget = 300;  // Exhausts mid-fixpoint.
    ReachableRuntime rt(ShardedNet(16, shards), 16, opts);
    for (const auto& [src, dst] : w.inserts) rt.InsertLink(src, dst);
    EXPECT_FALSE(rt.Run());
    return rt.router().stats();
  };
  NetworkStats base = run(1);
  EXPECT_EQ(base.aborted_runs, 1u);
  EXPECT_GT(base.dropped_messages, 0u);
  for (int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ExpectStatsEqual(run(shards), base, "aborted");
  }
}

// Wall-clock cutoffs are inherently machine-dependent (see the caveat
// above), so the deadline-exceeded drain is pinned behaviorally rather than
// bit-for-bit: at EVERY shard count an already-expired time budget must
// abort the run, book exactly one aborted run, purge (and uncharge) the
// initiating view's queued envelopes, and freeze a non-converged metrics
// snapshot — the sequential poll loop and the superstep workers' shared
// deadline have to agree on all of that.
TEST(ShardParityTest, DeadlineExceededDrainAbortsAtEveryShardCount) {
  GraphWorkload w = MakeGraphWorkload(16, 40, 9);
  for (int shards : {1, 2, 3, 7}) {
    SCOPED_TRACE(shards);
    Strategy absorption{"AbsorptionLazy", ProvMode::kAbsorption,
                        ShipMode::kLazy};
    RuntimeOptions opts = ShardedOptions(absorption);
    opts.time_budget_s = 1e-9;  // Expired before the first poll point.
    ReachableRuntime rt(ShardedNet(16, shards), 16, opts);
    for (const auto& [src, dst] : w.inserts) rt.InsertLink(src, dst);
    EXPECT_FALSE(rt.Run());
    NetworkStats stats = rt.router().stats();
    EXPECT_EQ(stats.aborted_runs, 1u);
    EXPECT_GT(stats.dropped_messages, 0u);
    RunMetrics m = rt.Metrics();
    EXPECT_FALSE(m.converged);
    // The purge uncharged the dropped envelopes: the frozen charge counter
    // only covers deliveries that actually happened before the cutoff.
    EXPECT_EQ(m.messages, stats.messages);
    EXPECT_EQ(m.dropped_messages, stats.dropped_messages);
  }
}

}  // namespace
}  // namespace recnet
