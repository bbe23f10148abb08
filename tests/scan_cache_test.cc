// Invalidation coverage for the QueryRuntime scan caches and lookup
// indexes: cached Scan / Lookup results must reflect Apply batches,
// deletions, and soft-state TTL expiry across all three runtimes
// (reachable, shortest path, region).

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "topology/sensor_grid.h"

namespace recnet {
namespace {

constexpr char kReachable[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
  fanout(x,count<y>) :- reachable(x,y).
)";

constexpr char kShortestPath[] = R"(
  path(x,y,c) :- link(x,y,c).
  path(x,y,c) :- link(x,z,c), path(z,y,c2).
  minCost(x,y,min<c>) :- path(x,y,c).
)";

constexpr char kRegion[] = R"(
  activeRegion(r,x) :- seed(r,x), triggered(x).
  activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
  regionSizes(r,count<x>) :- activeRegion(r,x).
)";

EngineOptions GraphOptions(int num_nodes, ProvMode prov) {
  EngineOptions options;
  options.num_nodes = num_nodes;
  options.runtime.prov = prov;
  return options;
}

// The deployment the engines run on: 4 physical peers.
SessionOptions FourPeers() {
  SessionOptions deployment;
  deployment.num_physical = 4;
  return deployment;
}

class ScanCacheProvTest : public ::testing::TestWithParam<ProvMode> {};

INSTANTIATE_TEST_SUITE_P(AllProvModes, ScanCacheProvTest,
                         ::testing::Values(ProvMode::kAbsorption,
                                           ProvMode::kRelative,
                                           ProvMode::kSet),
                         [](const ::testing::TestParamInfo<ProvMode>& info) {
                           return ProvModeName(info.param);
                         });

TEST_P(ScanCacheProvTest, ReachableScanReflectsApplyBatches) {
  auto engine = Engine::Compile(kReachable, GraphOptions(5, GetParam()),
                                FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());

  // Repeated reads hit the materialized cache and agree with each other.
  auto first = e.Scan("reachable");
  ASSERT_TRUE(first.ok());
  auto second = e.Scan("reachable");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(first->size(), 3u);  // (0,1) (0,2) (1,2).
  EXPECT_TRUE(*e.Contains("reachable", {0, 2}));

  // A new Apply batch must show up in subsequent scans and lookups.
  ASSERT_TRUE(e.Insert("link", {2, 3}).ok());
  ASSERT_TRUE(e.Insert("link", {3, 4}).ok());
  ASSERT_TRUE(e.Apply().ok());
  auto grown = e.Scan("reachable");
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->size(), 10u);  // Full chain closure over 5 nodes.
  EXPECT_TRUE(*e.Contains("reachable", {0, 4}));

  // Deletion invalidates both the scan rows and the lookup index.
  ASSERT_TRUE(e.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 2}));
  EXPECT_FALSE(*e.Contains("reachable", {0, 4}));
  auto shrunk = e.Scan("reachable");
  ASSERT_TRUE(shrunk.ok());
  EXPECT_LT(shrunk->size(), grown->size());
}

TEST_P(ScanCacheProvTest, AggregateViewCacheInvalidates) {
  auto engine = Engine::Compile(kReachable, GraphOptions(4, GetParam()),
                                FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto fanout = e.Lookup("fanout", {0});
  ASSERT_TRUE(fanout.ok());
  EXPECT_EQ(fanout->IntAt(1), 2);

  ASSERT_TRUE(e.Insert("link", {0, 3}).ok());
  ASSERT_TRUE(e.Apply().ok());
  fanout = e.Lookup("fanout", {0});
  ASSERT_TRUE(fanout.ok());
  EXPECT_EQ(fanout->IntAt(1), 3);

  ASSERT_TRUE(e.Delete("link", {0, 1}).ok());
  ASSERT_TRUE(e.Delete("link", {0, 2}).ok());
  ASSERT_TRUE(e.Delete("link", {0, 3}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(e.Lookup("fanout", {0}).ok());
}

TEST_P(ScanCacheProvTest, TtlExpiryInvalidatesCachedScans) {
  auto engine = Engine::Compile(kReachable, GraphOptions(4, GetParam()),
                                FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.InsertWithTtl("link", Tuple::OfInts({1, 2}), 5.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 2}));
  auto before = e.Scan("reachable");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 3u);

  // Advancing past the deadline expires the soft-state link; the expiry is
  // an ordinary deletion, and the next Apply patches the cached scan and
  // lookup index.
  ASSERT_TRUE(e.AdvanceTime(6.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 2}));
  EXPECT_FALSE(*e.Contains("reachable", {1, 2}));
  auto after = e.Scan("reachable");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);  // Only (0,1) survives.
}

TEST(ScanCacheTest, ShortestPathLookupTracksDeletions) {
  auto engine =
      Engine::Compile(kShortestPath, GraphOptions(4, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2, 5.0}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto cost = e.Lookup("minCost", {0, 2});
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 2.0);

  // Deleting the cheap relay must re-route lookups through the direct link.
  ASSERT_TRUE(e.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  cost = e.Lookup("minCost", {0, 2});
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 5.0);

  ASSERT_TRUE(e.Delete("link", {0, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(e.Lookup("minCost", {0, 2}).ok());
}

TEST(ScanCacheTest, LookupIndexNormalizesNumericKeys) {
  auto engine =
      Engine::Compile(kShortestPath, GraphOptions(3, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1, 2.5}).ok());
  ASSERT_TRUE(e.Apply().ok());

  // The aggregate view stores (int, int, double); probing the hash index
  // with double-typed key columns must still hit (numeric normalization).
  auto by_double = e.Lookup("minCost", Tuple({Value(0.0), Value(1.0)}));
  ASSERT_TRUE(by_double.ok()) << by_double.status().ToString();
  EXPECT_DOUBLE_EQ(by_double->DoubleAt(2), 2.5);
  auto by_int = e.Lookup("minCost", Tuple::OfInts({0, 1}));
  ASSERT_TRUE(by_int.ok());
  EXPECT_EQ(*by_double, *by_int);
}

// The incremental patch path (cached rows + indexes updated from run
// deltas) must be indistinguishable from a fresh engine that materializes
// its caches from scratch at every step — across maintenance strategies,
// for the recursive and the aggregate view, for scans and indexed lookups.
TEST_P(ScanCacheProvTest, IncrementalPatchMatchesFreshEngine) {
  const int n = 6;
  auto cached = Engine::Compile(kReachable, GraphOptions(n, GetParam()),
                                FourPeers());
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  // `fresh` replays the same ops but is re-compiled before every read, so
  // its caches are always built by a full ScanView sweep.
  std::vector<std::pair<bool, std::pair<int, int>>> ops = {
      {true, {0, 1}},  {true, {1, 2}},  {true, {2, 3}},  {true, {3, 0}},
      {false, {1, 2}}, {true, {1, 4}},  {true, {4, 5}},  {false, {0, 1}},
      {true, {0, 2}},  {false, {2, 3}}, {true, {2, 3}},  {false, {4, 5}},
  };
  std::vector<std::pair<bool, std::pair<int, int>>> applied;
  for (const auto& op : ops) {
    applied.push_back(op);
    Engine& c = **cached;
    if (op.first) {
      ASSERT_TRUE(c.Insert("link", {double(op.second.first),
                                    double(op.second.second)}).ok());
    } else {
      ASSERT_TRUE(c.Delete("link", {double(op.second.first),
                                    double(op.second.second)}).ok());
    }
    ASSERT_TRUE(c.Apply().ok());

    auto fresh = Engine::Compile(kReachable, GraphOptions(n, GetParam()),
                                 FourPeers());
    ASSERT_TRUE(fresh.ok());
    for (const auto& past : applied) {
      // Apply per op, like the cached engine above (DRed requires each
      // deletion's over-delete/re-derive cycle to run in isolation).
      if (past.first) {
        ASSERT_TRUE((*fresh)->Insert("link", {double(past.second.first),
                                              double(past.second.second)}).ok());
      } else {
        ASSERT_TRUE((*fresh)->Delete("link", {double(past.second.first),
                                              double(past.second.second)}).ok());
      }
      ASSERT_TRUE((*fresh)->Apply().ok());
    }

    for (const char* view : {"reachable", "fanout"}) {
      auto got = c.Scan(view);
      auto want = (*fresh)->Scan(view);
      ASSERT_TRUE(got.ok() && want.ok()) << view;
      EXPECT_EQ(*got, *want) << view << " after op " << applied.size();
    }
    // Indexed lookups agree entry-for-entry with the fresh engine.
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        auto got = c.Contains("reachable", {double(src), double(dst)});
        auto want = (*fresh)->Contains("reachable", {double(src), double(dst)});
        ASSERT_TRUE(got.ok() && want.ok());
        EXPECT_EQ(*got, *want) << src << "->" << dst;
      }
      auto got = c.Lookup("fanout", {double(src)});
      auto want = (*fresh)->Lookup("fanout", {double(src)});
      ASSERT_EQ(got.ok(), want.ok()) << "fanout " << src;
      if (got.ok()) {
        EXPECT_EQ(*got, *want);
      }
    }
  }
}

// Same equivalence for the shortest-path adapter's min-cost projection,
// whose deltas are recomputed per affected (src, dst) pair.
TEST(ScanCacheTest, ShortestPathIncrementalPatchMatchesFreshEngine) {
  const int n = 5;
  auto cached =
      Engine::Compile(kShortestPath, GraphOptions(n, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(cached.ok());
  std::vector<std::pair<bool, std::vector<double>>> ops = {
      {true, {0, 1, 1.0}}, {true, {1, 2, 1.0}}, {true, {0, 2, 5.0}},
      {true, {2, 3, 2.0}}, {false, {1, 2}},     {true, {1, 2, 0.5}},
      {true, {3, 4, 1.0}}, {false, {0, 2}},
  };
  std::vector<std::pair<bool, std::vector<double>>> applied;
  for (const auto& op : ops) {
    applied.push_back(op);
    Engine& c = **cached;
    Status st = op.first
                    ? c.Insert("link",
                               Tuple({Value(static_cast<int64_t>(op.second[0])),
                                      Value(static_cast<int64_t>(op.second[1])),
                                      Value(op.second[2])}))
                    : c.Delete("link", Tuple::OfInts(
                          {static_cast<int64_t>(op.second[0]),
                           static_cast<int64_t>(op.second[1])}));
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(c.Apply().ok());

    auto fresh =
        Engine::Compile(kShortestPath, GraphOptions(n, ProvMode::kAbsorption),
                        FourPeers());
    ASSERT_TRUE(fresh.ok());
    for (const auto& past : applied) {
      Status pst =
          past.first
              ? (*fresh)->Insert(
                    "link",
                    Tuple({Value(static_cast<int64_t>(past.second[0])),
                           Value(static_cast<int64_t>(past.second[1])),
                           Value(past.second[2])}))
              : (*fresh)->Delete("link", Tuple::OfInts(
                    {static_cast<int64_t>(past.second[0]),
                     static_cast<int64_t>(past.second[1])}));
      ASSERT_TRUE(pst.ok());
      ASSERT_TRUE((*fresh)->Apply().ok());
    }

    for (const char* view : {"path", "minCost"}) {
      auto got = c.Scan(view);
      auto want = (*fresh)->Scan(view);
      ASSERT_TRUE(got.ok() && want.ok()) << view;
      EXPECT_EQ(*got, *want) << view << " after op " << applied.size();
    }
  }
}

// Same equivalence for the region adapter, replaying trigger/untrigger
// sequences (kills, re-derivations, and relative-mode underivability
// sweeps all flow through the delta log) across maintenance strategies.
TEST_P(ScanCacheProvTest, RegionIncrementalPatchMatchesFreshEngine) {
  SensorGridOptions grid;
  grid.grid_dim = 4;
  grid.num_seeds = 2;
  grid.seed = 11;
  EngineOptions options;
  options.field = MakeSensorGrid(grid);
  options.runtime.prov = GetParam();

  auto cached = Engine::Compile(kRegion, options, FourPeers());
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  int seed0 = options.field->seed_sensors[0];
  int seed1 = options.field->seed_sensors[1];
  const auto& nbrs = options.field->neighbors[static_cast<size_t>(seed0)];
  // Trigger both seeds and a neighborhood, then untrigger parts of it.
  std::vector<std::pair<bool, int>> ops = {{true, seed0}, {true, seed1}};
  for (int nb : nbrs) ops.emplace_back(true, nb);
  ops.emplace_back(false, seed0);
  ops.emplace_back(true, seed0);
  if (!nbrs.empty()) ops.emplace_back(false, nbrs[0]);
  ops.emplace_back(false, seed1);

  std::vector<std::pair<bool, int>> applied;
  for (const auto& op : ops) {
    applied.push_back(op);
    Engine& c = **cached;
    Status st = op.first ? c.Insert("triggered", {double(op.second)})
                         : c.Delete("triggered", {double(op.second)});
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(c.Apply().ok());

    auto fresh = Engine::Compile(kRegion, options, FourPeers());
    ASSERT_TRUE(fresh.ok());
    for (const auto& past : applied) {
      Status pst = past.first
                       ? (*fresh)->Insert("triggered", {double(past.second)})
                       : (*fresh)->Delete("triggered", {double(past.second)});
      ASSERT_TRUE(pst.ok());
      ASSERT_TRUE((*fresh)->Apply().ok());
    }

    for (const char* view : {"activeRegion", "regionSizes"}) {
      auto got = c.Scan(view);
      auto want = (*fresh)->Scan(view);
      ASSERT_TRUE(got.ok() && want.ok()) << view;
      EXPECT_EQ(*got, *want)
          << view << " after op " << applied.size() << " ("
          << ProvModeName(GetParam()) << ")";
    }
    auto got0 = c.Lookup("regionSizes", {0});
    auto want0 = (*fresh)->Lookup("regionSizes", {0});
    ASSERT_EQ(got0.ok(), want0.ok());
    if (got0.ok()) {
      EXPECT_EQ(*got0, *want0);
    }
  }
}

TEST(ScanCacheTest, RegionScansTrackTriggerChanges) {
  SensorGridOptions grid;
  grid.grid_dim = 4;
  grid.num_seeds = 2;
  grid.seed = 7;
  EngineOptions options;
  options.field = MakeSensorGrid(grid);
  options.runtime.prov = ProvMode::kAbsorption;

  auto engine = Engine::Compile(kRegion, options, FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  int seed0 = options.field->seed_sensors[0];
  ASSERT_TRUE(e.Insert("triggered", {double(seed0)}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto members = e.Scan("activeRegion");
  ASSERT_TRUE(members.ok());
  size_t seed_only = members->size();
  EXPECT_GE(seed_only, 1u);
  auto size0 = e.Lookup("regionSizes", {0});
  ASSERT_TRUE(size0.ok());

  // Triggering the neighborhood grows the cached region view.
  for (int nb : options.field->neighbors[static_cast<size_t>(seed0)]) {
    ASSERT_TRUE(e.Insert("triggered", {double(nb)}).ok());
  }
  ASSERT_TRUE(e.Apply().ok());
  members = e.Scan("activeRegion");
  ASSERT_TRUE(members.ok());
  EXPECT_GT(members->size(), seed_only);
  auto grown0 = e.Lookup("regionSizes", {0});
  ASSERT_TRUE(grown0.ok());
  EXPECT_GT(grown0->IntAt(1), size0->IntAt(1));

  // Untriggering everything empties the cached view and its index.
  ASSERT_TRUE(e.Delete("triggered", {double(seed0)}).ok());
  for (int nb : options.field->neighbors[static_cast<size_t>(seed0)]) {
    ASSERT_TRUE(e.Delete("triggered", {double(nb)}).ok());
  }
  ASSERT_TRUE(e.Apply().ok());
  auto emptied = e.Scan("activeRegion");
  ASSERT_TRUE(emptied.ok());
  EXPECT_TRUE(emptied->empty());
  EXPECT_FALSE(e.Lookup("regionSizes", {0}).ok());
}

}  // namespace
}  // namespace recnet
