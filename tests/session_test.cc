// Multi-view Session coverage: several compiled programs co-resident on one
// router + BDD manager + shared EDB store must behave exactly like isolated
// Engine instances (bit-identical per-view message/kill counters and scan
// results), shared EDBs must fan out to every declaring view (including
// programs added later), the node-id space must grow on demand, and the
// region deployment must be derivable from ground facts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/session.h"
#include "topology/sensor_grid.h"

namespace recnet {
namespace {

constexpr char kReachable[] = R"(
  reachable(x,y) :- edge(x,y).
  reachable(x,y) :- edge(x,z), reachable(z,y).
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

constexpr int kNodes = 16;  // Grid 4x4 sensors == graph nodes.

EngineOptions GraphOptions(ProvMode prov) {
  EngineOptions options;
  options.num_nodes = kNodes;
  options.runtime.prov = prov;
  return options;
}

EngineOptions RegionOptions(const SensorField& field, ProvMode prov) {
  EngineOptions options;
  options.field = field;
  options.runtime.prov = prov;
  return options;
}

SensorField TestField() {
  SensorGridOptions grid;
  grid.grid_dim = 4;
  grid.num_seeds = 2;
  grid.seed = 7;
  return MakeSensorGrid(grid);
}

// A session over `nodes` logical nodes mapped onto `physical` peers, with
// every other option at its default.
SessionOptions Topology(int nodes, int physical) {
  SessionOptions options;
  options.num_nodes = nodes;
  options.num_physical = physical;
  return options;
}

SessionOptions SharedOptions() { return Topology(kNodes, 4); }

// One step of the equivalence workload: the same mutation stream applied to
// a view (session side) or an engine (isolated side).
struct GraphOp {
  bool insert;
  int src, dst;
  double cost;  // Shortest-path workload only.
};

std::vector<GraphOp> EdgeOps(bool deletes) {
  std::vector<GraphOp> ops;
  for (int i = 0; i < kNodes; ++i) {
    ops.push_back({true, i, (i + 1) % kNodes, 0});
    if (i % 3 == 0) ops.push_back({true, i, (i + 5) % kNodes, 0});
  }
  if (deletes) {
    ops.push_back({false, 2, 3, 0});
    ops.push_back({false, 0, 5, 0});
    ops.push_back({false, 15, 0, 0});
  }
  return ops;
}

std::vector<GraphOp> LinkOps(bool deletes) {
  std::vector<GraphOp> ops;
  for (int i = 0; i < kNodes; ++i) {
    ops.push_back({true, i, (i + 1) % kNodes, 1.0 + i % 3});
  }
  ops.push_back({true, 0, 7, 9.5});
  ops.push_back({true, 7, 0, 2.5});
  if (deletes) {
    ops.push_back({false, 3, 4, 0});
    ops.push_back({false, 0, 7, 0});
  }
  return ops;
}

class SessionEquivalenceTest : public ::testing::TestWithParam<ProvMode> {};

INSTANTIATE_TEST_SUITE_P(AllProvModes, SessionEquivalenceTest,
                         ::testing::Values(ProvMode::kAbsorption,
                                           ProvMode::kRelative,
                                           ProvMode::kSet),
                         [](const ::testing::TestParamInfo<ProvMode>& info) {
                           return ProvModeName(info.param);
                         });

// The ISSUE-4 acceptance bar: a session hosting reachable + shortest-path +
// region views produces bit-identical per-view message/kill counters and
// scan results vs. three isolated Engine instances on the same topology.
// (The shortest-path view joins under absorption only — its runtime's
// contract — so the other modes run the two-view variant.)
TEST_P(SessionEquivalenceTest, SharedSubstrateMatchesIsolatedEngines) {
  ProvMode prov = GetParam();
  SensorField field = TestField();
  bool with_paths = prov == ProvMode::kAbsorption;

  // --- Isolated baselines --------------------------------------------------
  auto reach_engine =
      Engine::Compile(kReachable, GraphOptions(prov), SharedOptions());
  ASSERT_TRUE(reach_engine.ok()) << reach_engine.status().ToString();
  auto region_engine =
      Engine::Compile(kRegion, RegionOptions(field, prov), SharedOptions());
  ASSERT_TRUE(region_engine.ok()) << region_engine.status().ToString();
  StatusOr<std::unique_ptr<Engine>> path_engine =
      Engine::Compile(kShortestPath, GraphOptions(prov), SharedOptions());
  if (with_paths) {
    ASSERT_TRUE(path_engine.ok()) << path_engine.status().ToString();
  }

  // --- One shared session --------------------------------------------------
  Session session(SharedOptions());
  auto reach_view = session.AddProgram(kReachable, GraphOptions(prov));
  ASSERT_TRUE(reach_view.ok()) << reach_view.status().ToString();
  View* path_view = nullptr;
  if (with_paths) {
    auto added = session.AddProgram(kShortestPath, GraphOptions(prov));
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    path_view = added.value();
  }
  auto region_view = session.AddProgram(kRegion, RegionOptions(field, prov));
  ASSERT_TRUE(region_view.ok()) << region_view.status().ToString();
  EXPECT_EQ(session.num_views(), with_paths ? 3u : 2u);

  int seed0 = field.seed_sensors[0];
  const auto& nbrs = field.neighbors[static_cast<size_t>(seed0)];

  auto run_phase = [&](bool deletes) {
    // Same per-view mutation order on both sides; the session interleaves
    // the enqueues of all views on one FIFO.
    for (const GraphOp& op : EdgeOps(deletes)) {
      if (!op.insert && !deletes) continue;
      Status iso = op.insert
                       ? (*reach_engine)->Insert("edge", {double(op.src),
                                                          double(op.dst)})
                       : (*reach_engine)->Delete("edge", {double(op.src),
                                                          double(op.dst)});
      Status shared = op.insert
                          ? session.Insert("edge", {double(op.src),
                                                    double(op.dst)})
                          : session.Delete("edge", {double(op.src),
                                                    double(op.dst)});
      ASSERT_TRUE(iso.ok()) << iso.ToString();
      ASSERT_TRUE(shared.ok()) << shared.ToString();
    }
    if (with_paths) {
      for (const GraphOp& op : LinkOps(deletes)) {
        Status iso, shared;
        if (op.insert) {
          Tuple link({Value(static_cast<int64_t>(op.src)),
                      Value(static_cast<int64_t>(op.dst)), Value(op.cost)});
          iso = (*path_engine)->Insert("link", link);
          shared = session.Insert("link", link);
        } else {
          Tuple key = Tuple::OfInts({op.src, op.dst});
          iso = (*path_engine)->Delete("link", key);
          shared = session.Delete("link", key);
        }
        ASSERT_TRUE(iso.ok()) << iso.ToString();
        ASSERT_TRUE(shared.ok()) << shared.ToString();
      }
    }
    if (!deletes) {
      ASSERT_TRUE((*region_engine)->Insert("triggered", {double(seed0)}).ok());
      ASSERT_TRUE(session.Insert("triggered", {double(seed0)}).ok());
      for (int nb : nbrs) {
        ASSERT_TRUE((*region_engine)->Insert("triggered", {double(nb)}).ok());
        ASSERT_TRUE(session.Insert("triggered", {double(nb)}).ok());
      }
    } else {
      ASSERT_TRUE((*region_engine)->Delete("triggered", {double(seed0)}).ok());
      ASSERT_TRUE(session.Delete("triggered", {double(seed0)}).ok());
    }

    // Isolated engines converge one by one; the session converges all views
    // in one shared drain.
    ASSERT_TRUE((*reach_engine)->Apply().ok());
    if (with_paths) {
      ASSERT_TRUE((*path_engine)->Apply().ok());
    }
    ASSERT_TRUE((*region_engine)->Apply().ok());
    ASSERT_TRUE(session.Apply().ok());
  };

  auto expect_equivalent = [&](const char* phase) {
    struct Pair {
      Engine* isolated;
      View* view;
      std::vector<std::string> views;
    };
    std::vector<Pair> pairs = {
        {reach_engine->get(), reach_view.value(), {"reachable", "fanout"}},
        {region_engine->get(), region_view.value(),
         {"activeRegion", "regionSizes"}},
    };
    if (with_paths) {
      pairs.push_back({path_engine->get(), path_view, {"path", "minCost"}});
    }
    for (const Pair& pair : pairs) {
      RunMetrics iso = pair.isolated->Metrics();
      RunMetrics shared = pair.view->Metrics();
      EXPECT_EQ(iso.messages, shared.messages)
          << phase << " " << pair.views[0];
      EXPECT_EQ(iso.kill_messages, shared.kill_messages)
          << phase << " " << pair.views[0];
      EXPECT_TRUE(shared.converged);
      for (const std::string& name : pair.views) {
        auto want = pair.isolated->Scan(name);
        auto got = pair.view->Scan(name);
        ASSERT_TRUE(want.ok() && got.ok()) << phase << " " << name;
        EXPECT_EQ(*got, *want) << phase << " " << name;
      }
    }
  };

  run_phase(/*deletes=*/false);
  expect_equivalent("insert-phase");
  run_phase(/*deletes=*/true);
  expect_equivalent("delete-phase");
}

TEST(SessionTest, SharedEdbFansOutAndReplaysIntoLatePrograms) {
  Session session(Topology(4, 4));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  ASSERT_TRUE(reach.ok()) << reach.status().ToString();
  auto span = session.AddProgram(R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
  )", {});
  ASSERT_TRUE(span.ok()) << span.status().ToString();

  // One insert feeds every view declaring `link`.
  ASSERT_TRUE(session.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(session.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 2}));
  EXPECT_TRUE(*(*span)->Contains("span", {0, 2}));

  // A program added later starts from the shared EDB: the session's live
  // link facts are replayed into it.
  auto hop = session.AddProgram(R"(
    hop(x,y) :- link(x,y).
    hop(x,y) :- link(x,z), hop(z,y).
  )", {});
  ASSERT_TRUE(hop.ok()) << hop.status().ToString();
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(*(*hop)->Contains("hop", {0, 2}));

  // Shared deletion contracts all three views in one fixpoint.
  ASSERT_TRUE(session.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_FALSE(*(*reach)->Contains("reachable", {0, 2}));
  EXPECT_FALSE(*(*span)->Contains("span", {0, 2}));
  EXPECT_FALSE(*(*hop)->Contains("hop", {0, 2}));
}

TEST(SessionTest, EndpointDeleteLeavesNoLinkToReplay) {
  // link(0, 1) deletes every link(0, 1, cost) in the views, so none of them
  // may be replayed into a program added afterwards.
  Session session(Topology(2, 2));
  auto paths = session.AddProgram(kShortestPath, {});
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  ASSERT_TRUE(session.Insert("link", {0, 1, 1.0}).ok());
  ASSERT_TRUE(session.Apply().ok());
  ASSERT_TRUE(session.Delete("link", {0, 1}).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_FALSE(*(*paths)->Contains("path", {0, 1}));

  auto late = session.AddProgram(R"(
    best(x,y,c) :- link(x,y,c).
    best(x,y,c) :- link(x,z,c), best(z,y,c2).
  )", {});
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_EQ((*late)->Lookup("best", {0, 1}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*late)->Scan("best")->empty());

  // A re-inserted link is live again, for late programs too.
  ASSERT_TRUE(session.Insert("link", {0, 1, 2.0}).ok());
  ASSERT_TRUE(session.Apply().ok());
  auto later = session.AddProgram(R"(
    cheap(x,y,c) :- link(x,y,c).
    cheap(x,y,c) :- link(x,z,c), cheap(z,y,c2).
  )", {});
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  ASSERT_TRUE(session.Apply().ok());
  auto row = (*later)->Lookup("cheap", {0, 1});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_DOUBLE_EQ(row->DoubleAt(2), 2.0);
}

TEST(SessionTest, GroundFactsOfOneProgramReachCoResidentViews) {
  Session session(Topology(3, 3));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  ASSERT_TRUE(reach.ok());
  // The second program carries the ground facts; both views see them.
  auto span = session.AddProgram(R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
    link(0,1). link(1,2).
  )", {});
  ASSERT_TRUE(span.ok()) << span.status().ToString();
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 2}));
  EXPECT_TRUE(*(*span)->Contains("span", {0, 2}));
}

TEST(SessionTest, ConflictingRelationSchemasAreRejected) {
  Session session(Topology(4, 4));
  ASSERT_TRUE(session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {}).ok());
  // `link` is already declared with arity 2; a shortest-path program would
  // ingest 3-column links through the same name.
  auto conflict = session.AddProgram(kShortestPath, {});
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_views(), 1u);
}

TEST(SessionTest, LateFactsGrowAllGraphViewsTogether) {
  Session session(Topology(3, 4));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- edge(x,y).
    reachable(x,y) :- edge(x,z), reachable(z,y).
  )", {});
  ASSERT_TRUE(reach.ok());
  EngineOptions path_options;
  auto path = session.AddProgram(kShortestPath, path_options);
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  // A late edge extends the shared node-id space; the co-resident path view
  // accepts links on the new nodes without recompilation.
  ASSERT_TRUE(session.Insert("edge", {0, 9}).ok());
  EXPECT_EQ(session.num_nodes(), 10);
  ASSERT_TRUE(session.Insert("link", {9, 0, 2.0}).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 9}));
  auto cost = (*path)->Lookup("minCost", {9, 0});
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 2.0);

  // Explicit growth is also available.
  EXPECT_EQ(session.AddNode(), 10);
  EXPECT_EQ(session.num_nodes(), 11);
}

TEST(SessionTest, ApplyPatchesEveryViewsLiveCaches) {
  Session session(Topology(4, 4));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  auto span = session.AddProgram(R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
  )", {});
  ASSERT_TRUE(reach.ok() && span.ok());
  ASSERT_TRUE(session.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(session.Apply().ok());

  // Materialize both views' caches, then mutate through ONE view's Apply:
  // the session must arm and patch every co-resident cache, not just the
  // initiator's.
  EXPECT_EQ((*reach)->Scan("reachable")->size(), 1u);
  EXPECT_EQ((*span)->Scan("span")->size(), 1u);
  ASSERT_TRUE(session.Insert("link", {1, 2}).ok());
  ASSERT_TRUE((*reach)->Apply().ok());
  EXPECT_EQ((*reach)->Scan("reachable")->size(), 3u);
  EXPECT_EQ((*span)->Scan("span")->size(), 3u);
  EXPECT_TRUE(*(*span)->Contains("span", {0, 2}));
}

TEST(SessionTest, FailedAddProgramLeavesSessionUsable) {
  Session session(Topology(4, 4));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  ASSERT_TRUE(reach.ok());
  // The second program's first ground fact fans out to the live view
  // before the second fact fails validation; the failed view's
  // registration and queued traffic must be fully retracted.
  auto bad = session.AddProgram(R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
    link(0,1). link(0,1.5).
  )", {});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.num_views(), 1u);
  ASSERT_TRUE(session.Apply().ok());  // Must not dispatch into a dead view.
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 1}));
}

TEST(SessionTest, NodeIdSpaceIsBounded) {
  auto engine = Engine::Compile(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  // Absurd ids are typed errors, not allocations (node state is dense).
  EXPECT_EQ(e.Insert("link", {0, 4e9}).code(), StatusCode::kOutOfRange);
  // Deleting a fact on an unknown node is a no-op that must NOT grow the
  // topology (the fact cannot exist).
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Delete("link", {0, 500}).ok());
  EXPECT_EQ(e.session().num_nodes(), 2);
}

TEST(SessionTest, RegionDeploymentDerivedFromGroundFacts) {
  // No EngineOptions::field: the seed / proximity EDBs come from the ground
  // facts in the program (ROADMAP item).
  constexpr char kSelfContainedRegion[] = R"(
    activeRegion(r,x) :- seed(r,x), triggered(x).
    activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
    regionSizes(r,count<x>) :- activeRegion(r,x).
    seed(0, 0). seed(1, 3).
    near(0, 1). near(1, 0). near(1, 2). near(2, 1). near(2, 3). near(3, 2).
    triggered(0). triggered(1).
  )";
  auto engine = Engine::Compile(kSelfContainedRegion, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Apply().ok());

  // Triggered chain 0-1 grows region 0 to {0, 1, 2}; region 1's seed (3) is
  // untriggered, so it stays empty.
  auto rows = e.Scan("activeRegion");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<Tuple>{Tuple::OfInts({0, 0}),
                                       Tuple::OfInts({0, 1}),
                                       Tuple::OfInts({0, 2})}));
  ASSERT_TRUE(e.Insert("triggered", {3}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("activeRegion", {1, 3}));
  EXPECT_TRUE(*e.Contains("activeRegion", {1, 2}));

  // Deployment facts stay static after compile.
  EXPECT_EQ(e.Insert("seed", {2, 2}).code(), StatusCode::kInvalidArgument);

  // Providing both the option and in-program deployment facts is ambiguous.
  SensorGridOptions grid;
  grid.grid_dim = 3;
  grid.num_seeds = 1;
  EngineOptions both;
  both.field = MakeSensorGrid(grid);
  EXPECT_EQ(Engine::Compile(kSelfContainedRegion, both).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionTest, ShortestPathExplainReturnsWitnessLinks) {
  auto engine = Engine::Compile(
      kShortestPath, GraphOptions(ProvMode::kAbsorption), SharedOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2, 9.0}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto why = e.Explain("path", Tuple::OfInts({0, 2}));
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  ASSERT_FALSE(why->empty());
  // Every witness fact is a live 3-column link.
  for (const Tuple& link : *why) {
    ASSERT_EQ(link.size(), 3u);
    bool live = (link.IntAt(0) == 0 && link.IntAt(1) == 1) ||
                (link.IntAt(0) == 1 && link.IntAt(1) == 2) ||
                (link.IntAt(0) == 0 && link.IntAt(1) == 2);
    EXPECT_TRUE(live) << link.ToString();
  }

  // The 3-column form constrains the cost, like Lookup keys.
  EXPECT_TRUE(e.Explain("path", Tuple({Value(int64_t{0}), Value(int64_t{2}),
                                       Value(2.0)})).ok());
  EXPECT_EQ(e.Explain("path", Tuple({Value(int64_t{0}), Value(int64_t{2}),
                                     Value(99.0)})).status().code(),
            StatusCode::kNotFound);
  // Witnesses exist for the recursive view only.
  EXPECT_EQ(e.Explain("minCost", Tuple::OfInts({0, 2})).status().code(),
            StatusCode::kInvalidArgument);
  // Absent pairs are typed NotFound.
  EXPECT_EQ(e.Explain("path", Tuple::OfInts({2, 0})).status().code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, RegionExplainReturnsWitnessTriggers) {
  // Provenance witnesses for the region adapter, completing the trio with
  // reachable and shortest-path: a membership witness is the set of
  // isTriggered facts whose conjunction keeps the sensor in the region.
  constexpr char kSelfContainedRegion[] = R"(
    activeRegion(r,x) :- seed(r,x), triggered(x).
    activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
    regionSizes(r,count<x>) :- activeRegion(r,x).
    seed(0, 0). seed(1, 3).
    near(0, 1). near(1, 0). near(1, 2). near(2, 1). near(2, 3). near(3, 2).
    triggered(0). triggered(1).
  )";
  auto engine = Engine::Compile(kSelfContainedRegion, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Apply().ok());

  // Sensor 2 joined region 0 through the triggered chain 0 -> 1: the
  // witness must name both triggers.
  auto why = e.Explain("activeRegion", Tuple::OfInts({0, 2}));
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  std::vector<Tuple> expected = {Tuple::OfInts({0}), Tuple::OfInts({1})};
  std::sort(why->begin(), why->end());
  EXPECT_EQ(*why, expected);

  // Absent memberships are typed NotFound; aggregate views have no
  // witnesses; bad region ids are typed OutOfRange.
  EXPECT_EQ(e.Explain("activeRegion", Tuple::OfInts({1, 0})).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(e.Explain("regionSizes", Tuple::OfInts({0, 2})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(e.Explain("activeRegion", Tuple::OfInts({7, 0})).status().code(),
            StatusCode::kOutOfRange);

  // Witnesses exist under absorption provenance only.
  EngineOptions dred;
  dred.runtime.prov = ProvMode::kSet;
  auto dred_engine = Engine::Compile(kSelfContainedRegion, dred);
  ASSERT_TRUE(dred_engine.ok());
  ASSERT_TRUE((*dred_engine)->Apply().ok());
  EXPECT_EQ((*dred_engine)
                ->Explain("activeRegion", Tuple::OfInts({0, 1}))
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(SessionTest, BudgetAbortPoisonsOnlyTheInitiatingView) {
  // Satellite of the sharding PR: one view exhausting its budget must drop
  // (and be charged for) only ITS queued envelopes; the co-resident view
  // keeps its in-flight traffic and converges on its own later Apply,
  // matching an isolated engine bit for bit.
  constexpr char kReach[] = R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )";
  constexpr char kSpan[] = R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
  )";
  Session session(Topology(8, 4));
  EngineOptions tiny;
  tiny.runtime.message_budget = 10;  // Exhausts mid-drain.
  auto reach = session.AddProgram(kReach, tiny);
  auto span = session.AddProgram(kSpan, {});
  ASSERT_TRUE(reach.ok() && span.ok());

  auto isolated = Engine::Compile(kSpan, {});
  ASSERT_TRUE(isolated.ok());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session.Insert("link", {double(i), double((i + 1) % 8)}).ok());
    ASSERT_TRUE(
        (*isolated)->Insert("link", {double(i), double((i + 1) % 8)}).ok());
  }
  // The initiating view's budget governs the drain; it aborts mid-fixpoint.
  Status st = (*reach)->Apply();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE((*reach)->converged());
  RunMetrics aborted = (*reach)->Metrics();
  EXPECT_EQ(aborted.aborted_runs, 1u);
  EXPECT_GT(aborted.dropped_messages, 0u);

  // The co-resident view was NOT poisoned: nothing of its traffic was
  // dropped, it is not marked aborted, and its own Apply finishes the
  // fixpoint with counters and contents identical to an isolated engine.
  RunMetrics survivor = (*span)->Metrics();
  EXPECT_EQ(survivor.aborted_runs, 0u);
  EXPECT_EQ(survivor.dropped_messages, 0u);
  ASSERT_TRUE((*span)->Apply().ok());
  ASSERT_TRUE((*isolated)->Apply().ok());
  EXPECT_TRUE((*span)->converged());
  EXPECT_EQ((*span)->Metrics().messages, (*isolated)->Metrics().messages);
  EXPECT_EQ((*span)->Metrics().kill_messages,
            (*isolated)->Metrics().kill_messages);
  EXPECT_EQ(*(*span)->Scan("span"), *(*isolated)->Scan("span"));
}

// TTL expiry is an ordinary deletion: with every view's scan caches live,
// the Apply after an expiry patches them to exactly what a session that
// never held the expired facts reads.
TEST(SessionTest, ExpiryPatchesEveryViewsLiveCaches) {
  const SensorField field = TestField();
  const int seed = field.seed_sensors[0];
  const int relay = field.neighbors[static_cast<size_t>(seed)][0];
  struct Views {
    View* reach;
    View* path;
    View* region;
  };
  auto add_views = [&](Session& session) {
    auto reach =
        session.AddProgram(kReachable, GraphOptions(ProvMode::kAbsorption));
    auto path =
        session.AddProgram(kShortestPath, GraphOptions(ProvMode::kAbsorption));
    auto region = session.AddProgram(
        kRegion, RegionOptions(field, ProvMode::kAbsorption));
    EXPECT_TRUE(reach.ok() && path.ok() && region.ok());
    return Views{*reach, *path, *region};
  };
  // The facts that outlive the expiry.
  auto insert_permanent = [&](Session& session) {
    ASSERT_TRUE(session.Insert("edge", {0, 1}).ok());
    ASSERT_TRUE(session.Insert("edge", {2, 3}).ok());
    ASSERT_TRUE(session.Insert("link", {0, 1, 1.0}).ok());
    ASSERT_TRUE(session.Insert("link", {0, 2, 5.0}).ok());
    ASSERT_TRUE(session.Insert("triggered", {double(seed)}).ok());
  };
  // Every read the test compares, served from the caches.
  struct Reads {
    std::vector<bool> reachable;
    std::vector<std::string> min_cost;
    std::vector<Tuple> region_sizes;
  };
  auto read = [](const Views& v) {
    Reads r;
    for (int src = 0; src < 4; ++src) {
      for (int dst = 0; dst < 4; ++dst) {
        auto hit = v.reach->Contains("reachable", {double(src), double(dst)});
        EXPECT_TRUE(hit.ok());
        r.reachable.push_back(hit.ok() && *hit);
        auto cost = v.path->Lookup("minCost", {double(src), double(dst)});
        r.min_cost.push_back(cost.ok() ? cost->ToString() : "none");
      }
    }
    auto sizes = v.region->Scan("regionSizes");
    EXPECT_TRUE(sizes.ok());
    if (sizes.ok()) r.region_sizes = *sizes;
    return r;
  };

  Session session(SharedOptions());
  Views live = add_views(session);
  insert_permanent(session);
  ASSERT_TRUE(session.InsertWithTtl("edge", Tuple::OfInts({1, 2}), 5.0).ok());
  ASSERT_TRUE(session.InsertWithTtl("link", Tuple({Value(int64_t{1}),
                                                   Value(int64_t{2}),
                                                   Value(1.0)}),
                                    5.0)
                  .ok());
  ASSERT_TRUE(
      session.InsertWithTtl("triggered", Tuple::OfInts({relay}), 5.0).ok());
  ASSERT_TRUE(session.Apply().ok());
  const Reads before = read(live);  // Materializes every cache.

  ASSERT_TRUE(session.AdvanceTime(6.0).ok());
  ASSERT_TRUE(session.Apply().ok());
  const Reads after = read(live);

  Session fresh(SharedOptions());
  Views control = add_views(fresh);
  insert_permanent(fresh);
  ASSERT_TRUE(fresh.Apply().ok());
  const Reads want = read(control);

  // Every view changed across the expiry, and reads what the fresh
  // session reads.
  EXPECT_NE(before.reachable, after.reachable);
  EXPECT_NE(before.min_cost, after.min_cost);
  EXPECT_NE(before.region_sizes, after.region_sizes);
  EXPECT_EQ(after.reachable, want.reachable);
  EXPECT_EQ(after.min_cost, want.min_cost);
  EXPECT_EQ(after.region_sizes, want.region_sizes);
}

TEST(SessionTest, SoftStateExpiryFansOutToEveryView) {
  Session session(Topology(3, 3));
  auto reach = session.AddProgram(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", {});
  auto span = session.AddProgram(R"(
    span(x,y) :- link(x,y).
    span(x,y) :- span(x,z), link(z,y).
  )", {});
  ASSERT_TRUE(reach.ok() && span.ok());
  ASSERT_TRUE(session.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(session.InsertWithTtl("link", Tuple::OfInts({1, 2}), 5.0).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 2}));
  EXPECT_TRUE(*(*span)->Contains("span", {0, 2}));

  ASSERT_TRUE(session.AdvanceTime(6.0).ok());
  ASSERT_TRUE(session.Apply().ok());
  EXPECT_FALSE(*(*reach)->Contains("reachable", {0, 2}));
  EXPECT_FALSE(*(*span)->Contains("span", {0, 2}));
  EXPECT_TRUE(*(*reach)->Contains("reachable", {0, 1}));
}

}  // namespace
}  // namespace recnet
