// End-to-end tests of the recnet::Engine facade: Datalog source in,
// inserts / deletes / batched Apply, view scan + aggregate views +
// provenance witnesses out, across all three maintenance strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

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

class EngineProvTest : public ::testing::TestWithParam<ProvMode> {};

INSTANTIATE_TEST_SUITE_P(AllProvModes, EngineProvTest,
                         ::testing::Values(ProvMode::kAbsorption,
                                           ProvMode::kRelative,
                                           ProvMode::kSet),
                         [](const ::testing::TestParamInfo<ProvMode>& info) {
                           return ProvModeName(info.param);
                         });

TEST_P(EngineProvTest, ReachableInsertDeleteMaintain) {
  auto engine = Engine::Compile(kReachable, GraphOptions(5, GetParam()),
                                FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  EXPECT_EQ(e.plan().kind, datalog::PlanKind::kReachable);

  // Batched ingestion: one Apply converges the whole chain + shortcut.
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Insert("link", {2, 3}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());

  EXPECT_TRUE(*e.Contains("reachable", {0, 3}));
  EXPECT_FALSE(*e.Contains("reachable", {3, 0}));
  auto rows = e.Scan("reachable");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);  // 0->{1,2,3}, 1->{2,3}, 2->{3}.

  // Deleting the redundant link keeps reachability; deleting the bridge
  // removes it — incremental maintenance through the facade.
  ASSERT_TRUE(e.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 3}));
  ASSERT_TRUE(e.Delete("link", {2, 3}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 3}));
  EXPECT_TRUE(e.converged());
}

TEST_P(EngineProvTest, AggregateViewScanAndLookup) {
  auto engine = Engine::Compile(kReachable, GraphOptions(4, GetParam()),
                                FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto fanout = e.Scan("fanout");
  ASSERT_TRUE(fanout.ok());
  ASSERT_EQ(fanout->size(), 2u);
  EXPECT_EQ((*fanout)[0], Tuple::OfInts({0, 2}));
  EXPECT_EQ((*fanout)[1], Tuple::OfInts({1, 1}));

  auto row = e.Lookup("fanout", {0});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->IntAt(1), 2);
}

TEST_P(EngineProvTest, ShortestPathFromDatalogSource) {
  auto engine = Engine::Compile(kShortestPath, GraphOptions(4, GetParam()),
                                FourPeers());
  if (GetParam() != ProvMode::kAbsorption) {
    // The shortest-path runtime supports absorption only; the facade turns
    // that into a typed error instead of a crash.
    EXPECT_EQ(engine.status().code(), StatusCode::kUnimplemented);
    return;
  }
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  EXPECT_EQ(e.plan().kind, datalog::PlanKind::kShortestPath);

  ASSERT_TRUE(e.Insert("link", {0, 1, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2, 1.0}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2, 5.0}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto cost = e.Lookup("minCost", {0, 2});
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 2.0);

  // The path-view lookup surfaces the runtime's vec / length columns. The
  // length column is the independent fewest-hops minimum: 1 via the direct
  // (expensive) link.
  auto route = e.Lookup("path", {0, 2});
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->size(), 5u);
  EXPECT_DOUBLE_EQ(route->DoubleAt(2), 2.0);
  EXPECT_EQ(route->IntAt(4), 1);

  // A three-column key constrains the cost: membership with the wrong
  // cost fails, and integral keys compare numerically against the
  // double-valued cost column.
  EXPECT_FALSE(*e.Contains("path", {0, 2, 999}));
  EXPECT_TRUE(*e.Contains("path", {0, 2, 2}));
  EXPECT_TRUE(*e.Contains("minCost", {0, 2, 2}));

  // Losing the cheap hop reroutes onto the direct expensive link.
  ASSERT_TRUE(e.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  cost = e.Lookup("minCost", {0, 2});
  ASSERT_TRUE(cost.ok());
  EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 5.0);
}

TEST_P(EngineProvTest, RegionFromDatalogSource) {
  SensorGridOptions grid;
  grid.grid_dim = 4;
  grid.num_seeds = 2;
  grid.seed = 7;
  EngineOptions options;
  options.field = MakeSensorGrid(grid);
  options.runtime.prov = GetParam();

  auto engine = Engine::Compile(kRegion, options, FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  EXPECT_EQ(e.plan().kind, datalog::PlanKind::kRegion);
  EXPECT_EQ(e.plan().trigger_edb, "triggered");
  EXPECT_EQ(e.plan().proximity_edb, "near");

  int seed0 = options.field->seed_sensors[0];
  ASSERT_TRUE(e.Insert("triggered", {double(seed0)}).ok());
  for (int nb : options.field->neighbors[static_cast<size_t>(seed0)]) {
    ASSERT_TRUE(e.Insert("triggered", {double(nb)}).ok());
  }
  ASSERT_TRUE(e.Apply().ok());

  EXPECT_TRUE(*e.Contains("activeRegion", {0, double(seed0)}));
  auto size0 = e.Lookup("regionSizes", {0});
  ASSERT_TRUE(size0.ok());
  EXPECT_GE(size0->IntAt(1), 2);
  auto members = e.Scan("activeRegion");
  ASSERT_TRUE(members.ok());
  EXPECT_GE(members->size(), static_cast<size_t>(size0->IntAt(1)));

  // Untriggering the seed's neighborhood empties region 0.
  ASSERT_TRUE(e.Delete("triggered", {double(seed0)}).ok());
  for (int nb : options.field->neighbors[static_cast<size_t>(seed0)]) {
    ASSERT_TRUE(e.Delete("triggered", {double(nb)}).ok());
  }
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("activeRegion", {0, double(seed0)}));
  EXPECT_FALSE(e.Lookup("regionSizes", {0}).ok());
}

TEST(EngineTest, ExplainReturnsWitnessLinks) {
  auto engine =
      Engine::Compile(kReachable, GraphOptions(4, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Insert("link", {0, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());

  auto why = e.Explain("reachable", Tuple::OfInts({0, 2}));
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  ASSERT_FALSE(why->empty());
  // Every witness fact is a live link, and the witness is one of the two
  // supports: {0->2} or {0->1, 1->2}.
  for (const Tuple& link : *why) {
    bool live = link == Tuple::OfInts({0, 1}) ||
                link == Tuple::OfInts({1, 2}) ||
                link == Tuple::OfInts({0, 2});
    EXPECT_TRUE(live) << link.ToString();
  }

  // Witnesses are only defined for the recursive view.
  EXPECT_EQ(e.Explain("fanout", Tuple::OfInts({0, 2})).status().code(),
            StatusCode::kInvalidArgument);
  // Non-absorption modes refuse.
  auto dred =
      Engine::Compile(kReachable, GraphOptions(4, ProvMode::kSet), FourPeers());
  ASSERT_TRUE(dred.ok());
  ASSERT_TRUE((*dred)->Insert("link", {0, 1}).ok());
  ASSERT_TRUE((*dred)->Apply().ok());
  EXPECT_EQ((*dred)->Explain("reachable", Tuple::OfInts({0, 1}))
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(EngineTest, QuickstartFlow) {
  auto engine =
      Engine::Compile(kReachable, GraphOptions(4, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Insert("link", {2, 3}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 3}));
  EXPECT_FALSE(*e.Contains("reachable", {3, 0}));

  auto why = e.Explain("reachable", Tuple::OfInts({0, 3}));
  ASSERT_TRUE(why.ok()) << why.status().ToString();
  std::sort(why->begin(), why->end());
  std::vector<Tuple> chain = {Tuple::OfInts({0, 1}), Tuple::OfInts({1, 2}),
                              Tuple::OfInts({2, 3})};
  EXPECT_EQ(*why, chain);  // The three chain links.

  ASSERT_TRUE(e.Delete("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 3}));
}

TEST(EngineTest, BudgetExceededSurfacesAsError) {
  EngineOptions options = GraphOptions(4, ProvMode::kAbsorption);
  options.runtime.message_budget = 2;  // Absurdly small.
  auto engine = Engine::Compile(kReachable, options, FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Insert("link", {2, 0}).ok());
  Status status = e.Apply();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(EngineTest, ShortestPathDeleteRemovesTheNamedParallelLink) {
  // Two parallel links 0 -> 1 that differ only in cost. A three-column
  // delete removes exactly the named one, whichever was inserted first; a
  // two-column delete removes every link between the endpoints.
  for (bool expensive_first : {true, false}) {
    SCOPED_TRACE(expensive_first ? "cost 7 inserted first"
                                 : "cost 5 inserted first");
    auto engine = Engine::Compile(
        kShortestPath, GraphOptions(2, ProvMode::kAbsorption), FourPeers());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Engine& e = **engine;
    for (double cost : expensive_first ? std::vector<double>{7, 5}
                                       : std::vector<double>{5, 7}) {
      ASSERT_TRUE(e.Insert("link", {0, 1, cost}).ok());
    }
    ASSERT_TRUE(e.Apply().ok());
    ASSERT_DOUBLE_EQ(e.Lookup("minCost", {0, 1})->DoubleAt(2), 5.0);

    ASSERT_TRUE(e.Delete("link", {0, 1, 7}).ok());
    ASSERT_TRUE(e.Apply().ok());
    auto cost = e.Lookup("minCost", {0, 1});
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_DOUBLE_EQ(cost->DoubleAt(2), 5.0);

    ASSERT_TRUE(e.Insert("link", {0, 1, 7}).ok());
    ASSERT_TRUE(e.Delete("link", {0, 1}).ok());
    ASSERT_TRUE(e.Apply().ok());
    EXPECT_EQ(e.Lookup("minCost", {0, 1}).status().code(),
              StatusCode::kNotFound);
  }
}

TEST(EngineTest, LoadsGroundFactsFromProgram) {
  auto engine = Engine::Compile(R"(
    span(x,y) :- wire(x,y).
    span(x,y) :- span(x,z), wire(z,y).
    wire(0,1). wire(1,2).
  )", GraphOptions(3, ProvMode::kAbsorption), FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->Apply().ok());
  EXPECT_TRUE(*(*engine)->Contains("span", {0, 2}));
}

TEST(EngineTest, RightLinearOrientationExecutes) {
  auto engine = Engine::Compile(R"(
    hop(a,b) :- edge(a,b).
    hop(a,b) :- hop(a,m), edge(m,b).
  )", GraphOptions(4, ProvMode::kAbsorption), FourPeers());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("edge", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("edge", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("hop", {0, 2}));
}

TEST(EngineTest, SoftStateTtlExpiryIsDeletion) {
  auto engine =
      Engine::Compile(kReachable, GraphOptions(3, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.InsertWithTtl("link", Tuple::OfInts({0, 1}), 20.0).ok());
  ASSERT_TRUE(e.InsertWithTtl("link", Tuple::OfInts({1, 2}), 5.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 2}));

  // Renewal at t=3 extends 1->2's deadline to t=8 without re-propagating,
  // so it survives t=6.
  ASSERT_TRUE(e.AdvanceTime(3.0).ok());
  ASSERT_TRUE(e.InsertWithTtl("link", Tuple::OfInts({1, 2}), 5.0).ok());
  ASSERT_TRUE(e.AdvanceTime(6.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 2}));

  // Past the renewed deadline the link expires and the view contracts;
  // 0->1 (ttl 20) is still alive.
  ASSERT_TRUE(e.AdvanceTime(9.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 2}));
  EXPECT_TRUE(*e.Contains("reachable", {0, 1}));
}

TEST(EngineTest, PlainInsertCancelsSoftStateDeadline) {
  auto engine =
      Engine::Compile(kReachable, GraphOptions(3, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.InsertWithTtl("link", Tuple::OfInts({0, 1}), 5.0).ok());
  // Upgrading to a permanent fact drops the pending expiry.
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.AdvanceTime(10.0).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_TRUE(*e.Contains("reachable", {0, 1}));
}

TEST(EngineTest, IngestionErrorsAreTyped) {
  auto engine =
      Engine::Compile(kReachable, GraphOptions(3, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  EXPECT_EQ(e.Insert("nolink", {0, 1}).code(), StatusCode::kNotFound);
  EXPECT_EQ(e.Insert("link", {0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.Insert("link", {0, -1}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(e.Insert("link", {0, 1.5}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.Scan("nosuchview").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(e.Lookup("reachable", {0, 1}).status().code(),
            StatusCode::kNotFound);  // Nothing applied yet.
}

TEST(EngineTest, LateFactsGrowTheNodeIdSpace) {
  // The node-id space is dynamic: a fact naming an unseen node extends the
  // topology instead of erroring (the pre-session facade rejected it with
  // OutOfRange).
  auto engine =
      Engine::Compile(kReachable, GraphOptions(3, ProvMode::kAbsorption),
                      FourPeers());
  ASSERT_TRUE(engine.ok());
  Engine& e = **engine;
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 99}).ok());  // Grows 3 -> 100 nodes.
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_EQ(e.session().num_nodes(), 100);
  EXPECT_TRUE(*e.Contains("reachable", {0, 99}));
  auto rows = e.Scan("reachable");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // 0->1, 0->99, 1->99.

  // Deleting the grown link contracts the view again.
  ASSERT_TRUE(e.Delete("link", {1, 99}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_FALSE(*e.Contains("reachable", {0, 99}));
}

TEST(EngineTest, CompileWithoutNumNodesStartsEmptyAndGrows) {
  // num_nodes is no longer required up front: the topology starts empty and
  // grows as facts arrive (ROADMAP's dynamic node-id space).
  EngineOptions no_nodes;
  auto engine = Engine::Compile(kReachable, no_nodes);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Engine& e = **engine;
  EXPECT_EQ(e.session().num_nodes(), 0);
  ASSERT_TRUE(e.Insert("link", {0, 1}).ok());
  ASSERT_TRUE(e.Insert("link", {1, 2}).ok());
  ASSERT_TRUE(e.Apply().ok());
  EXPECT_EQ(e.session().num_nodes(), 3);
  EXPECT_TRUE(*e.Contains("reachable", {0, 2}));

  EngineOptions negative;
  negative.num_nodes = -4;
  EXPECT_EQ(Engine::Compile(kReachable, negative).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, CompileErrorsAreTyped) {
  // A region program with neither EngineOptions::field nor in-program
  // deployment facts has no sensor deployment to run on.
  EngineOptions no_field;
  EXPECT_EQ(Engine::Compile(kRegion, no_field).status().code(),
            StatusCode::kInvalidArgument);

  // Region triggers are dynamic but the deployment EDBs are not.
  SensorGridOptions grid;
  grid.grid_dim = 3;
  grid.num_seeds = 1;
  EngineOptions options;
  options.field = MakeSensorGrid(grid);
  auto region = Engine::Compile(kRegion, options);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ((*region)->Insert("seed", {0, 1}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace recnet
