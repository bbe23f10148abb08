#include "engine/shortest_path_runtime.h"

#include <gtest/gtest.h>

#include "queries/reference.h"
#include "topology/transit_stub.h"
#include "topology/workload.h"

namespace recnet {
namespace {

RuntimeOptions Opts() {
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  opts.ship = ShipMode::kLazy;
  opts.message_budget = 5'000'000;
  return opts;
}

// A private substrate of `n` nodes, one logical node per physical peer.
std::shared_ptr<Substrate> Net(int n) {
  SubstrateOptions deployment;
  deployment.num_physical = 1000;
  return std::make_shared<Substrate>(n, deployment);
}

void ExpectAggregatesMatchReference(const ShortestPathRuntime& rt, int n,
                                    const std::vector<LinkTuple>& links,
                                    bool check_cost, bool check_hops) {
  ReferenceShortestPaths ref = ReferenceShortest(n, links);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (check_cost) {
        auto expect = ref.min_cost[static_cast<size_t>(s)][static_cast<size_t>(d)];
        auto got = rt.MinCost(s, d);
        ASSERT_EQ(got.has_value(), expect.has_value()) << s << "->" << d;
        if (expect.has_value()) {
          EXPECT_DOUBLE_EQ(*got, *expect) << s << "->" << d;
        }
      }
      if (check_hops) {
        auto expect = ref.min_hops[static_cast<size_t>(s)][static_cast<size_t>(d)];
        auto got = rt.MinHops(s, d);
        ASSERT_EQ(got.has_value(), expect.has_value()) << s << "->" << d;
        if (expect.has_value()) {
          EXPECT_EQ(*got, *expect) << s << "->" << d;
        }
      }
    }
  }
}

TEST(ShortestPathTest, DiamondPrefersCheaperRoute) {
  //   0 -> 1 (1.0) -> 3 (1.0)   total 2.0
  //   0 -> 2 (5.0) -> 3 (5.0)   total 10.0
  ShortestPathRuntime rt(Net(4), 4, Opts(), AggSelPolicy::kMulti);
  rt.InsertLink(0, 1, 1.0);
  rt.InsertLink(1, 3, 1.0);
  rt.InsertLink(0, 2, 5.0);
  rt.InsertLink(2, 3, 5.0);
  ASSERT_TRUE(rt.Run());
  EXPECT_DOUBLE_EQ(*rt.MinCost(0, 3), 2.0);
  EXPECT_EQ(*rt.MinHops(0, 3), 2);
  EXPECT_EQ(*rt.CheapestPathVec(0, 3), "0.1.3");
}

TEST(ShortestPathTest, CheapestAndFewestHopsCanDiffer) {
  // Direct hop is expensive; the detour is cheap but long.
  ShortestPathRuntime rt(Net(4), 4, Opts(), AggSelPolicy::kMulti);
  rt.InsertLink(0, 3, 10.0);
  rt.InsertLink(0, 1, 1.0);
  rt.InsertLink(1, 2, 1.0);
  rt.InsertLink(2, 3, 1.0);
  ASSERT_TRUE(rt.Run());
  auto sc = rt.ShortestCheapestPath(0, 3);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->cheapest_vec, "0.1.2.3");
  EXPECT_DOUBLE_EQ(sc->cost, 3.0);
  EXPECT_EQ(sc->fewest_vec, "0.3");
  EXPECT_EQ(sc->length, 1);
}

TEST(ShortestPathTest, UnreachablePairsHaveNoEntry) {
  ShortestPathRuntime rt(Net(3), 3, Opts(), AggSelPolicy::kMulti);
  rt.InsertLink(0, 1, 1.0);
  ASSERT_TRUE(rt.Run());
  EXPECT_FALSE(rt.MinCost(0, 2).has_value());
  EXPECT_FALSE(rt.MinCost(1, 0).has_value());
  EXPECT_FALSE(rt.ShortestCheapestPath(0, 2).has_value());
}

class SpPolicyTest : public ::testing::TestWithParam<AggSelPolicy> {};

TEST_P(SpPolicyTest, RandomTopologyMatchesDijkstra) {
  TransitStubOptions topt;
  topt.transit_nodes = 2;
  topt.stubs_per_transit = 1;
  topt.stub_size = 4;
  topt.seed = 3;
  Topology topo = MakeTransitStub(topt);  // 10 nodes.
  std::vector<LinkTuple> links = DirectedLinks(topo);
  ShortestPathRuntime rt(Net(topo.num_nodes), topo.num_nodes, Opts(),
                         GetParam());
  for (const LinkTuple& l : links) rt.InsertLink(l.src, l.dst, l.cost_ms);
  ASSERT_TRUE(rt.Run());
  bool cost = GetParam() != AggSelPolicy::kHops;
  bool hops = GetParam() != AggSelPolicy::kCost;
  ExpectAggregatesMatchReference(rt, topo.num_nodes, links, cost, hops);
}

INSTANTIATE_TEST_SUITE_P(Policies, SpPolicyTest,
                         ::testing::Values(AggSelPolicy::kMulti,
                                           AggSelPolicy::kCost,
                                           AggSelPolicy::kHops));

TEST(ShortestPathDeletionTest, DeletionReroutesToAlternative) {
  ShortestPathRuntime rt(Net(4), 4, Opts(), AggSelPolicy::kMulti);
  rt.InsertLink(0, 1, 1.0);
  rt.InsertLink(1, 3, 1.0);
  rt.InsertLink(0, 2, 5.0);
  rt.InsertLink(2, 3, 5.0);
  ASSERT_TRUE(rt.Run());
  ASSERT_DOUBLE_EQ(*rt.MinCost(0, 3), 2.0);
  rt.DeleteLink(1, 3);
  ASSERT_TRUE(rt.Run());
  ASSERT_TRUE(rt.MinCost(0, 3).has_value());
  EXPECT_DOUBLE_EQ(*rt.MinCost(0, 3), 10.0);
  EXPECT_EQ(*rt.CheapestPathVec(0, 3), "0.2.3");
}

TEST(ShortestPathDeletionTest, DeletionCanDisconnect) {
  ShortestPathRuntime rt(Net(3), 3, Opts(), AggSelPolicy::kMulti);
  rt.InsertLink(0, 1, 1.0);
  rt.InsertLink(1, 2, 1.0);
  ASSERT_TRUE(rt.Run());
  rt.DeleteLink(0, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_FALSE(rt.MinCost(0, 2).has_value());
  EXPECT_FALSE(rt.MinCost(0, 1).has_value());
  EXPECT_TRUE(rt.MinCost(1, 2).has_value());
}

TEST(ShortestPathDeletionTest, RandomDeletionsMatchDijkstra) {
  TransitStubOptions topt;
  topt.transit_nodes = 2;
  topt.stubs_per_transit = 1;
  topt.stub_size = 3;
  topt.seed = 5;
  Topology topo = MakeTransitStub(topt);  // 8 nodes.
  std::vector<LinkTuple> links = DirectedLinks(topo);
  ShortestPathRuntime rt(Net(topo.num_nodes), topo.num_nodes, Opts(),
                         AggSelPolicy::kMulti);
  for (const LinkTuple& l : links) rt.InsertLink(l.src, l.dst, l.cost_ms);
  ASSERT_TRUE(rt.Run());
  // Delete a third of the links one at a time, checking after each.
  std::vector<LinkTuple> live = links;
  for (int i = 0; i < static_cast<int>(links.size()) / 3; ++i) {
    LinkTuple victim = live.front();
    live.erase(live.begin());
    rt.DeleteLink(victim.src, victim.dst);
    ASSERT_TRUE(rt.Run());
    ExpectAggregatesMatchReference(rt, topo.num_nodes, live, true, true);
  }
}

TEST(AggSelEffectivenessTest, NoAggSelShipsStrictlyMore) {
  // Aggregate selection prunes tuples that cannot affect the aggregates
  // (paper §6 / Figure 14): without it the same workload costs strictly
  // more messages (and may not terminate on cyclic graphs — bounded here
  // by the budget).
  TransitStubOptions topt;
  topt.transit_nodes = 2;
  topt.stubs_per_transit = 1;
  topt.stub_size = 3;
  topt.seed = 7;
  Topology topo = MakeTransitStub(topt);
  auto run = [&](AggSelPolicy policy) {
    RuntimeOptions opts = Opts();
    opts.message_budget = 200'000;
    ShortestPathRuntime rt(Net(topo.num_nodes), topo.num_nodes, opts, policy);
    for (const LinkTuple& l : DirectedLinks(topo)) {
      rt.InsertLink(l.src, l.dst, l.cost_ms);
    }
    rt.Run();  // May hit the budget for kNone.
    return rt.Metrics().messages;
  };
  EXPECT_LT(run(AggSelPolicy::kMulti), run(AggSelPolicy::kNone));
}

TEST(AggSelPolicyNameTest, Names) {
  EXPECT_STREQ(AggSelPolicyName(AggSelPolicy::kMulti), "multi");
  EXPECT_STREQ(AggSelPolicyName(AggSelPolicy::kCost), "cost");
  EXPECT_STREQ(AggSelPolicyName(AggSelPolicy::kHops), "hops");
  EXPECT_STREQ(AggSelPolicyName(AggSelPolicy::kNone), "none");
}

}  // namespace
}  // namespace recnet
