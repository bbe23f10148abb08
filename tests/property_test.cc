// Cross-module property tests: randomized update sequences, applied in
// batches (so insertions, deletions and kill propagation interleave in
// flight), must leave every maintenance strategy's view equal to a
// from-scratch recomputation — the paper's core correctness claim ("while
// still maintaining correct answers").

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "engine/reachable_runtime.h"
#include "queries/reference.h"

namespace recnet {
namespace {

struct StrategyCase {
  ProvMode prov;
  ShipMode ship;
};

class BatchedUpdatesTest
    : public ::testing::TestWithParam<std::tuple<ProvMode, ShipMode, int>> {};

TEST_P(BatchedUpdatesTest, ViewEqualsReferenceAfterEveryBatch) {
  auto [prov, ship, seed] = GetParam();
  const int n = 7;
  RuntimeOptions opts;
  opts.prov = prov;
  opts.ship = ship;
  opts.batch_window = 2;
  opts.message_budget = 10'000'000;
  // Co-locate logical nodes on 3 physical peers: mixed local/remote.
  SubstrateOptions deployment;
  deployment.num_physical = 3;
  ReachableRuntime rt(std::make_shared<Substrate>(n, deployment), n, opts);
  Rng rng(static_cast<uint64_t>(seed) * 104729 + 7);
  std::map<std::pair<int, int>, bool> live;

  for (int batch = 0; batch < 12; ++batch) {
    // Inject 1-4 operations without draining in between.
    int ops = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < ops; ++i) {
      int src = static_cast<int>(rng.NextBounded(n));
      int dst = static_cast<int>(rng.NextBounded(n));
      if (src == dst) continue;
      auto key = std::make_pair(src, dst);
      if (live[key]) {
        // In set mode (DRed) each deletion requires its own over-delete +
        // re-derive cycle; batching deletions with insertions is only
        // defined for the provenance models.
        if (prov == ProvMode::kSet) {
          ASSERT_TRUE(rt.Run());
        }
        rt.DeleteLink(src, dst);
        live[key] = false;
        if (prov == ProvMode::kSet) {
          ASSERT_TRUE(rt.Run());
        }
      } else {
        rt.InsertLink(src, dst);
        live[key] = true;
      }
    }
    ASSERT_TRUE(rt.Run());
    std::vector<LinkTuple> links;
    for (const auto& [key, alive] : live) {
      if (alive) links.push_back(LinkTuple{key.first, key.second, 1.0});
    }
    auto expected = ReferenceReachability(n, links);
    for (int src = 0; src < n; ++src) {
      ASSERT_EQ(rt.ReachableFrom(src), expected[static_cast<size_t>(src)])
          << ProvModeName(prov) << "/" << ShipModeName(ship) << " seed "
          << seed << " batch " << batch << " src " << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedUpdatesTest,
    ::testing::Combine(::testing::Values(ProvMode::kSet, ProvMode::kAbsorption,
                                         ProvMode::kRelative),
                       ::testing::Values(ShipMode::kDirect, ShipMode::kEager,
                                         ShipMode::kLazy),
                       ::testing::Values(1, 2, 3, 4)));

// Strategies must agree with each other, not just with the oracle: the view
// contents are invariant across maintenance schemes.
TEST(StrategyAgreementTest, AllStrategiesProduceIdenticalViews) {
  const int n = 6;
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3},
                                            {3, 4}, {4, 5}, {5, 3}, {1, 4}};
  std::vector<std::unique_ptr<ReachableRuntime>> rts;
  for (StrategyCase c :
       {StrategyCase{ProvMode::kSet, ShipMode::kDirect},
        StrategyCase{ProvMode::kAbsorption, ShipMode::kEager},
        StrategyCase{ProvMode::kAbsorption, ShipMode::kLazy},
        StrategyCase{ProvMode::kRelative, ShipMode::kLazy}}) {
    RuntimeOptions opts;
    opts.prov = c.prov;
    opts.ship = c.ship;
    rts.push_back(std::make_unique<ReachableRuntime>(
        std::make_shared<Substrate>(n, SubstrateOptions{}), n, opts));
  }
  for (auto& rt : rts) {
    for (auto [s, d] : edges) rt->InsertLink(s, d);
    ASSERT_TRUE(rt->Run());
  }
  for (int src = 0; src < n; ++src) {
    auto baseline = rts[0]->ReachableFrom(src);
    for (size_t i = 1; i < rts.size(); ++i) {
      EXPECT_EQ(rts[i]->ReachableFrom(src), baseline) << "strategy " << i;
    }
  }
  // Delete a redundant edge everywhere and re-compare.
  for (auto& rt : rts) {
    rt->DeleteLink(2, 0);
    ASSERT_TRUE(rt->Run());
  }
  for (int src = 0; src < n; ++src) {
    auto baseline = rts[0]->ReachableFrom(src);
    for (size_t i = 1; i < rts.size(); ++i) {
      EXPECT_EQ(rts[i]->ReachableFrom(src), baseline) << "strategy " << i;
    }
  }
}

// Absorption provenance state must stay bounded by the view: every stored
// annotation depends only on live base variables.
TEST(ProvenanceHygieneTest, DeadVariablesNeverLingerInTheView) {
  const int n = 5;
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  ReachableRuntime rt(std::make_shared<Substrate>(n, SubstrateOptions{}), n,
                      opts);
  Rng rng(31337);
  std::map<std::pair<int, int>, bool> live;
  std::vector<std::pair<int, int>> dead_links;
  for (int step = 0; step < 30; ++step) {
    int src = static_cast<int>(rng.NextBounded(n));
    int dst = static_cast<int>(rng.NextBounded(n));
    if (src == dst) continue;
    auto key = std::make_pair(src, dst);
    if (live[key]) {
      rt.DeleteLink(src, dst);
      live[key] = false;
    } else {
      rt.InsertLink(src, dst);
      live[key] = true;
    }
    ASSERT_TRUE(rt.Run());
  }
  // Every view tuple must be derivable from the live links alone: setting
  // all live variables true must satisfy its annotation.
  for (int src = 0; src < n; ++src) {
    for (int dst : rt.ReachableFrom(src)) {
      const Prov* pv = rt.ViewProvenance(src, dst);
      ASSERT_NE(pv, nullptr);
      EXPECT_FALSE(pv->IsFalse());
      std::vector<bdd::Var> support;
      pv->SupportVars(&support);
      for (bdd::Var v : support) {
        EXPECT_TRUE(rt.BaseFactOfVar(v).has_value())
            << "annotation of (" << src << "," << dst
            << ") depends on dead variable p" << v;
      }
    }
  }
}

}  // namespace
}  // namespace recnet
