#include "engine/reachable_runtime.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "queries/reference.h"

namespace recnet {
namespace {

RuntimeOptions Opts(ProvMode prov, ShipMode ship = ShipMode::kLazy) {
  RuntimeOptions opts;
  opts.prov = prov;
  opts.ship = ship;
  opts.message_budget = 10'000'000;
  return opts;
}

// A private substrate of `n` nodes, one logical node per physical peer.
std::shared_ptr<Substrate> Net(int n) {
  SubstrateOptions deployment;
  deployment.num_physical = 1000;
  return std::make_shared<Substrate>(n, deployment);
}

// Compares the distributed view against the centralized oracle.
void ExpectMatchesReference(const ReachableRuntime& rt,
                            const std::vector<LinkTuple>& links) {
  auto expected = ReferenceReachability(rt.num_logical(), links);
  for (int src = 0; src < rt.num_logical(); ++src) {
    EXPECT_EQ(rt.ReachableFrom(src), expected[static_cast<size_t>(src)])
        << "source " << src;
  }
}

// --- The paper's running example (Figures 2, 3, 5) ---------------------------

class PaperExampleTest : public ::testing::TestWithParam<ProvMode> {};

TEST_P(PaperExampleTest, TriangleNetworkComputesFullClosure) {
  // Nodes A=0, B=1, C=2; links A->B, B->C, C->A, C->B (Figure 3).
  ReachableRuntime rt(Net(3), 3, Opts(GetParam()));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  rt.InsertLink(2, 0);
  rt.InsertLink(2, 1);
  ASSERT_TRUE(rt.Run());
  // Fully connected: every node reaches every node (paper §3.2).
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(rt.ReachableFrom(a), (std::set<int>{0, 1, 2}));
  }
  EXPECT_EQ(rt.ViewSize(), 9u);
}

TEST_P(PaperExampleTest, DeletingRedundantLinkKeepsViewIntact) {
  // Deleting link(C, B) leaves A, B, C still fully connected (paper §3.2:
  // "it is clear that nodes A, B, and C are still connected").
  ReachableRuntime rt(Net(3), 3, Opts(GetParam()));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  rt.InsertLink(2, 0);
  rt.InsertLink(2, 1);
  ASSERT_TRUE(rt.Run());
  rt.DeleteLink(2, 1);
  ASSERT_TRUE(rt.Run());
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(rt.ReachableFrom(a), (std::set<int>{0, 1, 2}));
  }
}

TEST_P(PaperExampleTest, DeletingBridgeLinkShrinksView) {
  // A -> B -> C chain: deleting A->B removes everything from A.
  ReachableRuntime rt(Net(3), 3, Opts(GetParam()));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ReachableFrom(0), (std::set<int>{1, 2}));
  rt.DeleteLink(0, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(rt.ReachableFrom(0).empty());
  EXPECT_EQ(rt.ReachableFrom(1), (std::set<int>{2}));
}

INSTANTIATE_TEST_SUITE_P(AllModes, PaperExampleTest,
                         ::testing::Values(ProvMode::kSet,
                                           ProvMode::kAbsorption,
                                           ProvMode::kRelative));

// --- Message accounting ------------------------------------------------------

TEST(MessageAccountingTest, SetSemanticsShipsSixteenTuples) {
  // Paper §3.2: "In total, 16 tuples (4 initial link tuples, and 12
  // reachable tuples) are shipped during the recursive computation."
  ReachableRuntime rt(Net(3), 3, Opts(ProvMode::kSet));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  rt.InsertLink(2, 0);
  rt.InsertLink(2, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.Metrics().messages, 16u);
}

TEST(MessageAccountingTest, AbsorptionShipsExtraDerivations) {
  // Absorption provenance must propagate additional non-absorbed
  // derivations (the tuples marked "*" in Figure 2): strictly more ships
  // than set semantics.
  ReachableRuntime rt(Net(3), 3, Opts(ProvMode::kAbsorption,
                      ShipMode::kDirect));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  rt.InsertLink(2, 0);
  rt.InsertLink(2, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_GT(rt.Metrics().messages, 16u);
}

TEST(MessageAccountingTest, LazyShipsNoMoreThanDirect) {
  auto run = [](ShipMode mode) {
    ReachableRuntime rt(Net(3), 3, Opts(ProvMode::kAbsorption, mode));
    rt.InsertLink(0, 1);
    rt.InsertLink(1, 2);
    rt.InsertLink(2, 0);
    rt.InsertLink(2, 1);
    RECNET_CHECK(rt.Run());
    return rt.Metrics().messages;
  };
  EXPECT_LE(run(ShipMode::kLazy), run(ShipMode::kDirect));
}

TEST(MessageAccountingTest, RedundantLinkDeletionIsCheapWithProvenance) {
  // With absorption provenance, deleting link(C, B) requires only kill
  // propagation — far less than DRed's full recomputation.
  ReachableRuntime abs(Net(3), 3, Opts(ProvMode::kAbsorption));
  ReachableRuntime dred(Net(3), 3, Opts(ProvMode::kSet));
  for (ReachableRuntime* rt : {&abs, &dred}) {
    rt->InsertLink(0, 1);
    rt->InsertLink(1, 2);
    rt->InsertLink(2, 0);
    rt->InsertLink(2, 1);
    ASSERT_TRUE(rt->Run());
    rt->ResetMetrics();
    rt->DeleteLink(2, 1);
    ASSERT_TRUE(rt->Run());
  }
  EXPECT_LT(abs.Metrics().messages, dred.Metrics().messages);
}

// --- Randomized equivalence with the oracle ----------------------------------

struct RandomCase {
  ProvMode prov;
  ShipMode ship;
  uint64_t seed;
};

class RandomGraphTest
    : public ::testing::TestWithParam<std::tuple<ProvMode, ShipMode, int>> {};

TEST_P(RandomGraphTest, InsertionsThenDeletionsMatchReference) {
  auto [prov, ship, seed] = GetParam();
  const int n = 8;
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  ReachableRuntime rt(Net(n), n, Opts(prov, ship));
  std::vector<LinkTuple> live;

  // Random insertions.
  for (int step = 0; step < 20; ++step) {
    int src = static_cast<int>(rng.NextBounded(n));
    int dst = static_cast<int>(rng.NextBounded(n));
    if (src == dst || rt.HasLink(src, dst)) continue;
    rt.InsertLink(src, dst);
    live.push_back(LinkTuple{src, dst, 1.0});
    ASSERT_TRUE(rt.Run());
  }
  ExpectMatchesReference(rt, live);

  // Random deletions interleaved with occasional re-insertions.
  for (int step = 0; step < 15 && !live.empty(); ++step) {
    if (rng.NextBool(0.3)) {
      int src = static_cast<int>(rng.NextBounded(n));
      int dst = static_cast<int>(rng.NextBounded(n));
      if (src == dst || rt.HasLink(src, dst)) continue;
      rt.InsertLink(src, dst);
      live.push_back(LinkTuple{src, dst, 1.0});
    } else {
      size_t pick = rng.NextBounded(live.size());
      rt.DeleteLink(live[pick].src, live[pick].dst);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    ASSERT_TRUE(rt.Run());
    ExpectMatchesReference(rt, live);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphTest,
    ::testing::Combine(::testing::Values(ProvMode::kSet, ProvMode::kAbsorption,
                                         ProvMode::kRelative),
                       ::testing::Values(ShipMode::kDirect, ShipMode::kEager,
                                         ShipMode::kLazy),
                       ::testing::Values(1, 2, 3)));

// --- Soft-state renewal -------------------------------------------------------

TEST(SoftStateTest, ReinsertionAfterExpiryRestoresView) {
  ReachableRuntime rt(Net(3), 3, Opts(ProvMode::kAbsorption));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  ASSERT_TRUE(rt.Run());
  rt.DeleteLink(0, 1);  // Expiry.
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(rt.ReachableFrom(0).empty());
  rt.InsertLink(0, 1);  // Renewal allocates a fresh base variable.
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ReachableFrom(0), (std::set<int>{1, 2}));
}

TEST(SoftStateTest, DoubleInsertIsIdempotent) {
  ReachableRuntime rt(Net(2), 2, Opts(ProvMode::kAbsorption));
  rt.InsertLink(0, 1);
  rt.InsertLink(0, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ViewSize(), 1u);
  rt.DeleteLink(0, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ViewSize(), 0u);
}

TEST(SoftStateTest, DeleteOfUnknownLinkIsNoOp) {
  ReachableRuntime rt(Net(2), 2, Opts(ProvMode::kAbsorption));
  rt.DeleteLink(0, 1);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ViewSize(), 0u);
}

// --- Provenance diagnostics ----------------------------------------------------

TEST(ProvenanceDiagnosticsTest, ViewProvenanceReflectsRedundancy) {
  ReachableRuntime rt(Net(3), 3, Opts(ProvMode::kAbsorption));
  rt.InsertLink(0, 1);
  rt.InsertLink(1, 2);
  rt.InsertLink(0, 2);
  ASSERT_TRUE(rt.Run());
  const Prov* pv = rt.ViewProvenance(0, 2);
  ASSERT_NE(pv, nullptr);
  // reachable(0,2) holds via 0->2 directly and via 0->1->2: two witnesses.
  std::vector<bdd::Var> support;
  pv->SupportVars(&support);
  EXPECT_EQ(support.size(), 3u);
}

}  // namespace
}  // namespace recnet
