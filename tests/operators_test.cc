#include <gtest/gtest.h>

#include "operators/agg_sel.h"
#include "operators/fixpoint.h"
#include "operators/group_by.h"
#include "operators/hash_join.h"
#include "operators/min_ship.h"

namespace recnet {
namespace {

// --- Fixpoint (Algorithm 1) --------------------------------------------------

class FixpointTest : public ::testing::Test {
 protected:
  bdd::Manager mgr_;
  Prov Var(bdd::Var v) {
    return Prov::BaseVar(ProvMode::kAbsorption, &mgr_, v);
  }
};

TEST_F(FixpointTest, FirstDerivationPropagatesAsIs) {
  Fixpoint fix(ProvMode::kAbsorption);
  Tuple t = Tuple::OfInts({1, 2});
  auto delta = fix.ProcessInsert(t, Var(1));
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(*delta == Var(1));
  EXPECT_TRUE(fix.Contains(t));
}

TEST_F(FixpointTest, AbsorbedDerivationDoesNotPropagate) {
  Fixpoint fix(ProvMode::kAbsorption);
  Tuple t = Tuple::OfInts({1, 2});
  fix.ProcessInsert(t, Var(1));
  // p1 ∧ p2 is absorbed by p1.
  EXPECT_FALSE(fix.ProcessInsert(t, Var(1).And(Var(2))).has_value());
  // A genuinely new derivation propagates its delta.
  EXPECT_TRUE(fix.ProcessInsert(t, Var(3)).has_value());
}

TEST_F(FixpointTest, FalseInsertIsIgnored) {
  Fixpoint fix(ProvMode::kAbsorption);
  EXPECT_FALSE(fix.ProcessInsert(Tuple::OfInts({1, 2}),
                                 Prov::False(ProvMode::kAbsorption, &mgr_))
                   .has_value());
  EXPECT_EQ(fix.size(), 0u);
}

TEST_F(FixpointTest, KillRemovesUnderivableTuples) {
  Fixpoint fix(ProvMode::kAbsorption);
  Tuple t1 = Tuple::OfInts({1, 2});
  Tuple t2 = Tuple::OfInts({1, 3});
  fix.ProcessInsert(t1, Var(1));
  fix.ProcessInsert(t1, Var(2));  // t1 = p1 ∨ p2.
  fix.ProcessInsert(t2, Var(1));  // t2 = p1.
  auto result = fix.ProcessKill({1});
  EXPECT_TRUE(result.changed);
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.removed[0], t2);
  EXPECT_TRUE(fix.Contains(t1));
  EXPECT_FALSE(fix.Contains(t2));
}

TEST_F(FixpointTest, KillOfUnrelatedVarChangesNothing) {
  Fixpoint fix(ProvMode::kAbsorption);
  fix.ProcessInsert(Tuple::OfInts({1, 2}), Var(1));
  auto result = fix.ProcessKill({42});
  EXPECT_FALSE(result.changed);
  EXPECT_TRUE(result.removed.empty());
}

TEST_F(FixpointTest, SetModeDeduplicates) {
  bdd::Manager mgr;
  Fixpoint fix(ProvMode::kSet);
  Prov t = Prov::True(ProvMode::kSet, &mgr);
  EXPECT_TRUE(fix.ProcessInsert(Tuple::OfInts({1, 2}), t).has_value());
  EXPECT_FALSE(fix.ProcessInsert(Tuple::OfInts({1, 2}), t).has_value());
  EXPECT_TRUE(fix.ProcessDelete(Tuple::OfInts({1, 2})));
  EXPECT_FALSE(fix.ProcessDelete(Tuple::OfInts({1, 2})));
}

TEST_F(FixpointTest, StateSizeGrowsWithContents) {
  Fixpoint fix(ProvMode::kAbsorption);
  size_t empty = fix.StateSizeBytes();
  fix.ProcessInsert(Tuple::OfInts({1, 2}), Var(1));
  EXPECT_GT(fix.StateSizeBytes(), empty);
}

// --- PipelinedHashJoin (Algorithm 2) ----------------------------------------

class JoinTest : public ::testing::Test {
 protected:
  JoinTest()
      : join_(ProvMode::kAbsorption, {1}, {0},
              [](const Tuple& l, const Tuple& r) {
                return Tuple::OfInts({l.IntAt(0), r.IntAt(1)});
              }) {}
  bdd::Manager mgr_;
  PipelinedHashJoin join_;
  Prov Var(bdd::Var v) {
    return Prov::BaseVar(ProvMode::kAbsorption, &mgr_, v);
  }
};

TEST_F(JoinTest, InsertProbesOtherSide) {
  // Build: link(1, 5); probe: reachable(5, 9) -> reachable(1, 9).
  auto outs =
      join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                          Var(1));
  EXPECT_TRUE(outs.empty());
  outs = join_.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}),
                             Var(2));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].tuple, Tuple::OfInts({1, 9}));
  EXPECT_TRUE(outs[0].pv == Var(1).And(Var(2)));
}

TEST_F(JoinTest, NoMatchNoOutput) {
  auto outs =
      join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                          Var(1));
  EXPECT_TRUE(outs.empty());
  outs = join_.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({6, 9}),
                             Var(2));
  EXPECT_TRUE(outs.empty());
}

TEST_F(JoinTest, UnchangedProvenanceProducesNoOutput) {
  join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                      Var(1));
  join_.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}),
                      Var(2));
  // Absorbed delta on the probe side: no new outputs.
  auto outs = join_.ProcessInsert(PipelinedHashJoin::kRight,
                                  Tuple::OfInts({5, 9}), Var(2));
  EXPECT_TRUE(outs.empty());
}

TEST_F(JoinTest, MultipleMatchesAllJoin) {
  join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                      Var(1));
  join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({2, 5}),
                      Var(2));
  auto outs = join_.ProcessInsert(PipelinedHashJoin::kRight,
                                  Tuple::OfInts({5, 9}), Var(3));
  EXPECT_EQ(outs.size(), 2u);
}

TEST_F(JoinTest, KillDropsDeadEntries) {
  join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                      Var(1));
  join_.ProcessKill({1});
  EXPECT_FALSE(join_.Contains(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5})));
  // No stale match remains for later probes.
  auto outs = join_.ProcessInsert(PipelinedHashJoin::kRight,
                                  Tuple::OfInts({5, 9}), Var(2));
  EXPECT_TRUE(outs.empty());
}

TEST_F(JoinTest, RefireReturnsJoinResultsWithoutStateChange) {
  join_.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}),
                      Var(1));
  join_.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}),
                      Var(2));
  auto outs = join_.Refire(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].tuple, Tuple::OfInts({1, 9}));
  // Refire again: same result (state unchanged).
  EXPECT_EQ(join_.Refire(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}))
                .size(),
            1u);
}

TEST(JoinSetModeTest, DeleteCascades) {
  bdd::Manager mgr;
  PipelinedHashJoin join(ProvMode::kSet, {1}, {0},
                         [](const Tuple& l, const Tuple& r) {
                           return Tuple::OfInts({l.IntAt(0), r.IntAt(1)});
                         });
  Prov t = Prov::True(ProvMode::kSet, &mgr);
  join.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}), t);
  join.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}), t);
  auto outs = join.ProcessDelete(PipelinedHashJoin::kLeft,
                                 Tuple::OfInts({1, 5}));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].type, UpdateType::kDelete);
  EXPECT_EQ(outs[0].tuple, Tuple::OfInts({1, 9}));
  EXPECT_TRUE(
      join.ProcessDelete(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}))
          .empty());
}

// --- MinShip (Algorithm 3) ---------------------------------------------------

class MinShipTest : public ::testing::Test {
 protected:
  Prov Var(bdd::Var v) {
    return Prov::BaseVar(ProvMode::kAbsorption, &mgr_, v);
  }
  MinShip Make(ShipMode mode, size_t window = 4) {
    return MinShip(ProvMode::kAbsorption, mode, window,
                   [this](const Tuple& t, const Prov& pv) {
                     sent_.emplace_back(t, pv);
                   });
  }
  bdd::Manager mgr_;
  std::vector<std::pair<Tuple, Prov>> sent_;
};

TEST_F(MinShipTest, FirstDerivationShipsImmediately) {
  MinShip ship = Make(ShipMode::kLazy);
  ship.ProcessInsert(Tuple::OfInts({1, 2}), Var(1));
  ASSERT_EQ(sent_.size(), 1u);
}

TEST_F(MinShipTest, LazyBuffersAlternateDerivations) {
  MinShip ship = Make(ShipMode::kLazy);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));
  ship.ProcessInsert(t, Var(2));
  ship.ProcessInsert(t, Var(3));
  EXPECT_EQ(sent_.size(), 1u);  // Only the first derivation shipped.
  EXPECT_EQ(ship.buffered(), 1u);
}

TEST_F(MinShipTest, AbsorbedDerivationsAreNotEvenBuffered) {
  MinShip ship = Make(ShipMode::kLazy);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));
  ship.ProcessInsert(t, Var(1).And(Var(2)));  // Absorbed by p1.
  EXPECT_EQ(ship.buffered(), 0u);
}

TEST_F(MinShipTest, LazyPromotesBufferedDerivationOnKill) {
  MinShip ship = Make(ShipMode::kLazy);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));
  ship.ProcessInsert(t, Var(2));
  ASSERT_EQ(sent_.size(), 1u);
  ship.ProcessKill({1});
  // The buffered alternate derivation p2 must ship.
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(sent_[1].second == Var(2));
  EXPECT_EQ(ship.buffered(), 0u);
}

TEST_F(MinShipTest, KillWithNoAlternativeDropsTuple) {
  MinShip ship = Make(ShipMode::kLazy);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));
  ship.ProcessKill({1});
  EXPECT_EQ(sent_.size(), 1u);  // Nothing new shipped.
  // Re-insertion after death is a fresh first derivation: ships again.
  ship.ProcessInsert(t, Var(3));
  EXPECT_EQ(sent_.size(), 2u);
}

TEST_F(MinShipTest, EagerFlushesEveryWindow) {
  MinShip ship = Make(ShipMode::kEager, 2);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));  // Ships (first).
  ship.ProcessInsert(t, Var(2));  // Buffered; window hit -> flush.
  EXPECT_EQ(sent_.size(), 2u);
  EXPECT_EQ(ship.buffered(), 0u);
}

TEST_F(MinShipTest, DirectShipsEveryNewDerivation) {
  MinShip ship = Make(ShipMode::kDirect);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(1));
  ship.ProcessInsert(t, Var(2));
  ship.ProcessInsert(t, Var(2));  // Absorbed: not re-shipped.
  EXPECT_EQ(sent_.size(), 2u);
}

TEST_F(MinShipTest, EagerDemotesPastWidthThenBehavesLazily) {
  MinShip ship = Make(ShipMode::kEager, 4);
  Tuple t = Tuple::OfInts({1, 2});
  ship.ProcessInsert(t, Var(100));  // First derivation ships.
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_FALSE(ship.demoted());
  // (x1 ∧ y1) ∨ ... ∨ (x10 ∧ y10) with every x ordered before every y: its
  // BDD has about 2^11 nodes, far past the demotion ceiling.
  Prov wide = Prov::False(ProvMode::kAbsorption, &mgr_);
  for (bdd::Var i = 1; i <= 10; ++i) wide = wide.Or(Var(i).And(Var(10 + i)));
  ASSERT_GT(wide.bdd().CountNodes(), kEagerDemoteWidth);
  ship.ProcessInsert(t, wide);
  EXPECT_TRUE(ship.demoted());
  EXPECT_EQ(ship.demotions(), 1u);
  // Demoted: more alternates than a batch window, yet no periodic flush.
  Prov buffered = wide;
  for (bdd::Var v = 101; v <= 106; ++v) {
    ship.ProcessInsert(t, Var(v));
    buffered = buffered.Or(Var(v));
  }
  EXPECT_EQ(sent_.size(), 1u);
  EXPECT_EQ(ship.buffered(), 1u);
  EXPECT_EQ(ship.demotions(), 1u);
  // The quiescent compaction keeps the non-absorbed alternate and ships
  // nothing.
  ship.FlushIfDemoted();
  EXPECT_EQ(sent_.size(), 1u);
  EXPECT_EQ(ship.buffered(), 1u);
  // Killing the shipped derivation still promotes the buffered alternate.
  ship.ProcessKill({100});
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(sent_[1].second == buffered);
  EXPECT_EQ(ship.buffered(), 0u);
}

TEST_F(MinShipTest, FlushShipsAllBuffered) {
  MinShip ship = Make(ShipMode::kLazy);
  ship.ProcessInsert(Tuple::OfInts({1, 2}), Var(1));
  ship.ProcessInsert(Tuple::OfInts({1, 2}), Var(2));
  ship.Flush();
  EXPECT_EQ(sent_.size(), 2u);
  EXPECT_EQ(ship.buffered(), 0u);
}

// --- AggSel (Algorithm 4) ----------------------------------------------------

class AggSelTest : public ::testing::Test {
 protected:
  Prov Var(bdd::Var v) {
    return Prov::BaseVar(ProvMode::kAbsorption, &mgr_, v);
  }
  static Tuple Path(int64_t s, int64_t d, double cost, int64_t len) {
    std::vector<Value> v;
    v.emplace_back(s);
    v.emplace_back(d);
    v.emplace_back(cost);
    v.emplace_back(len);
    return Tuple(std::move(v));
  }
  bdd::Manager mgr_;
};

TEST_F(AggSelTest, FirstTupleOfGroupPropagates) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  auto outs = agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].type, UpdateType::kInsert);
}

TEST_F(AggSelTest, WorseTupleIsSuppressed) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  auto outs = agg.ProcessInsert(Path(1, 2, 15.0, 1), Var(2));
  EXPECT_TRUE(outs.empty());
  EXPECT_EQ(agg.buffered_tuples(), 2u);  // Still buffered for deletions.
}

TEST_F(AggSelTest, BetterTupleDisplacesWinner) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  auto outs = agg.ProcessInsert(Path(1, 2, 5.0, 2), Var(2));
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].type, UpdateType::kDelete);  // Displaced winner.
  EXPECT_EQ(outs[0].tuple, Path(1, 2, 10.0, 1));
  EXPECT_EQ(outs[1].type, UpdateType::kInsert);
  EXPECT_EQ(outs[1].tuple, Path(1, 2, 5.0, 2));
}

TEST_F(AggSelTest, DifferentGroupsAreIndependent) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  auto outs = agg.ProcessInsert(Path(1, 3, 99.0, 1), Var(2));
  EXPECT_EQ(outs.size(), 1u);
}

TEST_F(AggSelTest, MultiAggregatePassesIfAnyImproves) {
  AggSel agg(ProvMode::kAbsorption, {0, 1},
             {{AggFn::kMin, 2}, {AggFn::kMin, 3}});
  agg.ProcessInsert(Path(1, 2, 10.0, 5), Var(1));
  // Worse cost but better length: must propagate.
  auto outs = agg.ProcessInsert(Path(1, 2, 20.0, 2), Var(2));
  ASSERT_FALSE(outs.empty());
  EXPECT_EQ(outs.back().type, UpdateType::kInsert);
  // Worse on both: suppressed.
  EXPECT_TRUE(agg.ProcessInsert(Path(1, 2, 30.0, 9), Var(3)).empty());
}

TEST_F(AggSelTest, DeleteOfWinnerPromotesRunnerUp) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  agg.ProcessInsert(Path(1, 2, 15.0, 1), Var(2));  // Buffered runner-up.
  auto outs = agg.ProcessDelete(Path(1, 2, 10.0, 1));
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].type, UpdateType::kInsert);  // Promoted runner-up.
  EXPECT_EQ(outs[0].tuple, Path(1, 2, 15.0, 1));
  EXPECT_EQ(outs[1].type, UpdateType::kDelete);
}

TEST_F(AggSelTest, DeleteOfNonWinnerIsSilent) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  agg.ProcessInsert(Path(1, 2, 15.0, 1), Var(2));
  EXPECT_TRUE(agg.ProcessDelete(Path(1, 2, 15.0, 1)).empty());
}

TEST_F(AggSelTest, DeleteBeforeInsertIsIgnored) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  EXPECT_TRUE(agg.ProcessDelete(Path(1, 2, 10.0, 1)).empty());
}

TEST_F(AggSelTest, KillOfWinnerPromotesRunnerUp) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));
  agg.ProcessInsert(Path(1, 2, 15.0, 1), Var(2));
  auto outs = agg.ProcessKill({1});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].type, UpdateType::kInsert);
  EXPECT_EQ(outs[0].tuple, Path(1, 2, 15.0, 1));
  EXPECT_EQ(agg.buffered_tuples(), 1u);
}

// Regression: with multiple aggregates, displacing the cost winner must not
// retract it if it is still the length winner (the direct expensive hop
// stays in the view as the fewest-hops path).
TEST_F(AggSelTest, DisplacedWinnerStillWinningOtherAggIsNotDeleted) {
  AggSel agg(ProvMode::kAbsorption, {0, 1},
             {{AggFn::kMin, 2}, {AggFn::kMin, 3}});
  Tuple direct = Path(0, 3, 10.0, 1);   // Expensive, 1 hop.
  Tuple detour = Path(0, 3, 3.0, 3);    // Cheap, 3 hops.
  agg.ProcessInsert(direct, Var(1));
  auto outs = agg.ProcessInsert(detour, Var(2));
  ASSERT_EQ(outs.size(), 1u);  // No DEL: direct still wins on hops.
  EXPECT_EQ(outs[0].type, UpdateType::kInsert);
  EXPECT_EQ(outs[0].tuple, detour);
}

// Regression: a tuple winning both aggregates and displaced on both at once
// must be retracted exactly once.
TEST_F(AggSelTest, DoubleDisplacementEmitsSingleDelete) {
  AggSel agg(ProvMode::kAbsorption, {0, 1},
             {{AggFn::kMin, 2}, {AggFn::kMin, 3}});
  Tuple first = Path(0, 3, 10.0, 5);
  Tuple better = Path(0, 3, 2.0, 1);  // Better on both aggregates.
  agg.ProcessInsert(first, Var(1));
  auto outs = agg.ProcessInsert(better, Var(2));
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].type, UpdateType::kDelete);
  EXPECT_EQ(outs[0].tuple, first);
  EXPECT_EQ(outs[1].type, UpdateType::kInsert);
}

// Regression: when a kill removes several buffered tuples of one group, the
// re-elected winner must be a surviving tuple (never another dead one).
TEST_F(AggSelTest, KillOfMultipleGroupMembersElectsSurvivor) {
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0, 1), Var(1));  // Winner, dies.
  agg.ProcessInsert(Path(1, 2, 11.0, 1), Var(1));  // Runner-up, also dies.
  agg.ProcessInsert(Path(1, 2, 15.0, 1), Var(2));  // Survivor.
  auto outs = agg.ProcessKill({1});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].type, UpdateType::kInsert);
  EXPECT_EQ(outs[0].tuple, Path(1, 2, 15.0, 1));
  EXPECT_EQ(agg.buffered_tuples(), 1u);
}

TEST_F(AggSelTest, MaxAggregateWorks) {
  AggSel agg(ProvMode::kAbsorption, {0}, {{AggFn::kMax, 1}});
  auto t1 = Tuple::OfInts({7, 3});
  auto t2 = Tuple::OfInts({7, 9});
  EXPECT_EQ(agg.ProcessInsert(t1, Var(1)).size(), 1u);
  auto outs = agg.ProcessInsert(t2, Var(2));
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0].type, UpdateType::kDelete);
  EXPECT_EQ(outs[0].tuple, t1);
}

// --- Kill scans --------------------------------------------------------------

class KillScanTest : public ::testing::Test {
 protected:
  Prov Var(bdd::Var v) {
    return Prov::BaseVar(ProvMode::kAbsorption, &mgr_, v);
  }
  static Tuple Path(int64_t s, int64_t d, double cost) {
    std::vector<Value> v;
    v.emplace_back(s);
    v.emplace_back(d);
    v.emplace_back(cost);
    return Tuple(std::move(v));
  }
  MinShip LazyShip() {
    return MinShip(ProvMode::kAbsorption, ShipMode::kLazy, 4,
                   [this](const Tuple& t, const Prov& pv) {
                     sent_.emplace_back(t, pv);
                   });
  }
  bdd::Manager mgr_;
  std::vector<std::pair<Tuple, Prov>> sent_;
};

// Every annotation below uses variables 1..12. Variable 40 is in none of
// them and its 64-bit signature bit is clear everywhere (with 32-bit
// signatures it would share variable 8's bit and cost a walk), so the kill
// is screened out before any annotation is copied or restricted.
TEST_F(KillScanTest, AbsentVariableLeavesStateAndCountersAlone) {
  Fixpoint fix(ProvMode::kAbsorption);
  fix.ProcessInsert(Tuple::OfInts({1, 2}), Var(1).And(Var(2)));
  fix.ProcessInsert(Tuple::OfInts({1, 3}), Var(3).Or(Var(4)));
  PipelinedHashJoin join(ProvMode::kAbsorption, {1}, {0},
                         [](const Tuple& l, const Tuple& r) {
                           return Tuple::OfInts({l.IntAt(0), r.IntAt(1)});
                         });
  join.ProcessInsert(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}), Var(5));
  join.ProcessInsert(PipelinedHashJoin::kRight, Tuple::OfInts({5, 9}),
                     Var(6).And(Var(7)));
  MinShip ship = LazyShip();
  ship.ProcessInsert(Tuple::OfInts({1, 2}), Var(8));
  ship.ProcessInsert(Tuple::OfInts({1, 2}), Var(9));  // Buffered.
  AggSel agg(ProvMode::kAbsorption, {0, 1}, {{AggFn::kMin, 2}});
  agg.ProcessInsert(Path(1, 2, 10.0), Var(10));
  agg.ProcessInsert(Path(1, 2, 15.0), Var(11).And(Var(12)));

  std::vector<std::pair<Tuple, Prov>> view(fix.contents().begin(),
                                           fix.contents().end());
  const std::vector<Update> joined =
      join.Refire(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}));
  ASSERT_EQ(joined.size(), 1u);
  const size_t join_bytes = join.StateSizeBytes();
  const size_t ship_bytes = ship.StateSizeBytes();
  const size_t agg_bytes = agg.StateSizeBytes();
  const size_t sent = sent_.size();
  const uint64_t probes = mgr_.unique_probes();
  const uint64_t lookups = mgr_.cache_lookups();

  const std::vector<bdd::Var> killed = {40};
  Fixpoint::KillResult fix_result = fix.ProcessKill(killed);
  join.ProcessKill(killed);
  ship.ProcessKill(killed);
  EXPECT_TRUE(agg.ProcessKill(killed).empty());

  EXPECT_EQ(mgr_.unique_probes(), probes);
  EXPECT_EQ(mgr_.cache_lookups(), lookups);
  EXPECT_FALSE(fix_result.changed);
  EXPECT_TRUE(fix_result.removed.empty());
  ASSERT_EQ(fix.size(), view.size());
  for (const auto& [tuple, pv] : view) {
    ASSERT_NE(fix.Lookup(tuple), nullptr);
    EXPECT_TRUE(*fix.Lookup(tuple) == pv);
  }
  const std::vector<Update> rejoined =
      join.Refire(PipelinedHashJoin::kLeft, Tuple::OfInts({1, 5}));
  ASSERT_EQ(rejoined.size(), 1u);
  EXPECT_TRUE(rejoined[0].pv == joined[0].pv);
  EXPECT_EQ(join.StateSizeBytes(), join_bytes);
  EXPECT_EQ(sent_.size(), sent);
  EXPECT_EQ(ship.buffered(), 1u);
  EXPECT_EQ(ship.StateSizeBytes(), ship_bytes);
  EXPECT_EQ(agg.buffered_tuples(), 2u);
  EXPECT_EQ(agg.StateSizeBytes(), agg_bytes);
}

// A kill that hits shipped annotations promotes each dead tuple's buffered
// alternate, in Bsent iteration order. A dead tuple without an alternate
// is erased by swap-with-last, so the former last entry is visited next.
TEST_F(KillScanTest, HittingKillPromotesBufferedAlternatesInBsentOrder) {
  MinShip ship = LazyShip();
  auto tuple = [](int64_t i) { return Tuple::OfInts({0, i}); };
  auto own = [this](int64_t i) { return Var(static_cast<bdd::Var>(i)); };
  // Shipped derivations depend on x100, except tuple 6's (untouched by the
  // kill) and tuple 8's, which the kill narrows to x9 without killing it.
  // Tuple 5 has no alternate, and tuple 7's only alternate dies with it.
  for (int64_t i : {3, 5, 1, 6, 7, 4, 2}) {
    ship.ProcessInsert(tuple(i), i == 6 ? own(i) : Var(100).And(own(i)));
  }
  ship.ProcessInsert(tuple(8), Var(100).And(own(8)).Or(Var(9)));
  for (int64_t i : {3, 1, 6, 4, 2, 8}) {
    ship.ProcessInsert(tuple(i), own(200 + i));
  }
  ship.ProcessInsert(tuple(7), Var(100).And(Var(300)));
  ASSERT_EQ(sent_.size(), 8u);
  ASSERT_EQ(ship.buffered(), 7u);
  sent_.clear();

  // Bsent is [3 5 1 6 7 4 2 8]. Erasing 5 moves 8 into its slot (it
  // survives), and erasing 7 moves 2 into its slot (promoted before 4).
  ship.ProcessKill({100});
  const std::vector<int64_t> want = {3, 1, 2, 4};
  ASSERT_EQ(sent_.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(sent_[k].first, tuple(want[k])) << "promotion " << k;
    EXPECT_TRUE(sent_[k].second == own(200 + want[k])) << "promotion " << k;
  }
  EXPECT_EQ(ship.buffered(), 2u);  // Tuples 6 and 8 keep their alternates.
}

// --- GroupByAggregate --------------------------------------------------------

TEST(GroupByTest, CountWithDeletions) {
  GroupByAggregate counts({0}, {{GroupAggFn::kCount, 0}});
  counts.OnInsert(Tuple::OfInts({1, 10}));
  counts.OnInsert(Tuple::OfInts({1, 11}));
  counts.OnInsert(Tuple::OfInts({2, 12}));
  auto r = counts.Result(Tuple::OfInts({1}));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].AsInt(), 2);
  counts.OnDelete(Tuple::OfInts({1, 10}));
  EXPECT_EQ((*counts.Result(Tuple::OfInts({1})))[0].AsInt(), 1);
  counts.OnDelete(Tuple::OfInts({1, 11}));
  EXPECT_FALSE(counts.Result(Tuple::OfInts({1})).has_value());
  EXPECT_EQ((*counts.Result(Tuple::OfInts({2})))[0].AsInt(), 1);
}

TEST(GroupByTest, MinFallsBackOnDeletion) {
  GroupByAggregate mins({0}, {{GroupAggFn::kMin, 1}});
  mins.OnInsert(Tuple::OfInts({1, 5}));
  mins.OnInsert(Tuple::OfInts({1, 9}));
  EXPECT_EQ((*mins.Result(Tuple::OfInts({1})))[0].AsDouble(), 5.0);
  mins.OnDelete(Tuple::OfInts({1, 5}));
  EXPECT_EQ((*mins.Result(Tuple::OfInts({1})))[0].AsDouble(), 9.0);
}

TEST(GroupByTest, MaxAndSum) {
  GroupByAggregate agg({0}, {{GroupAggFn::kMax, 1}, {GroupAggFn::kSum, 1}});
  agg.OnInsert(Tuple::OfInts({1, 5}));
  agg.OnInsert(Tuple::OfInts({1, 7}));
  auto r = agg.Result(Tuple::OfInts({1}));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].AsDouble(), 7.0);
  EXPECT_EQ((*r)[1].AsDouble(), 12.0);
  agg.OnDelete(Tuple::OfInts({1, 7}));
  r = agg.Result(Tuple::OfInts({1}));
  EXPECT_EQ((*r)[0].AsDouble(), 5.0);
  EXPECT_EQ((*r)[1].AsDouble(), 5.0);
}

TEST(GroupByTest, DuplicateValuesCountedWithMultiplicity) {
  GroupByAggregate mins({0}, {{GroupAggFn::kMin, 1}});
  mins.OnInsert(Tuple::OfInts({1, 5}));
  mins.OnInsert(Tuple::OfInts({2, 5}));  // Different group.
  mins.OnInsert(Tuple::OfInts({1, 5}));  // Same value twice in group 1.
  mins.OnDelete(Tuple::OfInts({1, 5}));
  // One instance remains.
  EXPECT_EQ((*mins.Result(Tuple::OfInts({1})))[0].AsDouble(), 5.0);
}

TEST(GroupByTest, GroupsEnumerates) {
  GroupByAggregate counts({0}, {{GroupAggFn::kCount, 0}});
  counts.OnInsert(Tuple::OfInts({1, 10}));
  counts.OnInsert(Tuple::OfInts({2, 11}));
  EXPECT_EQ(counts.Groups().size(), 2u);
}

}  // namespace
}  // namespace recnet
