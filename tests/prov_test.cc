#include "provenance/prov.h"

#include <gtest/gtest.h>

namespace recnet {
namespace {

class ProvModesTest : public ::testing::TestWithParam<ProvMode> {
 protected:
  ProvMode mode() const { return GetParam(); }
  bdd::Manager mgr_;
};

TEST_P(ProvModesTest, TrueFalseBasics) {
  Prov t = Prov::True(mode(), &mgr_);
  Prov f = Prov::False(mode(), &mgr_);
  EXPECT_FALSE(t.IsFalse());
  EXPECT_TRUE(f.IsFalse());
  EXPECT_TRUE(t == t);
  EXPECT_TRUE(t != f);
}

// Figure 6 composition laws (join = AND, union = OR).
TEST_P(ProvModesTest, AndOrIdentities) {
  Prov t = Prov::True(mode(), &mgr_);
  Prov f = Prov::False(mode(), &mgr_);
  Prov a = Prov::BaseVar(mode(), &mgr_, 1);
  EXPECT_TRUE(a.And(t) == a);
  EXPECT_TRUE(a.And(f).IsFalse());
  EXPECT_TRUE(a.Or(f) == a);
  EXPECT_TRUE(a.Or(a) == a);
}

TEST_P(ProvModesTest, RestrictFalseRemovesDependentDerivations) {
  if (mode() == ProvMode::kSet) return;  // No deletion support in set mode.
  Prov p1 = Prov::BaseVar(mode(), &mgr_, 1);
  Prov p2 = Prov::BaseVar(mode(), &mgr_, 2);
  Prov p3 = Prov::BaseVar(mode(), &mgr_, 3);
  Prov f = p1.And(p2).Or(p3);  // (p1 ∧ p2) ∨ p3.
  EXPECT_FALSE(f.RestrictFalse({1}).IsFalse());  // p3 survives.
  EXPECT_TRUE(f.RestrictFalse({1, 3}).IsFalse());
  EXPECT_TRUE(f.RestrictFalse({2, 3}).IsFalse());
  EXPECT_TRUE(f.RestrictFalse({9}) == f);  // Unrelated variable.
}

TEST_P(ProvModesTest, SupportVars) {
  if (mode() == ProvMode::kSet) return;
  Prov p1 = Prov::BaseVar(mode(), &mgr_, 1);
  Prov p5 = Prov::BaseVar(mode(), &mgr_, 5);
  Prov f = p1.And(p5).Or(p1);
  std::vector<bdd::Var> support;
  f.SupportVars(&support);
  // Absorption collapses to p1 (support {1}); relative keeps both
  // derivations (support {1, 5}).
  if (mode() == ProvMode::kAbsorption) {
    EXPECT_EQ(support, (std::vector<bdd::Var>{1}));
  } else {
    EXPECT_EQ(support, (std::vector<bdd::Var>{1, 5}));
  }
}

TEST_P(ProvModesTest, DeltaOverReturnsNewDerivations) {
  Prov p1 = Prov::BaseVar(mode(), &mgr_, 1);
  Prov p2 = Prov::BaseVar(mode(), &mgr_, 2);
  Prov merged = p1.Or(p2);
  Prov delta = merged.DeltaOver(p1);
  if (mode() == ProvMode::kSet) {
    // p1 already present: no delta under set semantics.
    EXPECT_TRUE(delta.IsFalse());
  } else {
    EXPECT_FALSE(delta.IsFalse());
    // The delta must not claim anything already covered: for absorption,
    // delta ∧ p1-only assignments are false.
    if (mode() == ProvMode::kAbsorption) {
      EXPECT_TRUE(delta.RestrictFalse({2}).IsFalse());
    }
  }
}

TEST_P(ProvModesTest, WireSizeBehaviour) {
  Prov t = Prov::True(mode(), &mgr_);
  Prov a = Prov::BaseVar(mode(), &mgr_, 1);
  if (mode() == ProvMode::kSet) {
    EXPECT_EQ(t.WireSizeBytes(), 0u);
    EXPECT_EQ(a.WireSizeBytes(), 0u);
  } else {
    EXPECT_GT(a.WireSizeBytes(), 0u);
  }
}

// Implies is the absorption test without the Or.
TEST_P(ProvModesTest, ImpliesMatchesOrAbsorption) {
  std::vector<Prov> ps = {Prov::True(mode(), &mgr_),
                          Prov::False(mode(), &mgr_)};
  for (bdd::Var v = 1; v <= 3; ++v) {
    ps.push_back(Prov::BaseVar(mode(), &mgr_, v));
  }
  const Prov& p1 = ps[2];
  const Prov& p2 = ps[3];
  const Prov& p3 = ps[4];
  ps.push_back(p1.And(p2));
  ps.push_back(p1.Or(p2));
  ps.push_back(p1.And(p2).Or(p3));
  ps.push_back(p1.Or(p1.And(p3)));  // Absorbed to p1, except kRelative.
  size_t implied = 0;
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = 0; j < ps.size(); ++j) {
      EXPECT_EQ(ps[i].Implies(ps[j]), ps[i].Or(ps[j]) == ps[j])
          << ps[i].ToString() << " -> " << ps[j].ToString();
      implied += ps[i].Implies(ps[j]) ? 1 : 0;
    }
  }
  EXPECT_GT(implied, ps.size());
  if (mode() != ProvMode::kSet) {
    EXPECT_LT(implied, ps.size() * ps.size());
  }
}

// A null-manager True is the same function as the manager's True, but Or
// requires both operands in one manager, so the expected value is computed
// with the latter.
TEST_P(ProvModesTest, ImpliesAcceptsNullManagerTrue) {
  const Prov null_true = Prov::True(mode(), nullptr);
  const Prov t = Prov::True(mode(), &mgr_);
  const Prov p1 = Prov::BaseVar(mode(), &mgr_, 1);
  const Prov p2 = Prov::BaseVar(mode(), &mgr_, 2);
  for (const Prov& p : {t, Prov::False(mode(), &mgr_), p1, p1.And(p2)}) {
    EXPECT_EQ(p.Implies(null_true), p.Or(t) == t) << p.ToString();
    EXPECT_EQ(null_true.Implies(p), t.Or(p) == p) << p.ToString();
  }
  EXPECT_TRUE(null_true.Implies(null_true));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ProvModesTest,
                         ::testing::Values(ProvMode::kSet,
                                           ProvMode::kAbsorption,
                                           ProvMode::kRelative));

// --- Model-specific behaviour ----------------------------------------------

TEST(AbsorptionProvTest, AbsorbsSupersetDerivations) {
  bdd::Manager mgr;
  Prov p1 = Prov::BaseVar(ProvMode::kAbsorption, &mgr, 1);
  Prov p2 = Prov::BaseVar(ProvMode::kAbsorption, &mgr, 2);
  Prov longer = p1.And(p2);
  // p1 ∨ (p1 ∧ p2) = p1: merging the longer derivation changes nothing.
  EXPECT_TRUE(p1.Or(longer) == p1);
}

TEST(RelativeProvTest, KeepsSupersetDerivations) {
  bdd::Manager mgr;
  Prov p1 = Prov::BaseVar(ProvMode::kRelative, &mgr, 1);
  Prov p2 = Prov::BaseVar(ProvMode::kRelative, &mgr, 2);
  Prov longer = p1.And(p2);
  Prov merged = p1.Or(longer);
  // Relative provenance does not absorb: the annotation grows.
  EXPECT_FALSE(merged == p1);
  EXPECT_EQ(merged.rel().derivations.size(), 2u);
  // And it is therefore strictly larger on the wire.
  EXPECT_GT(merged.WireSizeBytes(), p1.WireSizeBytes());
}

TEST(RelativeProvTest, AndDistributesOverDerivations) {
  bdd::Manager mgr;
  Prov a = Prov::BaseVar(ProvMode::kRelative, &mgr, 1)
               .Or(Prov::BaseVar(ProvMode::kRelative, &mgr, 2));
  Prov b = Prov::BaseVar(ProvMode::kRelative, &mgr, 3);
  Prov product = a.And(b);
  EXPECT_EQ(product.rel().derivations.size(), 2u);  // {1,3} and {2,3}.
}

TEST(RelativeProvTest, DuplicateVariablesCollapseWithinDerivation) {
  bdd::Manager mgr;
  Prov p1 = Prov::BaseVar(ProvMode::kRelative, &mgr, 1);
  Prov sq = p1.And(p1);
  EXPECT_EQ(sq.rel().derivations.size(), 1u);
  EXPECT_EQ(sq.rel().derivations[0], (std::vector<bdd::Var>{1}));
}

TEST(ProvModeNameTest, Names) {
  EXPECT_STREQ(ProvModeName(ProvMode::kSet), "set");
  EXPECT_STREQ(ProvModeName(ProvMode::kAbsorption), "absorption");
  EXPECT_STREQ(ProvModeName(ProvMode::kRelative), "relative");
}

}  // namespace
}  // namespace recnet
