#include "engine/soft_state.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "engine/engine.h"

namespace recnet {
namespace {

TEST(SoftStateClockTest, ExpiresInDeadlineOrder) {
  SoftStateClock clock;
  clock.Insert(Tuple::OfInts({1}), 10.0);
  clock.Insert(Tuple::OfInts({2}), 5.0);
  clock.Insert(Tuple::OfInts({3}), 20.0);
  EXPECT_EQ(clock.live(), 3u);
  auto expired = clock.AdvanceTo(12.0);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0], Tuple::OfInts({2}));
  EXPECT_EQ(expired[1], Tuple::OfInts({1}));
  EXPECT_EQ(clock.live(), 1u);
}

TEST(SoftStateClockTest, RenewalExtendsDeadline) {
  SoftStateClock clock;
  clock.Insert(Tuple::OfInts({1}), 5.0);
  clock.AdvanceTo(3.0);
  clock.Insert(Tuple::OfInts({1}), 5.0);  // Renewed: expires at 8.
  EXPECT_TRUE(clock.AdvanceTo(6.0).empty());
  auto expired = clock.AdvanceTo(9.0);
  ASSERT_EQ(expired.size(), 1u);
}

TEST(SoftStateClockTest, RemoveCancelsExpiry) {
  SoftStateClock clock;
  clock.Insert(Tuple::OfInts({1}), 5.0);
  clock.Remove(Tuple::OfInts({1}));
  EXPECT_FALSE(clock.Contains(Tuple::OfInts({1})));
  EXPECT_TRUE(clock.AdvanceTo(10.0).empty());
}

TEST(SoftStateClockTest, EqualDeadlinesAllExpire) {
  SoftStateClock clock;
  clock.Insert(Tuple::OfInts({1}), 5.0);
  clock.Insert(Tuple::OfInts({2}), 5.0);
  EXPECT_EQ(clock.AdvanceTo(5.0).size(), 2u);
}

// Soft-state links through the session facade (paper §3.1): every link
// carries a time-to-live, AdvanceTime expires overdue links as ordinary
// incremental deletions, and re-inserting a live link renews it.
constexpr char kReachable[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
)";

std::unique_ptr<Engine> ThreeNodeEngine() {
  EngineOptions options;
  options.num_nodes = 3;
  options.runtime.prov = ProvMode::kAbsorption;
  SessionOptions deployment;
  deployment.num_physical = 3;
  auto engine = Engine::Compile(kReachable, options, deployment);
  RECNET_CHECK(engine.ok());
  return std::move(engine).value();
}

Status InsertLink(Engine& e, int src, int dst, double ttl) {
  return e.InsertWithTtl("link", Tuple::OfInts({src, dst}), ttl);
}

bool Reachable(const Engine& e, int src, int dst) {
  return *e.Contains("reachable", {double(src), double(dst)});
}

TEST(SoftStateViewTest, ExpirationsDeleteIncrementally) {
  std::unique_ptr<Engine> e = ThreeNodeEngine();
  ASSERT_TRUE(InsertLink(*e, 0, 1, /*ttl=*/10.0).ok());
  ASSERT_TRUE(InsertLink(*e, 1, 2, /*ttl=*/5.0).ok());
  ASSERT_TRUE(e->Apply().ok());
  EXPECT_TRUE(Reachable(*e, 0, 2));

  ASSERT_TRUE(e->AdvanceTime(7.0).ok());  // link(1,2) expires.
  ASSERT_TRUE(e->Apply().ok());
  EXPECT_FALSE(Reachable(*e, 0, 2));
  EXPECT_TRUE(Reachable(*e, 0, 1));

  ASSERT_TRUE(e->AdvanceTime(11.0).ok());  // link(0,1) expires.
  ASSERT_TRUE(e->Apply().ok());
  EXPECT_FALSE(Reachable(*e, 0, 1));
  EXPECT_TRUE(e->Scan("reachable")->empty());
}

TEST(SoftStateViewTest, RenewalKeepsViewStableWithoutTraffic) {
  std::unique_ptr<Engine> e = ThreeNodeEngine();
  ASSERT_TRUE(InsertLink(*e, 0, 1, 10.0).ok());
  ASSERT_TRUE(InsertLink(*e, 1, 2, 10.0).ok());
  ASSERT_TRUE(e->Apply().ok());
  uint64_t messages = e->Metrics().messages;
  // Periodic refresh before expiry: the derivations stay valid, no
  // propagation happens.
  for (double t : {4.0, 8.0, 12.0, 16.0}) {
    ASSERT_TRUE(e->AdvanceTime(t).ok());
    ASSERT_TRUE(InsertLink(*e, 0, 1, 10.0).ok());
    ASSERT_TRUE(InsertLink(*e, 1, 2, 10.0).ok());
    ASSERT_TRUE(e->Apply().ok());
    EXPECT_TRUE(Reachable(*e, 0, 2));
  }
  EXPECT_EQ(e->Metrics().messages, messages);
}

TEST(SoftStateViewTest, MissedRefreshExpiresThenReinsertRestores) {
  std::unique_ptr<Engine> e = ThreeNodeEngine();
  ASSERT_TRUE(InsertLink(*e, 0, 1, 5.0).ok());
  ASSERT_TRUE(InsertLink(*e, 1, 2, 5.0).ok());
  ASSERT_TRUE(e->Apply().ok());
  ASSERT_TRUE(e->AdvanceTime(6.0).ok());  // Both expire.
  ASSERT_TRUE(e->Apply().ok());
  EXPECT_FALSE(Reachable(*e, 0, 2));
  ASSERT_TRUE(InsertLink(*e, 0, 1, 5.0).ok());  // Fresh insertion.
  ASSERT_TRUE(InsertLink(*e, 1, 2, 5.0).ok());
  ASSERT_TRUE(e->Apply().ok());
  EXPECT_TRUE(Reachable(*e, 0, 2));
}

}  // namespace
}  // namespace recnet
