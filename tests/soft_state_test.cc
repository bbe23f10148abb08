#include "engine/soft_state.h"

#include <gtest/gtest.h>

#include "engine/views.h"

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

TEST(SoftStateViewTest, ExpirationsDeleteIncrementally) {
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  SoftStateReachabilityView view(
      std::make_shared<Substrate>(3, SubstrateOptions{}), 3, opts);
  view.InsertLink(0, 1, /*ttl=*/10.0);
  view.InsertLink(1, 2, /*ttl=*/5.0);
  ASSERT_TRUE(view.Apply().ok());
  EXPECT_TRUE(view.IsReachable(0, 2));

  view.AdvanceTime(7.0);  // link(1,2) expires.
  ASSERT_TRUE(view.Apply().ok());
  EXPECT_FALSE(view.IsReachable(0, 2));
  EXPECT_TRUE(view.IsReachable(0, 1));
  EXPECT_EQ(view.live_links(), 1u);

  view.AdvanceTime(11.0);  // link(0,1) expires.
  ASSERT_TRUE(view.Apply().ok());
  EXPECT_FALSE(view.IsReachable(0, 1));
  EXPECT_EQ(view.live_links(), 0u);
}

TEST(SoftStateViewTest, RenewalKeepsViewStableWithoutTraffic) {
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  SubstrateOptions deployment;
  deployment.num_physical = 3;
  SoftStateReachabilityView view(std::make_shared<Substrate>(3, deployment),
                                 3, opts);
  view.InsertLink(0, 1, 10.0);
  view.InsertLink(1, 2, 10.0);
  ASSERT_TRUE(view.Apply().ok());
  uint64_t messages = view.Metrics().messages;
  // Periodic refresh before expiry: the derivations stay valid, no
  // propagation happens.
  for (double t : {4.0, 8.0, 12.0, 16.0}) {
    view.AdvanceTime(t);
    view.InsertLink(0, 1, 10.0);
    view.InsertLink(1, 2, 10.0);
    ASSERT_TRUE(view.Apply().ok());
    EXPECT_TRUE(view.IsReachable(0, 2));
  }
  EXPECT_EQ(view.Metrics().messages, messages);
}

TEST(SoftStateViewTest, MissedRefreshExpiresThenReinsertRestores) {
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  SoftStateReachabilityView view(
      std::make_shared<Substrate>(3, SubstrateOptions{}), 3, opts);
  view.InsertLink(0, 1, 5.0);
  view.InsertLink(1, 2, 5.0);
  ASSERT_TRUE(view.Apply().ok());
  view.AdvanceTime(6.0);  // Both expire.
  ASSERT_TRUE(view.Apply().ok());
  EXPECT_FALSE(view.IsReachable(0, 2));
  view.InsertLink(0, 1, 5.0);  // Fresh insertion (new base variable).
  view.InsertLink(1, 2, 5.0);
  ASSERT_TRUE(view.Apply().ok());
  EXPECT_TRUE(view.IsReachable(0, 2));
}

}  // namespace
}  // namespace recnet
