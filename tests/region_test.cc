#include "engine/region_runtime.h"

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

// A private substrate for `field`, one sensor per physical peer.
std::shared_ptr<Substrate> Net(const SensorField& field) {
  SubstrateOptions deployment;
  deployment.num_physical = 1000;
  return std::make_shared<Substrate>(field.num_sensors, deployment);
}

// A 3x3 field with spacing 10 and k = 12: only the 4-neighborhood is
// contiguous. Seed of region 0 at the center (sensor 4).
SensorField SmallField() {
  SensorGridOptions options;
  options.grid_dim = 3;
  options.spacing_m = 10.0;
  options.k = 12.0;
  options.num_seeds = 1;
  SensorField field = MakeSensorGrid(options);
  field.seed_sensors = {4};
  return field;
}

void ExpectMatchesReference(const RegionRuntime& rt, const SensorField& field,
                            const std::vector<bool>& triggered) {
  auto expected = ReferenceRegions(field, triggered);
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(rt.RegionMembers(static_cast<int>(r)), expected[r])
        << "region " << r;
  }
}

class RegionModesTest : public ::testing::TestWithParam<ProvMode> {};

TEST_P(RegionModesTest, SeedAloneFormsSingletonRegion) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(GetParam()));
  rt.Trigger(4);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.RegionMembers(0), (std::set<int>{1, 3, 4, 5, 7}));
  // Only the (triggered) seed expands; neighbors join but are themselves
  // untriggered, so the region stops at the 4-neighborhood.
  EXPECT_EQ(rt.RegionSize(0), 5);
  EXPECT_EQ(rt.LargestRegionSize(), 5);
}

TEST_P(RegionModesTest, TriggeredChainGrowsRegion) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(GetParam()));
  rt.Trigger(4);
  rt.Trigger(5);  // Right of center; its neighbors (2, 8) join too.
  ASSERT_TRUE(rt.Run());
  std::vector<bool> triggered(9, false);
  triggered[4] = triggered[5] = true;
  ExpectMatchesReference(rt, field, triggered);
  EXPECT_TRUE(rt.InRegion(0, 2));
  EXPECT_TRUE(rt.InRegion(0, 8));
}

TEST_P(RegionModesTest, UntriggerShrinksRegion) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(GetParam()));
  rt.Trigger(4);
  rt.Trigger(5);
  ASSERT_TRUE(rt.Run());
  rt.Untrigger(5);
  ASSERT_TRUE(rt.Run());
  std::vector<bool> triggered(9, false);
  triggered[4] = true;
  ExpectMatchesReference(rt, field, triggered);
  EXPECT_FALSE(rt.InRegion(0, 2));
  EXPECT_EQ(rt.RegionSize(0), 5);
}

TEST_P(RegionModesTest, UntriggerSeedEmptiesRegion) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(GetParam()));
  rt.Trigger(4);
  rt.Trigger(1);
  ASSERT_TRUE(rt.Run());
  rt.Untrigger(4);
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(rt.RegionMembers(0).empty());
  EXPECT_EQ(rt.RegionSize(0), 0);
  EXPECT_EQ(rt.LargestRegionSize(), 0);
  EXPECT_TRUE(rt.LargestRegions().empty());
}

TEST_P(RegionModesTest, RetriggerRestoresRegion) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(GetParam()));
  rt.Trigger(4);
  ASSERT_TRUE(rt.Run());
  rt.Untrigger(4);
  ASSERT_TRUE(rt.Run());
  rt.Trigger(4);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.RegionSize(0), 5);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RegionModesTest,
                         ::testing::Values(ProvMode::kSet,
                                           ProvMode::kAbsorption,
                                           ProvMode::kRelative));

TEST(RegionAggregatesTest, LargestRegionsTracksTies) {
  SensorGridOptions options;
  options.grid_dim = 4;
  options.spacing_m = 10.0;
  options.k = 12.0;
  options.num_seeds = 2;
  SensorField field = MakeSensorGrid(options);
  field.seed_sensors = {0, 15};  // Opposite corners; regions are disjoint.
  RegionRuntime rt(Net(field), field, Opts(ProvMode::kAbsorption));
  rt.Trigger(0);
  rt.Trigger(15);
  ASSERT_TRUE(rt.Run());
  // Corner seeds each have 2 lattice neighbors within 15m: size 3 regions.
  EXPECT_EQ(rt.RegionSize(0), 3);
  EXPECT_EQ(rt.RegionSize(1), 3);
  EXPECT_EQ(rt.LargestRegions(), (std::vector<int>{0, 1}));
  // Growing region 0 breaks the tie.
  rt.Trigger(1);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.LargestRegions(), (std::vector<int>{0}));
}

TEST(RegionRandomTest, RandomTriggerSequencesMatchReference) {
  SensorGridOptions options;
  options.grid_dim = 5;
  options.spacing_m = 10.0;
  options.k = 15.0;
  options.num_seeds = 3;
  options.seed = 11;
  SensorField field = MakeSensorGrid(options);
  for (ProvMode prov :
       {ProvMode::kSet, ProvMode::kAbsorption, ProvMode::kRelative}) {
    RegionRuntime rt(Net(field), field, Opts(prov));
    std::vector<bool> triggered(
        static_cast<size_t>(field.num_sensors), false);
    Rng rng(99);
    for (int step = 0; step < 40; ++step) {
      int sensor = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(field.num_sensors)));
      if (triggered[static_cast<size_t>(sensor)]) {
        rt.Untrigger(sensor);
        triggered[static_cast<size_t>(sensor)] = false;
      } else {
        rt.Trigger(sensor);
        triggered[static_cast<size_t>(sensor)] = true;
      }
      ASSERT_TRUE(rt.Run());
      auto expected = ReferenceRegions(field, triggered);
      for (size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(rt.RegionMembers(static_cast<int>(r)), expected[r])
            << ProvModeName(prov) << " step " << step << " region " << r;
        ASSERT_EQ(rt.RegionSize(static_cast<int>(r)),
                  static_cast<int64_t>(expected[r].size()));
      }
    }
  }
}

TEST(RegionTest, DoubleTriggerIsIdempotent) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(ProvMode::kAbsorption));
  rt.Trigger(4);
  rt.Trigger(4);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.RegionSize(0), 5);
  rt.Untrigger(4);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.RegionSize(0), 0);
}

TEST(RegionTest, UntriggerUnknownSensorIsNoOp) {
  SensorField field = SmallField();
  RegionRuntime rt(Net(field), field, Opts(ProvMode::kAbsorption));
  rt.Untrigger(3);
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.ViewSize(), 0u);
}

}  // namespace
}  // namespace recnet
