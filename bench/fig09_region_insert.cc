// Figure 9: `region` query computation as insertions (sensor triggers) are
// performed. Workload per the paper: a 100-sensor grid with 5 seed groups;
// all seeds trigger, then half of the remaining sensors trigger. The X axis
// is the fraction of those triggers applied.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "topology/sensor_grid.h"

using namespace recnet;
using namespace recnet::bench;

namespace {

// Query 3 as executed through the Engine facade (the sensor deployment
// itself comes from EngineOptions::field).
constexpr char kQuery3[] = R"(
  activeRegion(r,x) :- seed(r,x), triggered(x).
  activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
  regionSizes(r,count<x>) :- activeRegion(r,x).
)";

// Seeds first, then a shuffled half of the remaining sensors.
std::vector<int> TriggerPool(const SensorField& field, uint64_t seed) {
  std::vector<int> pool = field.seed_sensors;
  std::vector<int> rest;
  for (int s = 0; s < field.num_sensors; ++s) {
    if (std::find(pool.begin(), pool.end(), s) == pool.end()) {
      rest.push_back(s);
    }
  }
  Rng rng(seed);
  rng.Shuffle(&rest);
  rest.resize(rest.size() / 2);
  pool.insert(pool.end(), rest.begin(), rest.end());
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  SensorGridOptions grid;
  grid.seed = env.seed;
  SensorField field = MakeSensorGrid(grid);
  std::vector<int> pool = TriggerPool(field, env.seed);
  std::printf("Figure 9 workload: %d sensors, %zu regions, %zu triggers\n",
              field.num_sensors, field.seed_sensors.size(), pool.size());

  FigurePrinter fig("Figure 9", "region query, insertion workload",
                    "insertion ratio",
                    {"DRed", "Absorption Eager", "Absorption Lazy"});

  fig.set_shards(args.shards);
  for (const Strategy& strategy : RegionStrategies()) {
    for (double ratio : {0.5, 0.75, 1.0}) {
      EngineOptions options;
      options.field = field;
      options.runtime = MakeOptions(strategy, 30'000'000);
      SessionOptions deployment;
      deployment.shards = args.shards;
      auto engine = Engine::Compile(kQuery3, options, deployment);
      if (!engine.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }
      size_t count = static_cast<size_t>(ratio * pool.size());
      for (size_t i = 0; i < count; ++i) {
        (*engine)->Insert("triggered", {double(pool[i])});
      }
      (void)(*engine)->Apply();
      fig.Add(strategy.name, ratio, (*engine)->Metrics());
    }
  }
  // Shard sweep (determinism contract): the full-trigger workload re-run at
  // 1/2/4 router shards must produce bit-identical traffic counters; only
  // wall time may move. Recorded into the JSON for cross-PR diffing.
  std::printf("shard sweep (full trigger set):\n");
  for (const Strategy& strategy : RegionStrategies()) {
    if (strategy.ship == ShipMode::kEager) continue;
    for (int shards : {1, 2, 4}) {
      EngineOptions options;
      options.field = field;
      options.runtime = MakeOptions(strategy, 30'000'000);
      SessionOptions deployment;
      deployment.shards = shards;
      auto engine = Engine::Compile(kQuery3, options, deployment);
      if (!engine.ok()) return 1;
      for (int sensor : pool) {
        (*engine)->Insert("triggered", {double(sensor)});
      }
      (void)(*engine)->Apply();
      fig.AddShardCell(strategy.name, 1.0, shards, (*engine)->Metrics());
    }
  }

  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
