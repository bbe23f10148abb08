// Figure 10: `region` query maintenance as deletions (sensor un-triggers)
// are performed. All triggers are applied first; then a shuffled fraction
// is removed one at a time. Metrics cover the deletion phase only.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "engine/region_runtime.h"
#include "topology/sensor_grid.h"

using namespace recnet;
using namespace recnet::bench;

namespace {

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
  std::printf("Figure 10 workload: %d sensors, %zu triggers, delete-phase "
              "metrics only\n",
              field.num_sensors, pool.size());

  FigurePrinter fig("Figure 10", "region query, deletion workload",
                    "deletion ratio",
                    {"DRed", "Absorption Eager", "Absorption Lazy"});

  for (const Strategy& strategy : RegionStrategies()) {
    for (double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      RegionRuntime rt(
          std::make_shared<Substrate>(field.num_sensors, SubstrateOptions{}),
          field, MakeOptions(strategy, 100'000'000));
      for (int s : pool) rt.Trigger(s);
      // A cell whose insertion phase blows its budget is recorded with the
      // insertion metrics (converged: false), never dropped.
      if (rt.Run()) {
        rt.ResetMetrics();
        std::vector<int> victims = pool;
        Rng rng(env.seed ^ 0xfeedULL);
        rng.Shuffle(&victims);
        victims.resize(static_cast<size_t>(ratio * victims.size()));
        for (int s : victims) {
          rt.Untrigger(s);
          if (!rt.Run()) break;  // Metrics now carry converged: false.
        }
      }
      fig.Add(strategy.name, ratio, rt.Metrics());
    }
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
