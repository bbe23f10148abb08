// Sensor-network scenario (paper Section 2, Query 3): a 100 m x 100 m grid
// of sensors; a "fire" triggers a contiguous patch of sensors, the region
// view grows from the seed, and the region-size aggregate tracks it as the
// fire spreads and is extinguished. The query is compiled from Datalog;
// the sensor deployment (seed and proximity EDBs) comes from
// EngineOptions::field.

#include <cstdio>

#include "engine/engine.h"
#include "topology/sensor_grid.h"

int main() {
  recnet::SensorGridOptions grid;
  grid.grid_dim = 10;    // 100 sensors.
  grid.k = 20.0;         // Paper's contiguity threshold.
  grid.num_seeds = 5;    // Five monitored regions.
  grid.seed = 42;
  recnet::SensorField field = recnet::MakeSensorGrid(grid);

  std::printf("sensor field: %d sensors, %zu regions, seeds at:",
              field.num_sensors, field.seed_sensors.size());
  for (int s : field.seed_sensors) std::printf(" %d", s);
  std::printf("\n");

  recnet::EngineOptions options;
  options.field = field;
  options.runtime.prov = recnet::ProvMode::kAbsorption;
  options.runtime.ship = recnet::ShipMode::kLazy;
  recnet::SessionOptions deployment;
  deployment.num_physical = 12;

  // Query 3: the region grows from a triggered seed along the proximity
  // EDB (the paper's distance(x,y) < k guard, precomputed into `near`).
  auto engine = recnet::Engine::Compile(R"(
    activeRegion(r,x) :- seed(r,x), triggered(x).
    activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
    regionSizes(r,count<x>) :- activeRegion(r,x).
  )", options, deployment);
  if (!engine.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  recnet::Engine& regions = **engine;

  // Ignite around seed 0: trigger the seed and everything within 25 m.
  int seed0 = field.seed_sensors[0];
  regions.Insert("triggered", {double(seed0)});
  for (int nb : field.neighbors[static_cast<size_t>(seed0)]) {
    regions.Insert("triggered", {double(nb)});
  }
  if (!regions.Apply().ok()) return 1;
  auto size0 = regions.Lookup("regionSizes", {0});
  std::printf("after ignition: region 0 has %lld sensors\n",
              size0.ok() ? (long long)size0->IntAt(1) : 0LL);

  // The fire spreads: trigger second-ring sensors.
  for (int nb : field.neighbors[static_cast<size_t>(seed0)]) {
    for (int nb2 : field.neighbors[static_cast<size_t>(nb)]) {
      regions.Insert("triggered", {double(nb2)});
    }
  }
  if (!regions.Apply().ok()) return 1;
  size0 = regions.Lookup("regionSizes", {0});
  std::printf("after spread: region 0 has %lld sensors\n",
              size0.ok() ? (long long)size0->IntAt(1) : 0LL);
  std::printf("all region sizes:");
  auto sizes = regions.Scan("regionSizes");
  if (!sizes.ok()) return 1;
  for (const recnet::Tuple& t : *sizes) {
    std::printf(" #%lld=%lld", (long long)t.IntAt(0), (long long)t.IntAt(1));
  }
  std::printf("\n");

  // Extinguish: sensors stop reporting (soft-state expiry = deletion).
  for (int s = 0; s < field.num_sensors; ++s) {
    regions.Delete("triggered", {double(s)});
  }
  if (!regions.Apply().ok()) return 1;
  size0 = regions.Lookup("regionSizes", {0});
  std::printf("after extinguishing: region 0 has %lld sensors\n",
              size0.ok() ? (long long)size0->IntAt(1) : 0LL);

  std::printf("totals: %s\n", regions.Metrics().ToString().c_str());
  return 0;
}
