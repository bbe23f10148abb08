// Quickstart: compile the paper's Query 1 to a distributed reachability view
// with absorption provenance, then watch a deletion get handled
// incrementally — no over-delete / re-derive.
//
// Build & run:   cmake -B build -S . && cmake --build build
//                ./build/example_quickstart

#include <cstdio>

#include "engine/engine.h"

int main() {
  // Four logical query-processing nodes; absorption provenance + lazy
  // MinShip (the paper's best configuration).
  recnet::EngineOptions options;
  options.num_nodes = 4;
  options.runtime.prov = recnet::ProvMode::kAbsorption;
  options.runtime.ship = recnet::ShipMode::kLazy;
  // The deployment: those nodes run on 4 physical peers.
  recnet::SessionOptions deployment;
  deployment.num_physical = 4;

  auto engine = recnet::Engine::Compile(R"(
    reachable(x,y) :- link(x,y).
    reachable(x,y) :- link(x,z), reachable(z,y).
  )", options, deployment);
  if (!engine.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  recnet::Engine& view = **engine;

  // A small network: 0 -> 1 -> 2 -> 3, plus a redundant edge 0 -> 2.
  view.Insert("link", {0, 1});
  view.Insert("link", {1, 2});
  view.Insert("link", {2, 3});
  view.Insert("link", {0, 2});
  if (!view.Apply().ok()) return 1;

  std::printf("reachable(0, 3) = %s\n",
              *view.Contains("reachable", {0, 3}) ? "yes" : "no");
  std::printf("view contents:");
  auto contents = view.Scan("reachable");
  if (!contents.ok()) return 1;
  for (const recnet::Tuple& t : *contents) {
    std::printf(" %s", t.ToString().c_str());
  }
  std::printf("\n");

  // Why is 3 reachable from 0? (one witness from the provenance BDD)
  auto why = view.Explain("reachable", recnet::Tuple::OfInts({0, 3}));
  if (why.ok()) {
    std::printf("witness links for reachable(0, 3):");
    for (const recnet::Tuple& link : *why) {
      std::printf(" %lld->%lld", (long long)link.IntAt(0),
                  (long long)link.IntAt(1));
    }
    std::printf("\n");
  }

  // Delete the redundant link 1 -> 2: reachability survives via 0 -> 2.
  view.Delete("link", {1, 2});
  if (!view.Apply().ok()) return 1;
  std::printf("after deleting 1->2: reachable(0, 3) = %s (still derivable)\n",
              *view.Contains("reachable", {0, 3}) ? "yes" : "no");

  // Delete the bridge 2 -> 3: now 3 is unreachable.
  view.Delete("link", {2, 3});
  if (!view.Apply().ok()) return 1;
  std::printf("after deleting 2->3: reachable(0, 3) = %s\n",
              *view.Contains("reachable", {0, 3}) ? "yes" : "no");

  recnet::RunMetrics m = view.Metrics();
  std::printf("totals: %s\n", m.ToString().c_str());
  return 0;
}
