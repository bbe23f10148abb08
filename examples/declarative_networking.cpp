// Declarative networking scenario (paper Section 2, Queries 1-2): build a
// GT-ITM-style transit-stub Internet topology, compile the shortest-path
// query from Datalog, and react to a link failure — all through
// recnet::Engine.
//
// Usage: example_declarative_networking [target_links]

#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"
#include "topology/transit_stub.h"
#include "topology/workload.h"

int main(int argc, char** argv) {
  int target_links = argc > 1 ? std::atoi(argv[1]) : 60;

  recnet::Topology topo =
      recnet::MakeTransitStubWithTargetLinks(target_links, /*dense=*/true, 1);
  std::printf("topology: %d routers, %zu bidirectional links\n",
              topo.num_nodes, topo.links.size());

  recnet::EngineOptions options;
  options.num_nodes = topo.num_nodes;
  options.aggsel = recnet::AggSelPolicy::kMulti;
  options.runtime.prov = recnet::ProvMode::kAbsorption;
  options.runtime.ship = recnet::ShipMode::kLazy;
  recnet::SessionOptions deployment;
  deployment.num_physical = 12;  // Paper default cluster size.

  // Query 2. The dialect has no arithmetic: the head's cost column stands
  // for the runtime-computed sum, and vec/length are maintained internally.
  auto engine = recnet::Engine::Compile(R"(
    path(x,y,c) :- link(x,y,c).
    path(x,y,c) :- link(x,z,c), path(z,y,c2).
    minCost(x,y,min<c>) :- path(x,y,c).
  )", options, deployment);
  if (!engine.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  recnet::Engine& paths = **engine;

  for (const recnet::LinkTuple& l : recnet::DirectedLinks(topo)) {
    paths.Insert("link", {double(l.src), double(l.dst), l.cost_ms});
  }
  if (!paths.Apply().ok()) {
    std::fprintf(stderr, "budget exceeded\n");
    return 1;
  }

  // Inspect a transit-to-stub route: node 0 is a transit router; the last
  // node is deep inside a stub domain. The path-view lookup surfaces the
  // runtime's auxiliary columns (src, dst, cost, vec, length).
  int src = 0;
  int dst = topo.num_nodes - 1;
  auto route = paths.Lookup("path", {double(src), double(dst)});
  if (route.ok()) {
    std::printf("route %d -> %d: cheapest %.0f ms via %s (%lld hops min)\n",
                src, dst, route->DoubleAt(2), route->StringAt(3).c_str(),
                (long long)route->IntAt(4));
  }

  // Fail the first link on the cheapest path's first hop and re-converge.
  recnet::TopoLink failed = topo.links.front();
  std::printf("failing link %d <-> %d ...\n", failed.a, failed.b);
  paths.Delete("link", {double(failed.a), double(failed.b)});
  paths.Delete("link", {double(failed.b), double(failed.a)});
  if (!paths.Apply().ok()) return 1;
  auto cost = paths.Lookup("minCost", {double(src), double(dst)});
  if (cost.ok()) {
    auto vec = paths.Lookup("path", {double(src), double(dst)});
    std::printf("route %d -> %d after failure: %.0f ms via %s\n", src, dst,
                cost->DoubleAt(2), vec.ok() ? vec->StringAt(3).c_str() : "?");
  } else {
    std::printf("route %d -> %d is gone after failure\n", src, dst);
  }

  std::printf("totals: %s\n", paths.Metrics().ToString().c_str());
  return 0;
}
