// Figure 11: scaling the number of links (and nodes) for the reachability
// query over inserts. Series: {Eager, Lazy} x {Dense, Sparse} absorption
// provenance. X axis: total links in the network.

#include <cstdio>

#include "bench_util.h"
#include "engine/reachable_runtime.h"
#include "topology/transit_stub.h"
#include "topology/workload.h"

using namespace recnet;
using namespace recnet::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  // Reduced scale sweeps 50..400 target links; paper scale 100..800.
  std::vector<int> targets = env.paper_scale
                                 ? std::vector<int>{100, 200, 400, 800}
                                 : std::vector<int>{50, 100, 200, 400};
  FigurePrinter fig("Figure 11",
                    "reachability over inserts, link-count sweep",
                    "target links",
                    {"Eager Dense", "Lazy Dense", "Eager Sparse",
                     "Lazy Sparse"});

  for (bool dense : {true, false}) {
    for (ShipMode ship : {ShipMode::kEager, ShipMode::kLazy}) {
      std::string name = std::string(ship == ShipMode::kEager ? "Eager"
                                                              : "Lazy") +
                         (dense ? " Dense" : " Sparse");
      for (int target : targets) {
        Topology topo =
            MakeTransitStubWithTargetLinks(target, dense, env.seed);
        Strategy strategy{name, ProvMode::kAbsorption, ship};
        ReachableRuntime rt(
            std::make_shared<Substrate>(topo.num_nodes, SubstrateOptions{}),
            topo.num_nodes, MakeOptions(strategy, 40'000'000));
        for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
          rt.InsertLink(l.src, l.dst);
        }
        rt.Run();
        fig.Add(name, target, rt.Metrics());
        std::fprintf(stderr, "  [fig11] %s links=%d (%d nodes) done\n",
                     name.c_str(), target, topo.num_nodes);
      }
    }
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
