// Figure 12: scaling the number of links (and nodes) for the reachability
// query over deletions — after full insertion, an additional 20% of the
// links are deleted (paper §7.3). Deletion-phase metrics only.

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
  std::vector<int> targets = env.paper_scale
                                 ? std::vector<int>{100, 200, 400, 800}
                                 : std::vector<int>{50, 100, 200, 400};
  FigurePrinter fig("Figure 12",
                    "reachability over deletions (20% of links), link sweep",
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
        RuntimeOptions opts = MakeOptions(strategy, 40'000'000);
        // Tighter cap than Figure 11: a non-converging insertion phase
        // cannot produce a meaningful deletion measurement (the paper's
        // figure likewise has no Eager Dense bars at the large scales).
        opts.time_budget_s = 20;
        ReachableRuntime rt(
            std::make_shared<Substrate>(topo.num_nodes, SubstrateOptions{}),
            topo.num_nodes, opts);
        for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
          rt.InsertLink(l.src, l.dst);
        }
        // A cell whose insertion phase blows its budget is recorded with
        // the insertion metrics (converged: false), never dropped.
        const bool inserted = rt.Run();
        if (inserted) {
          rt.ResetMetrics();
          for (const LinkTuple& l : DeletionSequence(topo, 0.2, env.seed)) {
            rt.DeleteLink(l.src, l.dst);
            if (!rt.Run()) break;  // Metrics now carry converged: false.
          }
        }
        fig.Add(name, target, rt.Metrics());
        std::fprintf(stderr, "  [fig12] %s links=%d %s\n", name.c_str(),
                     target,
                     inserted ? "done" : "insert phase exceeded budget");
      }
    }
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
