// Figure 8: `reachable` view maintenance as deletions are performed.
// After inserting all link tuples, a shuffled fraction is deleted one at a
// time ("each deletion occurs in isolation"); metrics cover the deletion
// phase only. DRed's over-delete/re-derive makes it an order of magnitude
// more expensive than absorption provenance here.

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
  // Slightly smaller default than Figure 7 so that even the eager
  // strategies fully converge on the insertion phase before deletions are
  // measured.
  Topology topo = env.paper_scale
                      ? DefaultTopology(/*dense=*/true, env)
                      : MakeTransitStubWithTargetLinks(60, true, env.seed);
  std::printf("Figure 8 workload: %d nodes, %zu link tuples; delete-phase "
              "metrics only%s\n",
              topo.num_nodes, topo.num_link_tuples(),
              env.paper_scale ? " (paper scale)" : " (reduced scale)");

  // The paper drops Relative Eager after Figure 7 (it does not converge);
  // we keep the remaining four series.
  std::vector<Strategy> strategies = {
      {"DRed", ProvMode::kSet, ShipMode::kDirect},
      {"Relative Lazy", ProvMode::kRelative, ShipMode::kLazy},
      {"Absorption Eager", ProvMode::kAbsorption, ShipMode::kEager},
      {"Absorption Lazy", ProvMode::kAbsorption, ShipMode::kLazy},
  };
  FigurePrinter fig("Figure 8", "reachable query, deletion workload",
                    "deletion ratio",
                    {"DRed", "Relative Lazy", "Absorption Eager",
                     "Absorption Lazy"});

  for (const Strategy& strategy : strategies) {
    for (double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      ReachableRuntime rt(
          std::make_shared<Substrate>(topo.num_nodes, SubstrateOptions{}),
          topo.num_nodes, MakeOptions(strategy, 200'000'000));
      for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
        rt.InsertLink(l.src, l.dst);
      }
      // A cell whose insertion phase blows its budget is recorded with the
      // insertion metrics (converged: false), never dropped.
      if (rt.Run()) {
        rt.ResetMetrics();  // Measure the deletion phase in isolation.
        for (const LinkTuple& l : DeletionSequence(topo, ratio, env.seed)) {
          rt.DeleteLink(l.src, l.dst);
          if (!rt.Run()) break;  // Metrics now carry converged: false.
        }
      }
      fig.Add(strategy.name, ratio, rt.Metrics());
      std::fprintf(stderr, "  [fig8] %s ratio=%.2f done (%llu msgs)\n",
                   strategy.name.c_str(), ratio,
                   static_cast<unsigned long long>(rt.Metrics().messages));
    }
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
