// Figure 13: varying the number of physical query-processing peers for the
// reachable view (DRed vs Absorption Lazy). Logical network nodes are
// hash-mapped onto {4, 8, 12, 16, 24} physical peers; only cross-peer
// traffic costs bandwidth. Per the paper, panels (b) and (c) report
// *per-peer* communication and state, and convergence uses the simulated
// parallel-time estimate.

#include <cstdio>

#include "bench_util.h"
#include "engine/reachable_runtime.h"
#include "topology/workload.h"

using namespace recnet;
using namespace recnet::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  Topology topo = DefaultTopology(/*dense=*/true, env);
  std::printf("Figure 13 workload: %d nodes, %zu link tuples; insert all + "
              "delete 10%%\n",
              topo.num_nodes, topo.num_link_tuples());

  FigurePrinter fig("Figure 13", "reachable, varying physical peers",
                    "physical peers", {"DRed", "Absorption Lazy"});

  std::vector<Strategy> strategies = {
      {"DRed", ProvMode::kSet, ShipMode::kDirect},
      {"Absorption Lazy", ProvMode::kAbsorption, ShipMode::kLazy},
  };
  for (const Strategy& strategy : strategies) {
    for (int peers : {4, 8, 12, 16, 24}) {
      SubstrateOptions deployment;
      deployment.num_physical = peers;
      ReachableRuntime rt(
          std::make_shared<Substrate>(topo.num_nodes, deployment),
          topo.num_nodes, MakeOptions(strategy, 100'000'000));
      for (const LinkTuple& l : InsertionPrefix(topo, 1.0, env.seed)) {
        rt.InsertLink(l.src, l.dst);
      }
      // A cell whose insertion phase blows its budget is recorded
      // (converged: false), never dropped.
      if (rt.Run()) {
        for (const LinkTuple& l : DeletionSequence(topo, 0.1, env.seed)) {
          rt.DeleteLink(l.src, l.dst);
          if (!rt.Run()) break;  // Metrics now carry converged: false.
        }
      }
      RunMetrics m = rt.Metrics();
      // Report per-peer communication and state (the paper computes
      // per-node cost here), and the simulated parallel convergence time.
      m.comm_mb /= peers;
      m.state_mb /= peers;
      m.wall_seconds = m.sim_seconds;
      fig.Add(strategy.name, peers, m);
      std::fprintf(stderr, "  [fig13] %s peers=%d done\n",
                   strategy.name.c_str(), peers);
    }
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  std::printf("Note: panel (d) reports the simulated parallel convergence "
              "estimate (single-core work divided across peers plus "
              "cross-peer latency).\n");
  return 0;
}
