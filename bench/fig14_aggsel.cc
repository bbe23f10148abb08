// Figure 14: aggregate-selection performance on the shortestPath +
// cheapestCostPath query over dense and sparse 100-node-class topologies.
//
//   Multi AggSel  — one execution pruning on MIN(cost) and MIN(length)
//                   simultaneously, producing both aggregate views.
//   Single AggSel — aggregate selection on one metric at a time; producing
//                   both views takes two executions (cost-pruned +
//                   hops-pruned), whose costs are summed. This is why the
//                   paper finds Multi AggSel costs about half of Single.
//   No AggSel     — unrestricted path enumeration; cyclic topologies do
//                   not terminate, so runs are budget-capped and reported
//                   as ">" values (the paper's ">5min" bars).

#include <cstdio>

#include "bench_util.h"
#include "engine/shortest_path_runtime.h"
#include "topology/workload.h"

using namespace recnet;
using namespace recnet::bench;

namespace {

RunMetrics RunOnce(const Topology& topo, AggSelPolicy policy,
                   uint64_t budget, uint64_t seed) {
  RuntimeOptions opts;
  opts.prov = ProvMode::kAbsorption;
  opts.ship = ShipMode::kLazy;
  opts.message_budget = budget;
  opts.time_budget_s = 60;
  ShortestPathRuntime rt(
      std::make_shared<Substrate>(topo.num_nodes, SubstrateOptions{}),
      topo.num_nodes, opts, policy);
  for (const LinkTuple& l : InsertionPrefix(topo, 1.0, seed)) {
    rt.InsertLink(l.src, l.dst, l.cost_ms);
  }
  rt.Run();
  return rt.Metrics();
}

RunMetrics Sum(const RunMetrics& a, const RunMetrics& b) {
  RunMetrics out = a;
  out.comm_mb += b.comm_mb;
  out.state_mb += b.state_mb;
  out.wall_seconds += b.wall_seconds;
  out.sim_seconds += b.sim_seconds;
  out.messages += b.messages;
  out.kill_messages += b.kill_messages;
  out.batches += b.batches;
  // A summed cell is tagged exactly like a single-run cell: converged only
  // if both executions converged, with the abort accounting carried over so
  // a non-converged cell always shows aborted_runs > 0.
  out.aborted_runs += b.aborted_runs;
  out.dropped_messages += b.dropped_messages;
  out.per_tuple_prov_bytes =
      (a.per_tuple_prov_bytes + b.per_tuple_prov_bytes) / 2;
  out.converged = a.converged && b.converged;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchEnv env = GetBenchEnv();
  FigurePrinter fig("Figure 14",
                    "aggregate selections on shortestPath/cheapestCostPath",
                    "density (1=dense, 0=sparse)",
                    {"Multi AggSel", "Single AggSel", "No AggSel"});

  for (bool dense : {true, false}) {
    Topology topo = DefaultTopology(dense, env);
    double x = dense ? 1.0 : 0.0;
    std::fprintf(stderr, "  [fig14] %s: %d nodes, %zu link tuples\n",
                 dense ? "dense" : "sparse", topo.num_nodes,
                 topo.num_link_tuples());

    fig.Add("Multi AggSel", x,
            RunOnce(topo, AggSelPolicy::kMulti, 50'000'000, env.seed));
    std::fprintf(stderr, "  [fig14] multi done\n");
    RunMetrics cost =
        RunOnce(topo, AggSelPolicy::kCost, 50'000'000, env.seed);
    RunMetrics hops =
        RunOnce(topo, AggSelPolicy::kHops, 50'000'000, env.seed);
    fig.Add("Single AggSel", x, Sum(cost, hops));
    std::fprintf(stderr, "  [fig14] single done\n");
    // No AggSel enumerates unboundedly many paths on cyclic inputs: cap it.
    fig.Add("No AggSel", x,
            RunOnce(topo, AggSelPolicy::kNone, 400'000, env.seed));
    std::fprintf(stderr, "  [fig14] none done (budget-capped)\n");
  }
  fig.PrintAll();
  if (!args.json_path.empty() && !fig.WriteJson(args.json_path)) return 1;
  return 0;
}
